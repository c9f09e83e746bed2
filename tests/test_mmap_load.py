"""mmap-backed snapshot loads (PR 8): zero-copy, read-only, bit-for-bit.

The zero-copy contract: ``load_base(path, mmap=True)`` must answer
exactly like the eager load for every supported snapshot version —
v3/v4 map their columns as read-only views over the file — while the
mapped arrays reject writes (an immutable snapshot is what makes the
many-reader process tier safe).  ``load_base_buffer`` is the same
contract over an in-memory payload (the shared-memory publish path).
"""

import numpy as np
import pytest

from repro import GeometricSimilarityMatcher, ShapeBase
from repro.ann import AnnConfig
from repro.storage import CorruptSnapshotError, load_base, save_base
from repro.storage.persist import (encode_base, load_base_buffer,
                                   snapshot_info)

from .conftest import assert_same_base, star_shaped_polygon


@pytest.fixture
def built(rng):
    base = ShapeBase(alpha=0.1)
    base.add_shapes([star_shaped_polygon(rng, int(rng.integers(8, 16)))
                     for _ in range(12)],
                    image_ids=[i % 4 for i in range(12)])
    return base


def _answers(base, sketches, k=3):
    matcher = GeometricSimilarityMatcher(base)
    return [[(m.shape_id, m.distance)
             for m in matcher.query(s, k=k)[0]]
            for s in sketches]


class TestMmapEqualsEager:
    def test_v3_bitwise_and_answers(self, built, tmp_path):
        path = tmp_path / "b.gsb"
        save_base(built, path, version=3)
        eager = load_base(path)
        mapped = load_base(path, mmap=True)
        assert eager.snapshot_backing == "eager"
        assert mapped.snapshot_backing == "mmap"
        assert_same_base(eager, mapped)
        sketches = list(built.shapes.values())[:3]
        assert _answers(eager, sketches) == _answers(mapped, sketches)

    def test_v4_with_signatures_and_sketches(self, built, tmp_path):
        path = tmp_path / "b.gsb"
        ann = AnnConfig(tables=4, band_width=2, grid=16, seed=7)
        save_base(built, path, version=4, hash_curves=40,
                  ann_sketch=ann.sketch)
        eager = load_base(path)
        mapped = load_base(path, mmap=True)
        assert mapped.snapshot_backing == "mmap"
        assert_same_base(eager, mapped)
        # The embedded caches must arrive identically through both
        # backings (zero recompute on either path).
        from repro.ann.sketch import compute_entry_sketches
        from repro.hashing.curves import HashCurveFamily
        from repro.storage.layout import compute_signatures
        assert np.array_equal(compute_entry_sketches(eager, ann.sketch),
                              compute_entry_sketches(mapped, ann.sketch))
        family = HashCurveFamily(40)
        assert np.array_equal(compute_signatures(eager, family),
                              compute_signatures(mapped, family))

    def test_fresh_base_reports_memory_backing(self, built):
        assert built.snapshot_backing == "memory"


class TestReadOnlyViews:
    def test_vertex_columns_reject_writes(self, built, tmp_path):
        path = tmp_path / "b.gsb"
        save_base(built, path, version=3)
        mapped = load_base(path, mmap=True)
        mapped._ensure_arrays()
        with pytest.raises(ValueError, match="read-only"):
            mapped._vertex_points[0, 0] = 123.0
        entry = mapped.entries[0]
        with pytest.raises(ValueError, match="read-only"):
            entry.shape.vertices[0, 0] = 123.0

    def test_mmap_load_is_queryable_after_writes_rejected(
            self, built, tmp_path):
        path = tmp_path / "b.gsb"
        save_base(built, path, version=3)
        mapped = load_base(path, mmap=True)
        with pytest.raises(ValueError):
            mapped.entries[0].shape.vertices[0, 0] = 1.0
        sketch = next(iter(built.shapes.values()))
        assert _answers(mapped, [sketch]) == _answers(built, [sketch])


class TestSnapshotInfo:
    def test_reports_size_and_mmap_capability(self, built, tmp_path):
        v3 = tmp_path / "v3.gsb"
        save_base(built, v3, version=3)
        info = snapshot_info(v3)
        assert info["size_bytes"] == v3.stat().st_size
        # Every version a reader accepts maps: no per-file flag.
        assert "mmap_capable" not in info
        assert load_base(v3, mmap=True).snapshot_backing == "mmap"

    def test_truncated_mmap_load_detected(self, built, tmp_path):
        path = tmp_path / "b.gsb"
        save_base(built, path, version=3)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 17])
        with pytest.raises(CorruptSnapshotError):
            load_base(path, mmap=True)


class TestBufferLoads:
    def test_buffer_roundtrip_equals_file(self, built, tmp_path):
        payload = encode_base(built)
        from_buffer = load_base_buffer(payload, backing="shm")
        assert from_buffer.snapshot_backing == "shm"
        path = tmp_path / "b.gsb"
        save_base(built, path, version=3)
        assert_same_base(load_base(path), from_buffer)

    def test_buffer_load_rejects_garbage(self):
        with pytest.raises(CorruptSnapshotError):
            load_base_buffer(b"not a snapshot at all")
