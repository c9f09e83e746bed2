"""Tests for dynamic removal, file persistence and store rehashing."""

import numpy as np
import pytest

from repro import GeometricSimilarityMatcher, Shape, ShapeBase
from repro.hashing import HashCurveFamily
from repro.storage import (ExternalShapeStore, compute_signatures,
                           load_base, save_base)
from tests.conftest import star_shaped_polygon


class TestRemoveShape:
    @pytest.fixture
    def base(self, rng):
        base = ShapeBase(alpha=0.05)
        base.shapes_list = []
        for i in range(10):
            shape = star_shaped_polygon(rng, 10)
            base.shapes_list.append(shape)
            base.add_shape(shape, image_id=i % 3)
        return base

    def test_remove_drops_entries(self, base):
        before = base.num_entries
        removed_entries = len(base.entries_of_shape(4))
        base.remove_shape(4)
        assert base.num_shapes == 9
        assert base.num_entries == before - removed_entries
        assert 4 not in base.shape_ids()

    def test_remove_unknown_raises(self, base):
        with pytest.raises(KeyError):
            base.remove_shape(999)

    def test_entry_ids_compacted(self, base):
        base.remove_shape(2)
        for position, entry in enumerate(base.entries):
            assert entry.entry_id == position
        for shape_id in base.shape_ids():
            for entry_id in base.entries_of_shape(shape_id):
                assert base.entry(entry_id).shape_id == shape_id

    def test_image_mapping_updated(self, base):
        image = base.image_of_shape(5)
        base.remove_shape(5)
        assert 5 not in base.shapes_of_image(image)

    def test_queries_work_after_removal(self, base):
        base.remove_shape(7)
        matcher = GeometricSimilarityMatcher(base)
        query = base.shapes_list[3].rotated(0.5)
        matches, _ = matcher.query(query, k=1)
        assert matches[0].shape_id == 3

    def test_removed_shape_not_retrieved(self, base):
        query = base.shapes_list[7]
        base.remove_shape(7)
        matcher = GeometricSimilarityMatcher(base)
        matches, _ = matcher.query_threshold(query, 1e-6)
        assert all(m.shape_id != 7 for m in matches)

    def test_remove_last_shape_of_image(self, rng):
        base = ShapeBase()
        base.add_shape(star_shaped_polygon(rng, 8), image_id=42)
        base.remove_shape(0)
        assert base.num_images == 0
        assert base.num_entries == 0


class TestPersistence:
    def test_roundtrip(self, rng, tmp_path):
        base = ShapeBase(alpha=0.1)
        shapes = []
        for i in range(8):
            shape = star_shaped_polygon(rng, int(rng.integers(8, 14)))
            shapes.append(shape)
            base.add_shape(shape, image_id=i % 2)
        path = tmp_path / "base.gsir"
        written = save_base(base, path)
        assert written == path.stat().st_size

        loaded = load_base(path)
        assert loaded.num_shapes == base.num_shapes
        assert loaded.alpha == pytest.approx(base.alpha)
        assert loaded.shape_ids() == base.shape_ids()
        for shape_id in base.shape_ids():
            assert loaded.image_of_shape(shape_id) == \
                base.image_of_shape(shape_id)

    def test_loaded_base_answers_queries(self, rng, tmp_path):
        base = ShapeBase(alpha=0.05)
        shapes = []
        for i in range(10):
            shape = star_shaped_polygon(rng, 10)
            shapes.append(shape)
            base.add_shape(shape, image_id=i)
        path = tmp_path / "base.gsir"
        save_base(base, path)
        loaded = load_base(path)
        query = shapes[6].rotated(1.0).scaled(2.0)
        original, _ = GeometricSimilarityMatcher(base).query(query, k=1)
        reloaded, _ = GeometricSimilarityMatcher(loaded).query(query, k=1)
        assert original[0].shape_id == reloaded[0].shape_id
        assert reloaded[0].distance < 1e-3       # float32 rounding

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.gsir"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError, match="not a GeoSIR"):
            load_base(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "tiny.gsir"
        path.write_bytes(b"\0\1")
        with pytest.raises(ValueError, match="truncated"):
            load_base(path)

    def test_empty_base_roundtrip(self, tmp_path):
        base = ShapeBase(alpha=0.2)
        path = tmp_path / "empty.gsir"
        save_base(base, path)
        loaded = load_base(path)
        assert loaded.num_shapes == 0
        assert loaded.alpha == pytest.approx(0.2)


class TestCrashSafePersistence:
    """save_base is atomic, load_base verifies length + checksum."""

    @pytest.fixture
    def saved(self, rng, tmp_path):
        base = ShapeBase(alpha=0.1)
        for i in range(6):
            base.add_shape(star_shaped_polygon(rng, 10), image_id=i)
        path = tmp_path / "base.gsir"
        save_base(base, path)
        return base, path

    def test_no_temp_file_left_behind(self, saved, tmp_path):
        _, path = saved
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_overwrite_is_atomic_replace(self, saved):
        base, path = saved
        before = path.read_bytes()
        save_base(base, path)                 # overwrite in place
        assert path.read_bytes() == before
        assert not path.with_name(path.name + ".tmp").exists()

    def test_truncated_body_raises_corrupt(self, saved):
        from repro.storage import CorruptSnapshotError
        _, path = saved
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 40])
        with pytest.raises(CorruptSnapshotError, match="truncated"):
            load_base(path)

    def test_bit_flip_fails_checksum(self, saved):
        from repro.storage import CorruptSnapshotError
        _, path = saved
        data = bytearray(path.read_bytes())
        data[-25] ^= 0xFF                     # flip one body byte
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptSnapshotError, match="checksum"):
            load_base(path)

    def test_corrupt_error_is_a_value_error(self):
        from repro.storage import CorruptSnapshotError
        assert issubclass(CorruptSnapshotError, ValueError)

    def test_unsupported_version_rejected(self, saved):
        """The retired record formats 1 and 2 are as unknown as 99,
        through every way into a snapshot."""
        from repro.storage import CorruptSnapshotError, snapshot_info
        from repro.storage.persist import load_base_buffer
        _, path = saved
        data = bytearray(path.read_bytes())
        for version in (1, 2, 99):
            data[4:6] = version.to_bytes(2, "little")
            path.write_bytes(bytes(data))
            for read in (load_base, lambda p: load_base(p, mmap=True),
                         lambda p: load_base_buffer(p.read_bytes()),
                         snapshot_info):
                with pytest.raises(
                        CorruptSnapshotError,
                        match=f"unsupported .* version {version}"):
                    read(path)

    @pytest.mark.parametrize("version", [1, 2, 5])
    def test_unwritable_version_rejected(self, saved, version):
        base, path = saved
        before = path.read_bytes()
        with pytest.raises(ValueError, match="cannot write"):
            save_base(base, path, version=version)
        assert path.read_bytes() == before


class TestRehash:
    def test_rehash_changes_layout_counts_io(self, rng):
        base = ShapeBase(alpha=0.05)
        for i in range(12):
            base.add_shape(star_shaped_polygon(rng, 12), image_id=i)
        signatures = compute_signatures(base, HashCurveFamily(30))
        store = ExternalShapeStore(base, layout="lexicographic",
                                   buffer_blocks=8, signatures=signatures)
        old_blocks = store.stats().num_blocks
        cost = store.rehash("mean")
        assert store.layout_name == "mean"
        assert cost.reads == old_blocks
        assert cost.writes == store.stats().num_blocks

    def test_rehash_preserves_content(self, rng):
        base = ShapeBase(alpha=0.05)
        for i in range(10):
            base.add_shape(star_shaped_polygon(rng, 10), image_id=i)
        signatures = compute_signatures(base, HashCurveFamily(30))
        store = ExternalShapeStore(base, layout="median",
                                   signatures=signatures)
        before = {e: store.read_entry(e).shape_id
                  for e in range(base.num_entries)}
        store.rehash("localopt")
        after = {e: store.read_entry(e).shape_id
                 for e in range(base.num_entries)}
        assert before == after

    def test_rehash_cold_buffer(self, rng):
        base = ShapeBase(alpha=0.05)
        for i in range(8):
            base.add_shape(star_shaped_polygon(rng, 10), image_id=i)
        signatures = compute_signatures(base, HashCurveFamily(30))
        store = ExternalShapeStore(base, layout="mean", buffer_blocks=4,
                                   signatures=signatures)
        store.read_entry(0)
        store.rehash("median")
        assert store.buffer.resident == 0
