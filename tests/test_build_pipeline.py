"""Build-pipeline coverage (PR 5): bulk ingest, v3 snapshots,
incremental maintenance, parallel shard builds.

The pipeline's contract is *bit-for-bit equivalence*: whichever way a
base is built — a loop of batch-of-one ``add_shape`` calls, one bulk
``add_shapes`` call, a v3 snapshot load, or incremental patches after
removals — the resulting entries, flat index arrays and query answers
must be identical.  (That the batch equals the paper-§2.4 scalar
reference is ``tests/test_transform.py``'s job.)
"""

import numpy as np
import pytest

from repro import GeometricSimilarityMatcher, Shape, ShapeBase
from repro.hashing.hashtable import ApproximateRetriever
from repro.service import RetrievalService, ServiceConfig
from repro.service.pool import WorkerPool
from repro.service.shards import ShardSet
from repro.storage import CorruptSnapshotError, load_base, save_base
from repro.storage.persist import snapshot_info

from .conftest import assert_same_base, star_shaped_polygon


def _shapes(rng, count=14):
    return [star_shaped_polygon(rng, int(rng.integers(8, 16)))
            for _ in range(count)]


def _answers(base, sketches, k=3):
    matcher = GeometricSimilarityMatcher(base)
    out = []
    for sketch in sketches:
        matches, _ = matcher.query(sketch, k=k)
        out.append([(m.shape_id, m.distance) for m in matches])
    return out


class TestBulkIngestEquivalence:
    def test_entries_and_arrays_identical(self, rng):
        shapes = _shapes(rng)
        one_by_one = ShapeBase(alpha=0.1)
        for i, shape in enumerate(shapes):
            one_by_one.add_shape(shape, image_id=i % 4)
        bulk = ShapeBase(alpha=0.1)
        bulk.add_shapes(shapes, image_ids=[i % 4 for i in range(len(shapes))])
        assert_same_base(one_by_one, bulk)

    def test_query_answers_identical(self, rng):
        shapes = _shapes(rng)
        one_by_one = ShapeBase(alpha=0.1)
        for shape in shapes:
            one_by_one.add_shape(shape, image_id=0)
        bulk = ShapeBase(alpha=0.1)
        bulk.add_shapes(shapes, image_id=0)
        assert _answers(one_by_one, shapes[:4]) == _answers(bulk, shapes[:4])

    def test_bulk_validates_before_mutating(self, rng):
        base = ShapeBase(alpha=0.1)
        good = _shapes(rng, 3)
        bad = Shape([(0.0, 0.0), (1.0, np.nan), (2.0, 1.0)])
        with pytest.raises(ValueError, match="NaN or infinite"):
            base.add_shapes(good + [bad])
        assert base.num_shapes == 0          # nothing half-ingested

    def test_bulk_id_and_image_lists(self, rng):
        shapes = _shapes(rng, 4)
        base = ShapeBase(alpha=0.1)
        ids = base.add_shapes(shapes, image_ids=[7, None, 7, 2],
                              shape_ids=[10, 20, 30, 40])
        assert ids == [10, 20, 30, 40]
        assert base.shape_image[20] is None
        assert sorted(base.shapes_of_image(7)) == [10, 30]
        with pytest.raises(ValueError, match="already present"):
            base.add_shapes(shapes[:1], shape_ids=[10])

    def test_mismatched_lengths_rejected(self, rng):
        base = ShapeBase(alpha=0.1)
        shapes = _shapes(rng, 3)
        with pytest.raises(ValueError, match="image_ids must match"):
            base.add_shapes(shapes, image_ids=[1])
        with pytest.raises(ValueError, match="shape_ids must match"):
            base.add_shapes(shapes, shape_ids=[1, 2])


class TestSnapshotRoundTrips:
    @pytest.fixture
    def built(self, rng):
        base = ShapeBase(alpha=0.1)
        base.add_shapes(_shapes(rng, 10),
                        image_ids=[i % 3 for i in range(10)])
        return base

    def test_v3_roundtrip_bitwise(self, built, tmp_path):
        path = tmp_path / "b.gsb"
        save_base(built, path, version=3)
        loaded = load_base(path)
        assert_same_base(built, loaded)
        sketches = list(built.shapes.values())[:3]
        assert _answers(built, sketches) == _answers(loaded, sketches)

    def test_v3_truncation_detected(self, built, tmp_path):
        path = tmp_path / "b.gsb"
        save_base(built, path, version=3)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 17])
        with pytest.raises(CorruptSnapshotError, match="truncated"):
            load_base(path)

    def test_v3_bit_flip_detected(self, built, tmp_path):
        path = tmp_path / "b.gsb"
        save_base(built, path, version=3)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptSnapshotError, match="checksum"):
            load_base(path)

    def test_v3_deterministic_bytes(self, built, tmp_path):
        a, b = tmp_path / "a.gsb", tmp_path / "b.gsb"
        save_base(built, a, version=3)
        save_base(built, b, version=3)
        assert a.read_bytes() == b.read_bytes()

    def test_snapshot_info_and_signatures(self, built, tmp_path):
        path = tmp_path / "b.gsb"
        save_base(built, path, version=3, hash_curves=40)
        info = snapshot_info(path)
        assert info["version"] == 3
        assert info["num_shapes"] == built.num_shapes
        assert info["signature_curves"] == 40
        loaded = load_base(path)
        cached = loaded.cached_signatures(40)
        assert cached is not None and len(cached) == loaded.num_entries
        # The cache must reproduce what a fresh retriever computes.
        fresh = ApproximateRetriever(built, k_curves=40)
        warmed = ApproximateRetriever(loaded, k_curves=40)
        sketch = next(iter(built.shapes.values()))
        assert ([m.shape_id for m in fresh.query(sketch, k=3)] ==
                [m.shape_id for m in warmed.query(sketch, k=3)])

    def test_loaded_base_stays_mutable(self, built, tmp_path, rng):
        path = tmp_path / "b.gsb"
        save_base(built, path, version=3)
        loaded = load_base(path)
        new_id = loaded.add_shape(star_shaped_polygon(rng, 9), image_id=99)
        loaded.remove_shape(next(iter(built.shapes)))
        fresh = ShapeBase(alpha=0.1)
        for sid, shape in loaded.shapes.items():
            fresh.add_shape(shape, image_id=loaded.shape_image[sid],
                            shape_id=sid)
        sketches = [loaded.shapes[new_id]]
        assert _answers(loaded, sketches) == _answers(fresh, sketches)


    def test_removal_right_after_load(self, built, tmp_path):
        """A load installs the flat arrays before the index exists; a
        removal at that point must not leave them describing the
        removed copies."""
        path = tmp_path / "b.gsb"
        save_base(built, path, version=3)
        loaded = load_base(path)
        victim = next(iter(built.shapes))
        loaded.remove_shape(victim)
        fresh = built.subset([sid for sid in built.shapes if sid != victim])
        assert_same_base(loaded, fresh)
        sketches = list(fresh.shapes.values())[:3]
        assert _answers(loaded, sketches) == _answers(fresh, sketches)


class TestIncrementalMaintenance:
    def test_add_after_build_matches_rebuild(self, rng):
        shapes = _shapes(rng, 12)
        live = ShapeBase(alpha=0.1)
        live.add_shapes(shapes[:8], image_id=0)
        live._ensure_arrays()
        for shape in shapes[8:]:
            live.add_shape(shape, image_id=1)     # incremental path
        fresh = ShapeBase(alpha=0.1)
        fresh.add_shapes(shapes[:8], image_id=0)
        fresh.add_shapes(shapes[8:], image_id=1)
        assert _answers(live, shapes[:4]) == _answers(fresh, shapes[:4])

    def test_remove_patches_instead_of_rebuild(self, rng):
        shapes = _shapes(rng, 12)
        live = ShapeBase(alpha=0.1)
        ids = live.add_shapes(shapes, image_id=0)
        live._ensure_arrays()
        for victim in (ids[3], ids[7], ids[0]):
            live.remove_shape(victim)
        keep = [i for i in range(12) if i not in (0, 3, 7)]
        fresh = ShapeBase(alpha=0.1)
        fresh.add_shapes([shapes[i] for i in keep], image_id=0,
                         shape_ids=[ids[i] for i in keep])
        sketches = [shapes[i] for i in keep[:4]]
        assert _answers(live, sketches) == _answers(fresh, sketches)

    def test_subset_reuses_normalized_entries(self, rng):
        base = ShapeBase(alpha=0.1)
        ids = base.add_shapes(_shapes(rng, 8), image_id=0)
        part = base.subset(ids[:4])
        by_shape = {e.shape_id: e for e in part.entries}
        for sid in ids[:4]:
            source = base.entries[base._entries_by_shape[sid][0]]
            assert by_shape[sid].copy is not None
            # identity, not equality: no re-normalization happened
            assert any(e.copy is source.copy for e in part.entries
                       if e.shape_id == sid)

    def test_split_partitions_exactly(self, rng):
        base = ShapeBase(alpha=0.1)
        ids = base.add_shapes(_shapes(rng, 9), image_id=0)
        parts = base.split(3)
        seen = sorted(sid for part in parts for sid in part.shape_ids())
        assert seen == sorted(ids)
        assert sum(p.num_entries for p in parts) == base.num_entries


class TestParallelShardBuild:
    def test_parallel_warm_deterministic(self, rng):
        shapes = _shapes(rng, 16)
        base = ShapeBase(alpha=0.1)
        base.add_shapes(shapes, image_id=0)

        sequential = ShardSet.from_base(base, num_shards=4)
        sequential.warm()
        with WorkerPool(4) as pool:
            parallel = ShardSet.from_base(base, num_shards=4)
            parallel.warm(pool)
        assert (sequential.shape_counts() == parallel.shape_counts())
        for seq_shard, par_shard in zip(sequential, parallel):
            assert (seq_shard.base.shape_ids() ==
                    par_shard.base.shape_ids())
            for sketch in shapes[:3]:
                seq_matches, _ = seq_shard.query_batch([sketch], k=2)[0]
                par_matches, _ = par_shard.query_batch([sketch], k=2)[0]
                assert ([(m.shape_id, m.distance) for m in seq_matches] ==
                        [(m.shape_id, m.distance) for m in par_matches])

    def test_bulk_shard_ingest_equals_scalar(self, rng):
        shapes = _shapes(rng, 16)
        one_by_one = ShardSet(num_shards=3, alpha=0.1)
        for shape in shapes:
            one_by_one.add_shape(shape, image_id=0)
        bulk = ShardSet(num_shards=3, alpha=0.1)
        bulk.add_shapes(shapes, image_id=0)
        assert one_by_one.shape_counts() == bulk.shape_counts()
        for a, b in zip(one_by_one, bulk):
            assert a.base.shape_ids() == b.base.shape_ids()
            assert_same_base(a.base, b.base)

    def test_service_from_snapshot(self, rng, tmp_path):
        base = ShapeBase(alpha=0.1)
        base.add_shapes(_shapes(rng, 10), image_id=0)
        path = tmp_path / "b.gsb"
        save_base(base, path, version=3, hash_curves=50)
        sketch = next(iter(base.shapes.values()))
        with RetrievalService.from_base(
                base, ServiceConfig(num_shards=2, workers=1)) as direct:
            expected = [(m.shape_id, m.distance)
                        for m in direct.retrieve(sketch, k=3).matches]
        with RetrievalService.from_snapshot(
                path, ServiceConfig(num_shards=2, workers=1)) as revived:
            got = [(m.shape_id, m.distance)
                   for m in revived.retrieve(sketch, k=3).matches]
        assert got == expected
