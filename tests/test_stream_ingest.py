"""The write path: incremental folds, backpressure, live ingest.

Three layers of coverage:

* :class:`IncrementalIndex` — fold-threshold boundary cases, removal
  after a fold matching a from-scratch rebuild, and the ``fold=False``
  contract a caller that folds for itself relies on;
* the streaming service — no fold thread in either execution mode,
  tails bounded by the append itself, the admission backpressure
  counter, the ``snapshot()["ingest"]`` section, and a closed service
  refusing writes;
* concurrency — seeded writer threads ingesting while reader threads
  query, with the final answers asserted bit-for-bit equal to a base
  rebuilt from scratch over the same corpus.
"""

import threading

import numpy as np
import pytest

from repro import Shape, ShapeBase
from repro.core.matcher import GeometricSimilarityMatcher
from repro.rangesearch import BruteForceIndex, make_index
from repro.rangesearch.dynamic import (IncrementalIndex, _TAIL_MIN,
                                       fold_threshold)
from repro.service import RetrievalService, ServiceConfig

from .conftest import star_shaped_polygon


def _triangle_answers(index, triangles):
    return [sorted(index.report_triangle(*t)) for t in triangles]


@pytest.fixture
def probe_triangles(rng):
    corners = rng.uniform(-6, 6, (8, 3, 2))
    return [tuple(map(tuple, t)) for t in corners]


class TestFoldThreshold:
    def test_floor_for_small_cores(self):
        # Tiny cores use the flat floor, not the fraction.
        assert fold_threshold(0) == _TAIL_MIN
        assert fold_threshold(4 * _TAIL_MIN - 1) == _TAIL_MIN

    def test_fraction_past_the_floor(self):
        assert fold_threshold(1000) == 250.0

    def test_extend_at_threshold_keeps_tail(self, rng):
        core = make_index(rng.uniform(-5, 5, (10, 2)), "kdtree")
        # Tail exactly at the threshold: no fold (strictly-greater).
        grown = IncrementalIndex.extended(
            core, rng.uniform(-5, 5, (_TAIL_MIN, 2)))
        assert isinstance(grown, IncrementalIndex)
        assert grown.tail_size == _TAIL_MIN
        assert not grown.needs_fold()

    def test_extend_past_threshold_folds(self, rng):
        core = make_index(rng.uniform(-5, 5, (10, 2)), "kdtree")
        grown = IncrementalIndex.extended(
            core, rng.uniform(-5, 5, (_TAIL_MIN + 1, 2)))
        assert not isinstance(grown, IncrementalIndex)
        assert len(grown.points) == 10 + _TAIL_MIN + 1

    def test_fold_false_grows_without_bound(self, rng):
        index = make_index(rng.uniform(-5, 5, (4, 2)), "kdtree")
        for _ in range(4):
            index = IncrementalIndex.extended(
                index, rng.uniform(-5, 5, (_TAIL_MIN, 2)), fold=False)
        assert isinstance(index, IncrementalIndex)
        assert index.tail_size == 4 * _TAIL_MIN
        assert index.needs_fold()

    def test_deferred_fold_equals_rebuild(self, rng, probe_triangles):
        points = rng.uniform(-5, 5, (40, 2))
        index = make_index(points[:10], "kdtree")
        index = IncrementalIndex.extended(index, points[10:], fold=False)
        folded = index.fold()
        assert not isinstance(folded, IncrementalIndex)
        rebuilt = make_index(points, "kdtree")
        assert _triangle_answers(folded, probe_triangles) == \
            _triangle_answers(rebuilt, probe_triangles)
        # The fold is pure: the incremental index still answers.
        assert _triangle_answers(index, probe_triangles) == \
            _triangle_answers(rebuilt, probe_triangles)


class TestRemoveAfterFold:
    def test_remove_after_fold_matches_rebuilt(self, rng,
                                               probe_triangles):
        points = rng.uniform(-5, 5, (50, 2))
        index = make_index(points[:20], "kdtree")
        index = IncrementalIndex.extended(index, points[20:], fold=False)
        folded = index.fold()
        keep = rng.random(50) > 0.3
        removed = folded.removed(keep)
        rebuilt = make_index(points[keep], "kdtree")
        assert _triangle_answers(removed, probe_triangles) == \
            _triangle_answers(rebuilt, probe_triangles)

    def test_remove_from_unfolded_tail(self, rng, probe_triangles):
        points = rng.uniform(-5, 5, (30, 2))
        index = make_index(points[:20], "kdtree")
        index = IncrementalIndex.extended(index, points[20:], fold=False)
        keep = np.ones(30, dtype=bool)
        keep[[3, 21, 29]] = False       # core and tail removals
        removed = index.removed(keep)
        rebuilt = make_index(points[keep], "kdtree")
        assert _triangle_answers(removed, probe_triangles) == \
            _triangle_answers(rebuilt, probe_triangles)

    def test_remove_whole_tail_returns_core(self, rng):
        points = rng.uniform(-5, 5, (12, 2))
        index = make_index(points[:8], "kdtree")
        index = IncrementalIndex.extended(index, points[8:], fold=False)
        keep = np.ones(12, dtype=bool)
        keep[8:] = False
        assert not isinstance(index.removed(keep), IncrementalIndex)


class TestConcurrentAddQuery:
    def test_seeded_writer_reader_schedule(self, rng):
        """Readers query while a writer appends; no torn answers."""
        base = ShapeBase(alpha=0.1)
        for image_id in range(8):
            base.add_shape(star_shaped_polygon(rng), image_id=image_id)
        sketch = star_shaped_polygon(rng)
        extra = [star_shaped_polygon(rng) for _ in range(24)]

        errors = []
        done = threading.Event()

        def writer():
            try:
                for offset, shape in enumerate(extra):
                    base.add_shape(shape, image_id=100 + offset)
            except Exception as exc:   # pragma: no cover
                errors.append(exc)
            finally:
                done.set()

        def reader():
            matcher = GeometricSimilarityMatcher(base)
            try:
                while not done.is_set():
                    matches, _ = matcher.query(sketch, k=3)
                    for match in matches:
                        assert match.shape_id in base.shapes
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + \
            [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        # Final answers equal a base rebuilt from scratch.
        rebuilt = ShapeBase(alpha=0.1)
        for sid, shape in base.shapes.items():
            rebuilt.add_shape(shape, image_id=base.shape_image[sid],
                              shape_id=sid)
        got, _ = GeometricSimilarityMatcher(base).query(sketch, k=5)
        want, _ = GeometricSimilarityMatcher(rebuilt).query(sketch, k=5)
        assert [(m.shape_id, m.distance) for m in got] == \
            [(m.shape_id, m.distance) for m in want]


class TestProcessModeStreaming:
    @pytest.mark.parametrize("execution", ["thread", "process"])
    def test_no_fold_thread_where_no_index_lives(self, rng, execution):
        """A streaming service starts no thread of its own in either
        mode: in process mode the parent's shards build no index, and
        in thread mode each append folds the tail it carries past the
        threshold, so no tail is left overgrown and quiesce finds
        nothing to fold.  Ingest and the ingest snapshot still work."""
        before = set(threading.enumerate())
        base = ShapeBase(alpha=0.1)
        for image_id in range(4):
            base.add_shape(star_shaped_polygon(rng), image_id=image_id)
        config = ServiceConfig(num_shards=1, workers=1, cache_capacity=0,
                               streaming=True, execution=execution,
                               processes=1)
        with RetrievalService.from_base(base, config) as service:
            assert set(threading.enumerate()) <= before
            for batch in range(10):
                service.ingest([star_shaped_polygon(rng)],
                               image_id=100 + batch)
            assert not any(shard.needs_fold() for shard in service.shards)
            assert service.quiesce_ingest() == 0
            snap = service.snapshot()["ingest"]
            assert snap["streaming"] is True
            assert (snap["shapes"], snap["folds"],
                    snap["batch_size"]["count"]) == (10, 0, 10)
            if execution == "process":
                assert snap["pending_delta"] == 0
            assert service.retrieve(star_shaped_polygon(rng), k=3).ok
            assert set(threading.enumerate()) <= before


class TestClosedService:
    @pytest.mark.parametrize("execution", ["thread", "process"])
    def test_closed_service_refuses_writes(self, rng, execution):
        base = ShapeBase(alpha=0.1)
        for image_id in range(4):
            base.add_shape(star_shaped_polygon(rng), image_id=image_id)
        config = ServiceConfig(num_shards=2, workers=1, cache_capacity=0,
                               streaming=True, execution=execution,
                               processes=1)
        service = RetrievalService.from_base(base, config)
        service.close()
        version, shapes = service.shards.version, service.shards.num_shapes
        with pytest.raises(RuntimeError, match="closed"):
            service.ingest([star_shaped_polygon(rng)], image_id=99)
        with pytest.raises(RuntimeError, match="closed"):
            service.remove(next(iter(base.shapes)))
        assert (service.shards.version, service.shards.num_shapes) == \
            (version, shapes)


class TestStreamingService:
    def _service(self, rng, **overrides):
        base = ShapeBase(alpha=0.1)
        for image_id in range(6):
            base.add_shape(star_shaped_polygon(rng), image_id=image_id)
        config = ServiceConfig(num_shards=2, workers=2,
                               cache_capacity=0, streaming=True,
                               **overrides)
        return RetrievalService.from_base(base, config)

    def test_backpressure_counter(self, rng):
        service = self._service(rng, max_pending=1,
                                ingest_backpressure_timeout=0.05)
        try:
            # A free admission slot lets a batch straight through.
            service.ingest([star_shaped_polygon(rng)], image_id=50)
            assert service.snapshot()["ingest"]["backpressure_waits"] == 0
            # Hold the only slot: the next batch waits out the (tiny)
            # timeout, then proceeds anyway.
            assert service.admission.try_admit()
            try:
                [new_id] = service.ingest([star_shaped_polygon(rng)],
                                          image_id=51)
            finally:
                service.admission.release()
            snap = service.snapshot()["ingest"]
            assert snap["backpressure_waits"] >= 1
            assert snap["shapes"] == 2
            assert new_id in service.shards.shard_of(new_id).base.shapes
        finally:
            service.close()

    def test_live_ingest_matches_rebuilt_static(self, rng):
        """The checkpoint contract, in miniature, thread mode."""
        service = self._service(rng)
        sketch = star_shaped_polygon(rng)
        try:
            stop = threading.Event()
            errors = []

            def reader():
                try:
                    while not stop.is_set():
                        service.retrieve(sketch, k=3)
                except Exception as exc:
                    errors.append(exc)

            thread = threading.Thread(target=reader)
            thread.start()
            for batch in range(6):
                service.ingest(
                    [star_shaped_polygon(rng) for _ in range(4)],
                    image_id=100 + batch)
            service.quiesce_ingest()
            stop.set()
            thread.join()
            assert not errors

            shapes, image_ids, shape_ids = [], [], []
            for shard in service.shards:
                for sid, shape in shard.base.shapes.items():
                    shapes.append(shape)
                    image_ids.append(shard.base.shape_image[sid])
                    shape_ids.append(sid)
            rebuilt = ShapeBase(alpha=0.1)
            rebuilt.add_shapes(shapes, image_ids=image_ids,
                               shape_ids=shape_ids)
            config = ServiceConfig(num_shards=2, workers=2,
                                   cache_capacity=0)
            with RetrievalService.from_base(rebuilt, config) as ref:
                live = service.retrieve(sketch, k=5)
                want = ref.retrieve(sketch, k=5)
            assert [(m.shape_id, m.image_id, m.distance)
                    for m in live.matches] == \
                [(m.shape_id, m.image_id, m.distance)
                 for m in want.matches]
        finally:
            service.close()
