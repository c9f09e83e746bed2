"""Tests for the repro.service subsystem.

The load-bearing invariant is *shard-merge exactness*: retrieval
through the sharded concurrent service must return the same top-k
(ids and distances) as the unsharded matcher on the same corpus.
The rest covers the serving machinery: canonical-signature caching
with invalidation-on-ingest, single-flight coalescing, deadline
degradation to the hashing tier, bounded-admission load shedding,
and the metrics registry (including buffer-pool window resets).
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro import GeometricSimilarityMatcher, Shape, ShapeBase
from repro.imaging import generate_workload, make_query_set
from repro.service import (AdmissionQueue, Deadline, MetricsRegistry,
                           QueryResultCache, RetrievalService,
                           ServiceConfig, ShardSet, merge_topk, shard_for,
                           sketch_signature)
from repro.storage import BlockDevice, BufferPool


@pytest.fixture(scope="module")
def corpus():
    """Seeded workload + populated base shared by the module."""
    rng = np.random.default_rng(90125)
    workload = generate_workload(16, rng, shapes_per_image=3.0,
                                 noise=0.008, num_prototypes=7)
    base = ShapeBase(alpha=0.05)
    for image in workload.images:
        for shape in image.shapes:
            base.add_shape(shape, image_id=image.image_id)
    queries = [q for q, _ in make_query_set(
        workload, 5, np.random.default_rng(11), noise=0.008)]
    return base, workload, queries


@pytest.fixture(scope="module")
def service(corpus):
    base, _, _ = corpus
    svc = RetrievalService.from_base(
        base, ServiceConfig(num_shards=3, workers=2))
    yield svc
    svc.close()


def ranked(matches):
    """Deterministic comparison form: (shape id, rounded distance)."""
    return sorted((m.shape_id, round(m.distance, 9)) for m in matches)


# ----------------------------------------------------------------------
# Partitioner and the ShapeBase split API
# ----------------------------------------------------------------------
class TestPartitioner:
    def test_deterministic(self):
        assert [shard_for(i, 8) for i in range(50)] == \
            [shard_for(i, 8) for i in range(50)]

    def test_in_range(self):
        assert all(0 <= shard_for(i, 5) < 5 for i in range(200))

    def test_balanced_on_sequential_ids(self):
        counts = np.bincount([shard_for(i, 4) for i in range(1000)],
                             minlength=4)
        assert counts.min() > 150        # < 40% skew from the 250 ideal

    def test_single_shard(self):
        assert all(shard_for(i, 1) == 0 for i in range(20))

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_for(3, 0)


class TestShapeBaseSplit:
    def test_split_is_disjoint_and_complete(self, corpus):
        base, _, _ = corpus
        parts = base.split(3)
        all_ids = [sid for part in parts for sid in part.shape_ids()]
        assert sorted(all_ids) == base.shape_ids()
        assert len(set(all_ids)) == len(all_ids)

    def test_subset_preserves_ids_and_images(self, corpus):
        base, _, _ = corpus
        chosen = base.shape_ids()[:4]
        sub = base.subset(chosen)
        assert sub.shape_ids() == sorted(chosen)
        for sid in chosen:
            assert sub.image_of_shape(sid) == base.image_of_shape(sid)
            assert sub.shapes[sid] == base.shapes[sid]

    def test_subset_unknown_id_rejected(self, corpus):
        base, _, _ = corpus
        with pytest.raises(KeyError):
            base.subset([10 ** 9])

    def test_iter_shapes_covers_all(self, corpus):
        base, _, _ = corpus
        triples = list(base.iter_shapes())
        assert [sid for sid, _, _ in triples] == base.shape_ids()

    def test_version_bumps_on_mutation(self):
        base = ShapeBase()
        v0 = base.version
        sid = base.add_shape(Shape.rectangle(0, 0, 2, 1), image_id=0)
        assert base.version > v0
        v1 = base.version
        base.remove_shape(sid)
        assert base.version > v1

    def test_custom_partitioner(self, corpus):
        base, _, _ = corpus
        parts = base.split(2, partitioner=lambda sid: sid)
        for part_index, part in enumerate(parts):
            assert all(sid % 2 == part_index for sid in part.shape_ids())


# ----------------------------------------------------------------------
# Shard-merge exactness (the acceptance invariant)
# ----------------------------------------------------------------------
class TestShardMergeCorrectness:
    @pytest.mark.parametrize("k", [1, 3])
    def test_sharded_topk_equals_unsharded(self, corpus, service, k):
        base, _, queries = corpus
        matcher = GeometricSimilarityMatcher(base)
        for query in queries:
            unsharded, _ = matcher.query(query, k=k)
            result = service.retrieve(query, k=k)
            assert result.ok
            assert ranked(result.matches) == ranked(unsharded)

    def test_single_shard_service_matches(self, corpus):
        base, _, queries = corpus
        matcher = GeometricSimilarityMatcher(base)
        with RetrievalService.from_base(
                base, ServiceConfig(num_shards=1, workers=1,
                                    cache_capacity=0)) as svc:
            unsharded, _ = matcher.query(queries[0], k=2)
            result = svc.retrieve(queries[0], k=2)
            assert ranked(result.matches) == ranked(unsharded)

    @pytest.mark.parametrize("deadline", [None, 30.0])
    def test_empty_shards_do_not_change_the_flags(self, corpus, deadline):
        """Two shapes over four shards leave two of them empty; an
        empty shard has nothing unseen that could beat anything, so the
        answer is as complete as the one-shard service's."""
        base, _, _ = corpus
        small = base.subset(base.shape_ids()[:2])
        sketch = small.shapes[small.shape_ids()[0]]
        answers = []
        for num_shards in (1, 4):
            with RetrievalService.from_base(small, ServiceConfig(
                    num_shards=num_shards, cache_capacity=0)) as svc:
                if num_shards == 4:
                    assert sorted(svc.shards.shape_counts())[:2] == [0, 0]
                result = svc.retrieve(sketch, k=1, deadline=deadline)
                answers.append((result.status, result.method,
                                result.degraded, result.stats.guaranteed,
                                result.stats.exhausted,
                                [(m.shape_id, m.distance)
                                 for m in result.matches]))
        assert answers[0] == answers[1]
        assert answers[0][:5] == ("ok", "envelope", False, True, False)

    def test_merge_topk_orders_by_distance(self):
        from repro.core.matcher import Match
        a = [Match(1, 0, 0.5, 0), Match(2, 0, 0.1, 1)]
        b = [Match(3, 1, 0.3, 2)]
        merged = merge_topk([a, b], 2)
        assert [m.shape_id for m in merged] == [2, 3]

    def test_shards_are_balanced(self, service):
        counts = service.shards.shape_counts()
        assert min(counts) >= 1

    def test_batch_matches_sequential(self, corpus, service):
        _, _, queries = corpus
        sequential = [service.retrieve(q, k=1) for q in queries]
        batch = service.retrieve_batch(queries, k=1)
        assert [ranked(r.matches) for r in batch] == \
            [ranked(r.matches) for r in sequential]


# ----------------------------------------------------------------------
# Cache: canonical signatures, hits, invalidation on ingest
# ----------------------------------------------------------------------
class TestAnnRungFollowsTheShards:
    def test_shards_built_without_ann_answer_exactly(self, corpus):
        """``config.ann`` asks for the ANN rung, but the shards were
        built without one: the ladder offers the exact rung instead of
        failing every shard."""
        from repro.ann import AnnConfig
        base, _, queries = corpus
        shards = ShardSet.from_base(base, num_shards=2)
        matcher = GeometricSimilarityMatcher(base)
        with RetrievalService(shards, ServiceConfig(
                ann=AnnConfig(), ann_mode="always",
                cache_capacity=0)) as svc:
            for query in queries[:3]:
                result = svc.retrieve(query, k=3)
                assert (result.status, result.method,
                        result.failed_shards) == ("ok", "envelope", [])
                assert ranked(result.matches) == \
                    ranked(matcher.query(query, k=3)[0])


class TestSignature:
    def test_similarity_invariance(self, corpus):
        _, _, queries = corpus
        sketch = queries[0]
        moved = sketch.rotated(0.83).scaled(2.5).translated(11.0, -4.0)
        assert sketch_signature(sketch) == sketch_signature(moved)

    def test_different_sketches_differ(self, corpus):
        _, _, queries = corpus
        assert sketch_signature(queries[0]) != sketch_signature(queries[1])

    def test_parameter_distinguishes(self, corpus):
        _, _, queries = corpus
        assert sketch_signature(queries[0], parameter=1) != \
            sketch_signature(queries[0], parameter=3)


class TestQueryCache:
    def test_hit_on_repeat(self, corpus):
        base, _, queries = corpus
        with RetrievalService.from_base(
                base, ServiceConfig(num_shards=2, workers=1)) as svc:
            first = svc.retrieve(queries[0], k=1)
            second = svc.retrieve(queries[0], k=1)
            assert not first.cached
            assert second.cached
            assert ranked(second.matches) == ranked(first.matches)

    def test_hit_on_transformed_sketch(self, corpus):
        base, _, queries = corpus
        with RetrievalService.from_base(
                base, ServiceConfig(num_shards=2, workers=1)) as svc:
            svc.retrieve(queries[0], k=1)
            moved = queries[0].rotated(1.2).scaled(0.5)
            assert svc.retrieve(moved, k=1).cached

    def test_invalidated_on_ingest(self, corpus, shape_factory):
        base, _, queries = corpus
        with RetrievalService.from_base(
                base, ServiceConfig(num_shards=2, workers=1)) as svc:
            svc.retrieve(queries[0], k=1)
            assert svc.retrieve(queries[0], k=1).cached
            svc.ingest([shape_factory(10)], image_id=777)
            refreshed = svc.retrieve(queries[0], k=1)
            assert not refreshed.cached
            assert svc.retrieve(queries[0], k=1).cached

    def test_ingested_shape_becomes_retrievable(self, corpus,
                                                shape_factory):
        base, _, _ = corpus
        novel = shape_factory(14)
        with RetrievalService.from_base(
                base, ServiceConfig(num_shards=2, workers=1)) as svc:
            [new_id] = svc.ingest([novel], image_id=555)
            result = svc.retrieve(novel, k=1)
            assert result.best is not None
            assert result.best.shape_id == new_id

    def test_lru_eviction(self):
        cache = QueryResultCache(capacity=2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        cache.put("c", 0, 3)
        assert cache.get("a", 0) is None
        assert cache.get("c", 0) == 3

    def test_version_mismatch_is_miss(self):
        cache = QueryResultCache(capacity=4)
        cache.put("a", 0, 1)
        assert cache.get("a", 1) is None

    def test_peek_moves_no_counter_and_no_lru_position(self):
        cache = QueryResultCache(capacity=2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        assert cache.peek("a", 0) == 1
        assert cache.peek("a", 1) is None          # stale: not served
        assert cache.peek("z", 0) is None
        assert (cache.hits, cache.misses) == (0, 0)
        cache.put("c", 0, 3)                       # "a" is still oldest
        assert cache.peek("a", 0) is None
        assert cache.peek("b", 0) == 2

    def test_zero_capacity_disables(self):
        cache = QueryResultCache(capacity=0)
        cache.put("a", 0, 1)
        assert not cache.enabled
        assert cache.get("a", 0) is None

    @pytest.mark.parametrize("entry", ["retrieve", "retrieve_batch"])
    def test_coalescing_counts(self, corpus, entry):
        """Concurrent identical queries collapse onto one computation,
        whichever entry point submits them."""
        base, _, queries = corpus
        with RetrievalService.from_base(
                base, ServiceConfig(num_shards=2, workers=4)) as svc:
            sketch = queries[2]
            barrier = threading.Barrier(3)
            results = []

            def fire():
                barrier.wait()
                if entry == "retrieve":
                    results.append(svc.retrieve(sketch, k=1))
                else:
                    results.extend(svc.retrieve_batch([sketch], k=1))

            clients = [threading.Thread(target=fire) for _ in range(3)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
            assert len(results) == 3
            answers = {tuple(ranked(r.matches)) for r in results}
            assert len(answers) == 1
            counters = svc.snapshot()["counters"]
            saved = counters.get("queries.cache_hits", 0) + \
                counters.get("queries.coalesced", 0)
            assert saved >= 1        # at least one client skipped the work

    def test_crossed_batches_coalesce_without_deadlock(self, corpus):
        """Batches that each lead keys the others need ([a, b, c], its
        rotations and their reversals, more threads than cores): a
        request releases the keys it leads before it waits on anyone
        else's, so with no deadline at all every batch still finishes,
        work is shared, and no flight is left behind."""
        base, _, queries = corpus
        trio = queries[:3]
        batches = [trio[i:] + trio[:i] for i in range(3)]
        batches += [batch[::-1] for batch in batches]
        interval = sys.getswitchinterval()
        with RetrievalService.from_base(
                base, ServiceConfig(num_shards=2, workers=4)) as svc:
            barrier = threading.Barrier(len(batches))
            answers = {}

            def fire(index):
                barrier.wait()
                answers[index] = svc.retrieve_batch(batches[index], k=1)

            clients = [threading.Thread(target=fire, args=(index,),
                                        daemon=True)
                       for index in range(len(batches))]
            sys.setswitchinterval(1e-5)
            try:
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=120.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in clients), \
                "crossed single-flight keys deadlocked"
            assert not svc._inflight
            by_sketch = {}
            for index, batch in enumerate(batches):
                for sketch, result in zip(batch, answers[index]):
                    assert result.ok
                    by_sketch.setdefault(id(sketch), set()).add(
                        tuple(ranked(result.matches)))
            assert all(len(seen) == 1 for seen in by_sketch.values())
            counters = svc.snapshot()["counters"]
            assert counters["queries.served"] == counters["queries.total"]
            assert counters.get("queries.coalesced", 0) + \
                counters.get("queries.cache_hits", 0) >= 1


# ----------------------------------------------------------------------
# Deadlines and graceful degradation
# ----------------------------------------------------------------------
class TestDeadline:
    def test_unlimited_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.bounded
        assert not deadline.expired()
        assert deadline.remaining() == float("inf")

    def test_expiry_with_fake_clock(self):
        now = {"t": 0.0}
        deadline = Deadline(5.0, clock=lambda: now["t"])
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(5.0)
        now["t"] = 5.1
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_expired_deadline_falls_back_to_hashing(self, corpus):
        base, _, queries = corpus
        with RetrievalService.from_base(
                base, ServiceConfig(num_shards=2, workers=1)) as svc:
            result = svc.retrieve(queries[0], k=1, deadline=0.0)
            assert result.ok
            assert result.degraded
            assert result.method == "hashing"
            assert result.matches            # the fallback still answers
            assert all(m.approximate for m in result.matches)

    def test_degraded_results_not_cached(self, corpus):
        base, _, queries = corpus
        with RetrievalService.from_base(
                base, ServiceConfig(num_shards=2, workers=1)) as svc:
            svc.retrieve(queries[1], k=1, deadline=0.0)
            follow_up = svc.retrieve(queries[1], k=1)
            assert not follow_up.cached
            assert follow_up.method == "envelope"

    def test_fallback_rate_counted(self, corpus):
        base, _, queries = corpus
        with RetrievalService.from_base(
                base, ServiceConfig(num_shards=2, workers=1)) as svc:
            svc.retrieve(queries[0], k=1, deadline=0.0)
            assert svc.snapshot()["rates"]["fallback_ratio"] > 0


# ----------------------------------------------------------------------
# Admission control and load shedding
# ----------------------------------------------------------------------
class TestAdmission:
    def test_queue_bounds(self):
        queue = AdmissionQueue(max_pending=2)
        assert queue.try_admit()
        assert queue.try_admit()
        assert not queue.try_admit()
        queue.release()
        assert queue.try_admit()

    def test_unbounded(self):
        queue = AdmissionQueue(None)
        assert all(queue.try_admit() for _ in range(100))

    def test_release_underflow_rejected(self):
        with pytest.raises(RuntimeError):
            AdmissionQueue(max_pending=1).release()

    def test_saturated_service_sheds(self, corpus):
        """A full admission queue sheds immediately with Overloaded."""
        base, _, queries = corpus
        with RetrievalService.from_base(
                base, ServiceConfig(num_shards=2, workers=1,
                                    max_pending=1)) as svc:
            assert svc.admission.try_admit()      # occupy the only slot
            try:
                result = svc.retrieve(queries[0], k=1)
                assert result.overloaded
                assert result.matches == []
                assert svc.snapshot()["counters"]["queries.shed"] == 1
            finally:
                svc.admission.release()
            assert svc.retrieve(queries[0], k=1).ok

    def test_batch_sheds_tail_deterministically(self, corpus):
        """Submission-time admission: a saturated pool sheds the tail.

        Two blocker tasks occupy both pool threads, so the first two
        batch entries hold their admission slots without running; the
        third entry finds the queue full at submission and is shed
        before any retrieval happens.  The gate opens only once the
        shed has been counted, which makes the ordering deterministic.
        """
        base, _, queries = corpus
        with RetrievalService.from_base(
                base, ServiceConfig(num_shards=2, workers=2,
                                    max_pending=2,
                                    cache_capacity=0)) as svc:
            gate = threading.Event()
            blockers = [svc.pool.submit(gate.wait) for _ in range(2)]

            def open_gate_after_shed():
                deadline = time.monotonic() + 10.0
                while (svc.metrics.counter("queries.shed").value < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.002)
                gate.set()

            watcher = threading.Thread(target=open_gate_after_shed)
            watcher.start()
            try:
                batch = svc.retrieve_batch(
                    [queries[0], queries[1], queries[2]], k=1)
            finally:
                gate.set()
                watcher.join()
            for blocker in blockers:
                blocker.result()
            assert [r.status for r in batch] == ["ok", "ok", "overloaded"]
            assert svc.snapshot()["counters"]["queries.shed"] == 1


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_ratio(self):
        registry = MetricsRegistry()
        registry.counter("hits").increment(3)
        registry.counter("total").increment(4)
        assert registry.counter("hits").value == 3
        assert registry.ratio("hits", "total") == pytest.approx(0.75)
        assert registry.ratio("hits", "missing") == 0.0

    def test_histogram_percentiles(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(50) == pytest.approx(50.5)
        assert histogram.percentile(99) == pytest.approx(99.01)
        assert histogram.percentile(100) == 100.0
        assert histogram.mean == pytest.approx(50.5)

    def test_histogram_decimation_keeps_percentiles_sane(self):
        histogram = MetricsRegistry().histogram("latency", max_samples=64)
        for value in range(1000):
            histogram.observe(float(value))
        assert histogram.count == 1000
        assert histogram.window_count <= 64
        assert 400 <= histogram.percentile(50) <= 600

    def test_as_dict_shape(self):
        registry = MetricsRegistry()
        registry.counter("queries").increment()
        registry.histogram("latency").observe(0.25)
        registry.gauge("depth", lambda: 7)
        snapshot = registry.as_dict()
        assert snapshot["counters"]["queries"] == 1
        assert snapshot["histograms"]["latency"]["count"] == 1
        assert snapshot["gauges"]["depth"] == 7.0

    def test_summary_exports_scrape_quantiles(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["window_count"] == 100
        assert summary["sum"] == pytest.approx(5050.0)
        assert summary["p50"] <= summary["p90"] <= summary["p95"] \
            <= summary["p99"] <= summary["max"]
        assert summary["p95"] == pytest.approx(95.05)

    def test_service_snapshot_uptime_and_version(self, service):
        snap = service.snapshot()
        assert snap["uptime_s"] >= 0.0
        assert snap["snapshot"]["version"] == service.shards.version
        # from_base has no file behind it.
        assert snap["snapshot"]["source"] is None
        assert service.ready()

    def test_reset_window_rolls_buffer_pool(self):
        device = BlockDevice()
        for _ in range(8):
            device.allocate(b"x")
        pool = BufferPool(device, capacity=4)
        registry = MetricsRegistry()
        registry.attach_buffer_pool("store", pool)
        pool.read_block(0)
        pool.read_block(0)
        before = registry.as_dict()["buffer_pools"]["store"]
        assert before["hits"] == 1 and before["misses"] == 1
        registry.reset_window()
        after = registry.as_dict()["buffer_pools"]["store"]
        assert after["hits"] == 0 and after["misses"] == 0
        # Frames survive the window roll: the next read is a hit.
        pool.read_block(0)
        assert pool.stats.hits == 1 and pool.stats.misses == 0

    def test_reset_window_clears_histograms_keeps_counts(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        histogram.observe(1.0)
        registry.counter("served").increment()
        registry.reset_window()
        assert histogram.window_count == 0
        assert histogram.count == 1
        assert registry.counter("served").value == 1


class TestBufferPoolResetStats:
    def test_reset_stats_returns_closed_window(self):
        device = BlockDevice()
        for _ in range(4):
            device.allocate(b"x")
        pool = BufferPool(device, capacity=2)
        pool.read_block(1)
        pool.read_block(1)
        closed = pool.reset_stats()
        assert closed.hits == 1 and closed.misses == 1
        assert pool.stats.accesses == 0
        assert pool.resident == 1      # frames kept, unlike reset()


# ----------------------------------------------------------------------
# Algebra leaf queries at the service tier
# ----------------------------------------------------------------------
class TestSimilarShapesBatch:
    def test_matches_unsharded_threshold_union(self, corpus, service):
        base, _, queries = corpus
        matcher = GeometricSimilarityMatcher(base)
        results = service.similar_shapes_batch(queries, threshold=0.05)
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            matches, _ = matcher.query_threshold(query, 0.05)
            assert set(result.shape_ids) == {m.shape_id for m in matches}
            assert not result.failed_shards
            assert result.candidates_evaluated >= 0

    def test_repeat_batch_hits_cache(self, corpus):
        base, _, queries = corpus
        svc = RetrievalService.from_base(
            base, ServiceConfig(num_shards=2, workers=1,
                                cache_capacity=64))
        try:
            first = svc.similar_shapes_batch(queries[:2])
            again = svc.similar_shapes_batch(queries[:2])
            for cold, warm in zip(first, again):
                assert warm.cached and not cold.cached
                assert warm.shape_ids == cold.shape_ids
            snap = svc.snapshot()["algebra"]
            assert snap["leaf_cache_hits"] >= 2
        finally:
            svc.close()

    def test_intra_batch_duplicates_coalesce(self, corpus):
        base, _, queries = corpus
        svc = RetrievalService.from_base(
            base, ServiceConfig(num_shards=2, workers=1,
                                cache_capacity=0))
        try:
            repeated = [queries[0], queries[0], queries[0]]
            results = svc.similar_shapes_batch(repeated)
            assert results[1].cached and results[2].cached
            assert results[0].shape_ids == results[1].shape_ids
        finally:
            svc.close()

    def test_remove_shape_updates_answers(self, corpus):
        base, _, queries = corpus
        svc = RetrievalService.from_base(
            base, ServiceConfig(num_shards=2, workers=1,
                                cache_capacity=16))
        try:
            result = svc.similar_shapes_batch([queries[0]],
                                              threshold=0.1)[0]
            assert result.shape_ids
            victim = min(result.shape_ids)
            svc.remove(victim)
            after = svc.similar_shapes_batch([queries[0]],
                                             threshold=0.1)[0]
            assert victim not in after.shape_ids
            assert not after.cached
            with pytest.raises(KeyError):
                svc.remove(victim)
        finally:
            svc.close()


# ----------------------------------------------------------------------
# Batch removal: one copy-on-write epoch per touched shard
# ----------------------------------------------------------------------
class TestBatchRemoval:
    def test_one_clone_per_touched_shard_and_one_version_bump(
            self, corpus, monkeypatch):
        base, _, _ = corpus
        svc = RetrievalService.from_base(
            base, ServiceConfig(num_shards=3, workers=1))
        try:
            shards = svc.shards
            victims = sorted(base.shapes)[:6]
            touched = sorted({shard_for(s, 3) for s in victims})
            owner = {id(shard.base): shard.index for shard in shards}
            cloned = []
            clone_cow = ShapeBase.clone_cow

            def counting(self):
                cloned.append(owner[id(self)])
                return clone_cow(self)
            monkeypatch.setattr(ShapeBase, "clone_cow", counting)
            version = shards.version
            svc.remove(*victims)
            assert sorted(cloned) == touched
            assert shards.version == version + 1
            assert shards.num_shapes == base.num_shapes - len(victims)
            assert not any(s in shards.shard_of(s).base.shapes
                           for s in victims)
        finally:
            svc.close()

    def test_an_unknown_id_leaves_every_shard_untouched(self, corpus):
        base, _, _ = corpus
        shards = ShardSet.from_base(base, num_shards=3)
        known = sorted(base.shapes)[:4]
        before = ([shard.base for shard in shards],
                  [shard.epoch for shard in shards], shards.version)
        with pytest.raises(KeyError):
            shards.remove_shapes(known[:2] + [10 ** 9] + known[2:])
        assert ([shard.base for shard in shards],
                [shard.epoch for shard in shards], shards.version) == before
        assert shards.num_shapes == base.num_shapes
