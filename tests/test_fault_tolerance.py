"""Tests for the fault-tolerance layer of repro.service.

The headline invariant ("any single-shard failure mode degrades the
answer, never the availability") is exercised with seeded fault plans:
with one shard failing 100% of the time, every query still returns a
``ServiceResult`` — never an exception — flagged ``degraded`` with the
failed shard's id, and the matches equal the unsharded matcher
restricted to the surviving shards.  Around that sit unit tests for
the circuit-breaker state machine (injected clock, no sleeping), the
deterministic fault plan (same seed → same schedule), per-attempt
timeouts, hash-tier salvage, lifecycle hardening (idempotent close,
post-close errors, admission double-release, immediate deadlines) and
ingest validation.
"""

import threading

import numpy as np
import pytest

from repro import GeometricSimilarityMatcher, Shape, ShapeBase
from repro.imaging import generate_workload, make_query_set
from repro.service import (BreakerConfig, CircuitBreaker,
                           CorruptShardAnswer, Deadline, FaultError,
                           FaultPlan, FaultSpec, FaultyShard,
                           RetrievalService, ServiceConfig, ShardSet,
                           merge_topk, shard_for)
from repro.ann import AnnConfig
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN
from repro.service.faults import ALL_OPS, ANN_OPS, MATCHER_OPS


@pytest.fixture(scope="module")
def corpus():
    """Seeded workload + populated base shared by the module."""
    rng = np.random.default_rng(424242)
    workload = generate_workload(14, rng, shapes_per_image=3.0,
                                 noise=0.008, num_prototypes=6)
    base = ShapeBase(alpha=0.05)
    for image in workload.images:
        for shape in image.shapes:
            base.add_shape(shape, image_id=image.image_id)
    queries = [q for q, _ in make_query_set(
        workload, 5, np.random.default_rng(17), noise=0.008)]
    return base, queries


def ranked(matches):
    """Deterministic comparison form: (shape id, rounded distance)."""
    return sorted((m.shape_id, round(m.distance, 9)) for m in matches)


NUM_SHARDS = 3


def total_failure_plan(shard, kind="exception", ops=ALL_OPS, **kw):
    """A plan where ``shard`` fails every faultable call."""
    return FaultPlan([FaultSpec(shard, kind, probability=1.0, ops=ops,
                                **kw)], seed=0)


def surviving_base(base, broken_shard, num_shards=NUM_SHARDS):
    """The corpus restricted to the shards that still answer."""
    ids = [sid for sid in base.shape_ids()
           if shard_for(sid, num_shards) != broken_shard]
    return base.subset(ids)


# ----------------------------------------------------------------------
# Circuit breaker state machine (injected clock — no sleeping)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def make(self, **kw):
        clock = FakeClock()
        config = BreakerConfig(**{"window": 4, "failure_threshold": 0.5,
                                  "min_volume": 2, "cooldown": 10.0,
                                  **kw})
        return CircuitBreaker(config, clock=clock), clock

    def test_starts_closed_and_allows(self):
        breaker, _ = self.make()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_opens_at_failure_threshold(self):
        breaker, _ = self.make()
        breaker.record_failure()
        assert breaker.state == CLOSED        # below min_volume
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.opened_count == 1

    def test_successes_keep_it_closed(self):
        breaker, _ = self.make()
        for _ in range(10):
            breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()              # window [T,T,T,F] → 50%?
        # window=4 keeps the last 4 outcomes: [T, T, F, F] → rate 0.5
        assert breaker.state == OPEN

    def test_half_open_after_cooldown_then_close_on_success(self):
        breaker, clock = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(9.9)
        assert not breaker.allow()            # cooldown not elapsed
        clock.advance(0.2)
        assert breaker.allow()                # the half-open probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()            # only one probe admitted
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker, clock = self.make()
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opened_count == 2
        assert not breaker.allow()            # new cooldown started
        clock.advance(10.1)
        assert breaker.allow()

    def test_stragglers_ignored_while_open(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        breaker.record_success()              # late result from before
        assert breaker.state == OPEN

    def test_snapshot_and_state_code(self):
        breaker, _ = self.make()
        assert breaker.state_code() == 0.0
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == CLOSED and snap["failure_rate"] == 1.0
        breaker.record_failure()
        assert breaker.state_code() == 2.0
        assert breaker.snapshot()["opened_count"] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(window=0)
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0.0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown=-1)

    def test_concurrent_half_open_probes_admit_exactly_one(self):
        """Many threads racing allow() on a cooled-down breaker: one
        wins the half-open probe, the losers fast-fail.  The HTTP
        balancer reuses this path to re-admit a recovering replica
        without stampeding it."""
        breaker, clock = self.make(half_open_probes=1)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(10.1)                   # cooldown elapsed

        admitted = []
        barrier = threading.Barrier(16)

        def prober():
            barrier.wait()
            if breaker.allow():
                admitted.append(threading.get_ident())

        threads = [threading.Thread(target=prober) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 1
        assert breaker.state == HALF_OPEN
        # The losers did not consume probe slots: the winner's outcome
        # alone decides the next state.
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_concurrent_probe_budget_respected_with_multiple_slots(self):
        """half_open_probes=3 under a 32-thread race admits exactly 3."""
        breaker, clock = self.make(half_open_probes=3)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.1)

        admitted = []
        lock = threading.Lock()
        barrier = threading.Barrier(32)

        def prober():
            barrier.wait()
            if breaker.allow():
                with lock:
                    admitted.append(1)

        threads = [threading.Thread(target=prober) for _ in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 3
        assert breaker.state == HALF_OPEN


# ----------------------------------------------------------------------
# Fault plan: determinism, replay, spec validation
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        specs = [FaultSpec(0, "exception", probability=0.3),
                 FaultSpec(1, "latency", probability=0.4, latency=0.01)]
        a = FaultPlan(specs, seed=99)
        b = FaultPlan(specs, seed=99)
        decisions_a = [[a.decide(s, "query_batch") for _ in range(50)]
                       for s in (0, 1)]
        decisions_b = [[b.decide(s, "query_batch") for _ in range(50)]
                       for s in (0, 1)]
        assert decisions_a == decisions_b
        assert a.counts() == b.counts()
        assert a.total_injected > 0

    def test_replay_resets_schedule(self):
        plan = FaultPlan([FaultSpec(0, "exception", probability=0.5)],
                         seed=3)
        first = [plan.decide(0, "query_batch") for _ in range(30)]
        fresh = plan.replay()
        assert [fresh.decide(0, "query_batch") for _ in range(30)] == first

    def test_shard_streams_independent_of_interleaving(self):
        specs = [FaultSpec(0, "exception", probability=0.5),
                 FaultSpec(1, "exception", probability=0.5)]
        a, b = FaultPlan(specs, seed=5), FaultPlan(specs, seed=5)
        seq_a = [a.decide(0, "query_batch") for _ in range(20)]
        # Interleave shard 1 calls between shard 0 calls on plan b.
        seq_b = []
        for _ in range(20):
            b.decide(1, "query_batch")
            seq_b.append(b.decide(0, "query_batch"))
        assert seq_a == seq_b

    def test_ops_filter(self):
        plan = total_failure_plan(0, ops=MATCHER_OPS)
        assert plan.decide(0, "query_batch") is not None
        assert plan.decide(0, "hash_query") is None

    def test_unfaulted_shard_untouched(self):
        plan = total_failure_plan(1)
        assert all(plan.decide(0, "query_batch") is None for _ in range(10))

    def test_default_plan_reproducible(self):
        a = FaultPlan.default(7, 4)
        b = FaultPlan.default(7, 4)
        assert a.specs == b.specs and a.seed == b.seed

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(0, "meteor")
        with pytest.raises(ValueError):
            FaultSpec(0, "exception", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(0, "exception", ops=("q",))

    def test_faulty_shard_delegates(self, corpus):
        base, _ = corpus
        shard_set = ShardSet.from_base(base, num_shards=NUM_SHARDS)
        shard = shard_set.shards[0]
        proxy = FaultyShard(shard, total_failure_plan(1))  # other shard
        assert proxy.index == shard.index
        assert proxy.num_shapes == shard.num_shapes
        sketch = next(iter(base.shapes.values()))
        assert ranked(proxy.query_batch([sketch], 2)[0][0]) == \
            ranked(shard.query_batch([sketch], 2)[0][0])

    def test_faulty_shard_raises_on_exception_fault(self, corpus):
        base, _ = corpus
        shard_set = ShardSet.from_base(base, num_shards=NUM_SHARDS)
        proxy = FaultyShard(shard_set.shards[0], total_failure_plan(0))
        sketch = next(iter(base.shapes.values()))
        with pytest.raises(FaultError):
            proxy.query_batch([sketch], 1)


# ----------------------------------------------------------------------
# The chaos invariant: failure degrades the answer, not availability
# ----------------------------------------------------------------------
class TestChaosInvariant:
    @pytest.mark.parametrize("kind", ["exception", "corrupt",
                                      "wrong_shard"])
    def test_total_shard_failure_degrades_exactly(self, corpus, kind):
        """One shard failing 100% (matcher *and* hash tier): every
        query answers ok-or-degraded, never raises, and the matches
        equal the unsharded matcher over the surviving shards."""
        base, queries = corpus
        broken = 1
        plan = total_failure_plan(broken, kind=kind, ops=ALL_OPS)
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=NUM_SHARDS, workers=2, cache_capacity=0,
            retry_attempts=1, retry_seed=0, fault_plan=plan,
            breaker=None))
        reference = GeometricSimilarityMatcher(
            surviving_base(base, broken), beta=0.25)
        try:
            for sketch in queries:
                result = service.retrieve(sketch, k=3)
                assert result.status in ("ok", "degraded")
                assert result.partial
                assert result.failed_shards == [broken]
                expected, _ = reference.query(sketch, k=3)
                assert ranked(result.matches) == ranked(expected)
        finally:
            service.close()

    def test_batch_path_upholds_the_invariant(self, corpus):
        base, queries = corpus
        broken = 1
        plan = total_failure_plan(broken, ops=ALL_OPS)
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=NUM_SHARDS, workers=2, cache_capacity=0,
            retry_attempts=1, retry_seed=0, fault_plan=plan,
            breaker=None))
        reference = GeometricSimilarityMatcher(
            surviving_base(base, broken), beta=0.25)
        try:
            results = service.retrieve_batch(queries, k=3)
            assert len(results) == len(queries)
            for sketch, result in zip(queries, results):
                assert result.status in ("ok", "degraded")
                assert result.failed_shards == [broken]
                expected, _ = reference.query(sketch, k=3)
                assert ranked(result.matches) == ranked(expected)
        finally:
            service.close()

    def test_latency_fault_with_attempt_timeout(self, corpus):
        """A shard stuck past the per-attempt budget is dropped, not
        waited on forever."""
        base, queries = corpus
        broken = 0
        plan = total_failure_plan(broken, kind="latency", ops=ALL_OPS,
                                  latency=1.0)
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=NUM_SHARDS, workers=2, cache_capacity=0,
            retry_attempts=1, retry_seed=0, attempt_timeout=0.2,
            fault_plan=plan, breaker=None))
        try:
            result = service.retrieve(queries[0], k=3)
            assert result.status == "degraded"
            assert broken in result.failed_shards
        finally:
            service.close()

    def test_matcher_fault_salvaged_from_hash_tier(self, corpus):
        """With only the matcher broken, the failed shard's slice is
        answered from its (healthy) hashing tier: querying an exact
        copy of one of that shard's shapes still finds it."""
        base, _ = corpus
        broken = 1
        owned = [sid for sid in base.shape_ids()
                 if shard_for(sid, NUM_SHARDS) == broken]
        assert owned, "seeded corpus must populate the broken shard"
        plan = total_failure_plan(broken, ops=MATCHER_OPS)
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=NUM_SHARDS, workers=2, cache_capacity=0,
            retry_attempts=1, retry_seed=0, fault_plan=plan,
            breaker=None))
        try:
            sketch = base.shapes[owned[0]]
            result = service.retrieve(sketch, k=base.num_shapes)
            assert result.status == "degraded"
            assert any(m.shape_id == owned[0] for m in result.matches)
            salvage = service.metrics.counter("shards.hash_salvage")
            assert salvage.value > 0
        finally:
            service.close()

    def test_retries_recover_transient_faults(self, corpus):
        """A fault rate well below 1 with retries enabled: queries
        should overwhelmingly succeed undegraded, and the retry
        counter should show the recovery happening."""
        base, queries = corpus
        plan = FaultPlan([FaultSpec(0, "exception", probability=0.5)],
                         seed=21)
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=NUM_SHARDS, workers=1, cache_capacity=0,
            retry_attempts=4, retry_backoff=0.0, retry_jitter=0.0,
            retry_seed=0, fault_plan=plan, breaker=None))
        try:
            for sketch in queries * 3:
                result = service.retrieve(sketch, k=2)
                assert result.status in ("ok", "degraded")
            assert service.metrics.counter("shards.retries").value > 0
        finally:
            service.close()

    def test_breaker_opens_under_sustained_failure(self, corpus):
        base, queries = corpus
        plan = total_failure_plan(1, ops=ALL_OPS)
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=NUM_SHARDS, workers=1, cache_capacity=0,
            retry_attempts=1, retry_seed=0, fault_plan=plan,
            breaker=BreakerConfig(window=4, failure_threshold=0.5,
                                  min_volume=2, cooldown=60.0)))
        try:
            for sketch in queries * 2:
                result = service.retrieve(sketch, k=2)
                assert result.status == "degraded"
            skipped = service.metrics.counter("shards.breaker_skipped")
            assert skipped.value > 0
            snap = service.snapshot()
            assert snap["breakers"]["1"]["state"] == "open"
            assert snap["breakers"]["0"]["state"] == "closed"
            assert snap["rates"]["degraded_ratio"] == 1.0
        finally:
            service.close()

    def test_chaos_replay_is_deterministic(self, corpus):
        """The same plan seed through the service (single worker, no
        cache) produces identical statuses and answers."""
        base, queries = corpus
        plan = FaultPlan.default(7, NUM_SHARDS)

        def run():
            service = RetrievalService.from_base(base, ServiceConfig(
                num_shards=NUM_SHARDS, workers=1, cache_capacity=0,
                retry_attempts=1, retry_seed=0,
                fault_plan=plan.replay(), breaker=None))
            try:
                return [(r.status, tuple(r.failed_shards),
                         tuple(ranked(r.matches)))
                        for r in (service.retrieve(q, k=2)
                                  for q in queries * 2)]
            finally:
                service.close()

        assert run() == run()

    def test_healthy_service_unaffected_by_machinery(self, corpus):
        """No fault plan: the resilient path returns exactly what the
        unsharded matcher does (the original exactness invariant)."""
        base, queries = corpus
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=NUM_SHARDS, workers=2, cache_capacity=0))
        reference = GeometricSimilarityMatcher(base, beta=0.25)
        try:
            for sketch in queries:
                result = service.retrieve(sketch, k=3)
                assert result.status == "ok" and not result.partial
                expected, _ = reference.query(sketch, k=3)
                assert ranked(result.matches) == ranked(expected)
        finally:
            service.close()


    def test_similar_leaf_survives_a_haunted_shard(self, corpus):
        """The algebra leaf under a failing shard: the union over the
        surviving shards, flagged partial, counted, and never cached."""
        base, queries = corpus
        broken = 1
        plan = total_failure_plan(broken, ops=MATCHER_OPS)
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=NUM_SHARDS, workers=2, cache_capacity=16,
            retry_attempts=1, retry_seed=0, fault_plan=plan,
            breaker=None))
        reference = GeometricSimilarityMatcher(
            surviving_base(base, broken), beta=0.25)
        try:
            expected, _ = reference.query_threshold(queries[0], 0.05)
            assert expected, "seeded corpus must leave survivors to find"
            for _ in range(2):       # the repeat must recompute
                leaf = service.similar_shapes_batch([queries[0]],
                                                    threshold=0.05)[0]
                assert leaf.shape_ids == {m.shape_id for m in expected}
                assert leaf.failed_shards == [broken]
                assert leaf.partial and not leaf.cached
            degraded = service.metrics.counter("algebra.leaf_degraded")
            assert degraded.value == 2
        finally:
            service.close()

    def test_every_answered_sketch_is_recorded_alike(self, corpus):
        """A coalesced follower of a degraded leader is served — and
        counted as — a degraded answer too."""
        base, queries = corpus
        plan = total_failure_plan(1, ops=ALL_OPS)
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=NUM_SHARDS, workers=2, cache_capacity=16,
            retry_attempts=1, retry_seed=0, fault_plan=plan,
            breaker=None))
        try:
            results = service.retrieve_batch([queries[0], queries[0]], k=2)
            assert [r.status for r in results] == ["degraded"] * 2
            assert results[1].cached and not results[0].cached
            counters = service.snapshot()["counters"]
            assert counters["queries.served"] == \
                counters["queries.total"] - counters.get("queries.shed", 0)
            assert counters["queries.coalesced"] == 1
            assert counters["queries.degraded"] == 2
        finally:
            service.close()


# ----------------------------------------------------------------------
# ANN-tier faults degrade to exact (or hash) scoring, never fail
# ----------------------------------------------------------------------
class TestAnnFaultDegradation:
    def make_service(self, base, plan):
        return RetrievalService.from_base(base, ServiceConfig(
            num_shards=NUM_SHARDS, workers=2, cache_capacity=0,
            retry_attempts=1, retry_seed=0, fault_plan=plan,
            breaker=None, ann=AnnConfig(tables=8, band_width=2),
            ann_mode="always"))

    def test_ann_fault_never_fails_the_query(self, corpus):
        """The ANN index of one shard failing 100%: every query still
        answers (the broken shard's slice is salvaged from a healthier
        tier), and the salvage counters show which tier paid."""
        base, queries = corpus
        broken = 1
        plan = total_failure_plan(broken, ops=ANN_OPS)
        service = self.make_service(base, plan)
        try:
            for sketch in queries:
                result = service.retrieve(sketch, k=3)
                assert result.status in ("ok", "degraded")
                assert result.failed_shards == [broken]
                assert result.matches
            salvaged = (
                service.metrics.counter("shards.ann_exact_salvage").value
                + service.metrics.counter("shards.hash_salvage").value)
            assert salvaged > 0
        finally:
            service.close()

    def test_ann_fault_salvage_prefers_the_exact_tier(self, corpus):
        """With only the ANN ops haunted, the failed shard's slice is
        answered by its (healthy) exact matcher: an exact copy of one
        of that shard's shapes is still found."""
        base, _ = corpus
        broken = 1
        owned = [sid for sid in base.shape_ids()
                 if shard_for(sid, NUM_SHARDS) == broken]
        assert owned, "seeded corpus must populate the broken shard"
        plan = total_failure_plan(broken, ops=ANN_OPS)
        service = self.make_service(base, plan)
        try:
            sketch = base.shapes[owned[0]]
            result = service.retrieve(sketch, k=base.num_shapes)
            assert result.status == "degraded"
            assert any(m.shape_id == owned[0] for m in result.matches)
            exact = service.metrics.counter("shards.ann_exact_salvage")
            assert exact.value > 0
        finally:
            service.close()


    def test_exact_salvage_is_handed_the_survivors_distances(self, corpus):
        """The broken shard's exact salvage gets the k best distances
        the surviving ANN shards answered with as priors: the merged
        answer is what a salvage without priors gives, and the salvage
        scores no more copies than it would without them."""
        base, queries = corpus
        broken, k = 1, 3
        plan = total_failure_plan(broken, ops=ANN_OPS)
        service = self.make_service(base, plan)
        calls = []

        def recorded(view):
            original = view.query_batch

            def query_batch(sketches, k, abort=None, priors=None):
                answer = original(sketches, k, abort=abort, priors=priors)
                calls.append((priors, answer[0][1]))
                return answer
            view.query_batch = query_batch
            return view

        views = service._shard_views
        service._shard_views = lambda: [
            recorded(view) if view.index == broken else view
            for view in views()]
        try:
            shards = service.shards.shards
            for sketch in queries:
                calls.clear()
                result = service.retrieve(sketch, k=k)
                assert result.failed_shards == [broken]
                survivors = [shard.ann_query_batch([sketch], k)[0][0]
                             for shard in shards if shard.index != broken]
                alone, alone_stats = \
                    shards[broken].query_batch([sketch], k)[0]
                assert [(m.shape_id, m.distance)
                        for m in result.matches] == \
                    [(m.shape_id, m.distance)
                     for m in merge_topk(survivors + [alone], k)]
                (priors, stats), = calls
                assert priors == [sorted(m.distance for matches in survivors
                                         for m in matches)[:k]]
                assert stats.candidates_evaluated <= \
                    alone_stats.candidates_evaluated
        finally:
            service.close()


# ----------------------------------------------------------------------
# Corrupted-answer validation
# ----------------------------------------------------------------------
class TestAnswerValidation:
    def test_nan_distance_rejected(self, corpus):
        base, queries = corpus
        shard_set = ShardSet.from_base(base, num_shards=NUM_SHARDS)
        shard = shard_set.shards[0]
        proxy = FaultyShard(shard, total_failure_plan(0, kind="corrupt"))
        matches, _ = proxy.query_batch([queries[0]], 3)[0]
        with pytest.raises(CorruptShardAnswer):
            RetrievalService._validate_matches(shard, matches)

    def test_foreign_id_rejected(self, corpus):
        base, queries = corpus
        shard_set = ShardSet.from_base(base, num_shards=NUM_SHARDS)
        shard = shard_set.shards[0]
        proxy = FaultyShard(shard,
                            total_failure_plan(0, kind="wrong_shard"))
        matches, _ = proxy.query_batch([queries[0]], 3)[0]
        with pytest.raises(CorruptShardAnswer):
            RetrievalService._validate_matches(shard, matches)

    def test_honest_answer_passes(self, corpus):
        base, queries = corpus
        shard_set = ShardSet.from_base(base, num_shards=NUM_SHARDS)
        shard = shard_set.shards[0]
        matches, _ = shard.query_batch([queries[0]], 3)[0]
        RetrievalService._validate_matches(shard, matches)


class TestQueryValidation:
    def test_malformed_k_raises_before_any_shard_call(self, corpus):
        """A bad ``k`` is the caller's error, not the shards': it must
        not be counted as shard failures and open healthy breakers."""
        base, queries = corpus
        with RetrievalService.from_base(base, ServiceConfig(
                num_shards=2, workers=2, cache_capacity=0)) as service:
            for bad_k in (0, 0, 0, 0, -1, 1.5, "3", None):
                with pytest.raises(ValueError):
                    service.retrieve_batch([queries[0]], k=bad_k)
                with pytest.raises(ValueError):
                    service.retrieve(queries[0], k=bad_k)
            counters = service.snapshot()["counters"]
            assert counters.get("shards.failures", 0) == 0
            assert counters.get("queries.total", 0) == 0
            honest = service.retrieve(queries[0], k=1)
            assert honest.status == "ok" and honest.failed_shards == []
            assert all(breaker["state"] == "closed" for breaker
                       in service.snapshot()["breakers"].values())


# ----------------------------------------------------------------------
# Lifecycle hardening
# ----------------------------------------------------------------------
class TestLifecycle:
    def make_service(self, corpus):
        base, _ = corpus
        return RetrievalService.from_base(base, ServiceConfig(
            num_shards=2, workers=2, cache_capacity=0))

    def test_close_is_idempotent(self, corpus):
        service = self.make_service(corpus)
        service.close()
        service.close()                       # second close is a no-op

    def test_retrieve_after_close_raises(self, corpus):
        base, queries = corpus
        service = self.make_service(corpus)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.retrieve(queries[0])

    def test_retrieve_batch_after_close_raises(self, corpus):
        base, queries = corpus
        service = self.make_service(corpus)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.retrieve_batch(queries[:2])

    def test_admission_double_release_rejected(self):
        from repro.service import AdmissionQueue
        queue = AdmissionQueue(max_pending=2)
        assert queue.try_admit()
        queue.release()
        with pytest.raises(RuntimeError, match="release"):
            queue.release()
        assert queue.pending == 0             # counter never underflows

    def test_deadline_zero_expires_immediately(self):
        clock_value = [500.0]
        deadline = Deadline(0, clock=lambda: clock_value[0])
        # Same-instant check: no clock advance between birth and poll.
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_deadline_positive_respects_clock(self):
        clock_value = [500.0]
        deadline = Deadline(1.0, clock=lambda: clock_value[0])
        assert not deadline.expired()
        clock_value[0] += 1.0
        assert deadline.expired()


# ----------------------------------------------------------------------
# Ingest validation
# ----------------------------------------------------------------------
class TestIngestValidation:
    def good_triangle(self):
        return Shape(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]))

    def test_nan_rejected_by_base(self):
        base = ShapeBase()
        bad = Shape(np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="NaN"):
            base.add_shape(bad)
        assert base.num_shapes == 0

    def test_inf_rejected_by_base(self):
        base = ShapeBase()
        bad = Shape(np.array([[0.0, 0.0], [np.inf, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="NaN or infinite"):
            base.add_shape(bad)

    def test_degenerate_rejected_by_base(self):
        base = ShapeBase()
        bad = Shape(np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0],
                              [0.0, 0.0]]))
        with pytest.raises(ValueError, match="3 distinct"):
            base.add_shape(bad)

    def test_good_shape_accepted(self):
        base = ShapeBase()
        base.add_shape(self.good_triangle())
        assert base.num_shapes == 1

    def test_shard_set_rejects_without_torn_state(self):
        shard_set = ShardSet(num_shards=2)
        shard_set.add_shape(self.good_triangle())
        version = shard_set.version
        bad = Shape(np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            shard_set.add_shape(bad)
        assert shard_set.version == version   # no version bump
        assert shard_set.num_shapes == 1

    def test_service_ingest_rejects(self, corpus):
        base, _ = corpus
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=2, workers=1))
        try:
            bad = Shape(np.array([[0.0, 0.0], [np.inf, 1.0],
                                  [1.0, 1.0]]))
            with pytest.raises(ValueError):
                service.ingest([bad])
        finally:
            service.close()
