"""The exact fan-out hands shards each other's distances: same answers.

``RetrievalService._fan_out`` visits the shards of the exact top-k op
in doubling waves and hands each wave, per sketch, the k smallest exact
distances the validated answers so far contain.  Two things are checked
here, neither with a clock:

* **differential** — for every shard count, ``k`` (also larger than a
  shard, and larger than the corpus), execution tier and entry point,
  the answer is the 1-shard service's and the referee's
  (``ReferenceExecutor.top_k``), bit for bit; the merged work counters are the same in
  thread and process execution and from one run to the next (the wave a
  shard is in depends on the shard count alone);
* **resilience** — a shard that raises, lies or times out contributes
  nothing to what later waves are handed, the answer lists it as
  failed, and the healthy shards' slice is still exact; an expired
  deadline stops the remaining waves the way it stops any shard call.
"""

import numpy as np
import pytest

from repro import GeometricSimilarityMatcher, ShapeBase
from repro.imaging import generate_workload, make_query_set
from repro.imaging.synthesis import random_blob
from repro.query import ReferenceExecutor
from repro.service import (Deadline, FaultPlan, FaultSpec,
                           RetrievalService, ServiceConfig, shard_for)

SHARD_COUNTS = (1, 2, 3, 4, 8)
KS = (1, 3, 10)
COUNTERS = ("iterations", "epsilons", "triangles_queried", "range_queries",
            "vertices_reported", "vertices_processed",
            "candidates_evaluated", "prior_stops", "guaranteed",
            "exhausted")


@pytest.fixture(scope="module")
def corpora():
    """``{name: (base, sketches)}``: 40-odd shapes, and 7 of them (so 8
    shards leave some empty and k = 10 exceeds the corpus)."""
    rng = np.random.default_rng(20261003)
    workload = generate_workload(14, rng, shapes_per_image=3.0,
                                 noise=0.008, num_prototypes=5)
    base = ShapeBase(alpha=0.05)
    for image in workload.images:
        for shape in image.shapes:
            base.add_shape(shape, image_id=image.image_id)
    sketches = [sketch for sketch, _ in
                make_query_set(workload, 3, rng, noise=0.008)]
    sketches.append(random_blob(rng))                     # no close match
    return {"full": (base, sketches),
            "tiny": (base.subset(base.shape_ids()[:7]), sketches[:2])}


def pairs(matches):
    return [(m.shape_id, m.distance) for m in matches]


def counters(result):
    return [getattr(result.stats, name) for name in COUNTERS]


# ----------------------------------------------------------------------
# Differential: any shard count, either tier == one shard == referee
# ----------------------------------------------------------------------
#: ``match_threshold``: never hand a far answer off to the hash tier.
CONFIG = dict(cache_capacity=0, match_threshold=1.0)


@pytest.fixture(scope="module")
def unsharded(corpora):
    """``{(name, k): one ServiceResult per sketch}`` from a one-shard
    service, each checked against the referee's top-k."""
    expected = {}
    for name, (base, sketches) in corpora.items():
        referee = ReferenceExecutor(base)
        with RetrievalService.from_base(base, ServiceConfig(
                num_shards=1, **CONFIG)) as single:
            for k in KS:
                expected[name, k] = [single.retrieve(sketch, k=k)
                                     for sketch in sketches]
                for sketch, reference in zip(sketches, expected[name, k]):
                    assert pairs(reference.matches) == \
                        pairs(referee.top_k(sketch, k))
    return expected


class TestShardedEqualsUnsharded:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("name", ["full", "tiny"])
    def test_answers_and_work_counters(self, corpora, unsharded, name,
                                       num_shards):
        base, sketches = corpora[name]
        batch = sketches + sketches[:2]                   # duplicates
        with RetrievalService.from_base(base, ServiceConfig(
                num_shards=num_shards, **CONFIG)) as threads, \
             RetrievalService.from_base(base, ServiceConfig(
                 num_shards=num_shards, execution="process", processes=2,
                 **CONFIG)) as procs:
            for k in KS:
                runs = []
                for service in (threads, threads, procs):
                    scalar = [service.retrieve(sketch, k=k)
                              for sketch in sketches]
                    batched = service.retrieve_batch(batch, k=k)
                    for got in (scalar, batched[:len(sketches)]):
                        for result, reference in zip(got,
                                                     unsharded[name, k]):
                            assert (result.status, result.method) == \
                                ("ok", "envelope")
                            assert pairs(result.matches) == \
                                pairs(reference.matches)
                    for copy, original in zip(batched[len(sketches):],
                                              batched):
                        assert pairs(copy.matches) == \
                            pairs(original.matches)
                    runs.append([counters(r) for r in scalar + batched])
                assert runs[0] == runs[1] == runs[2]


# ----------------------------------------------------------------------
# Resilience: only validated survivors feed the later waves
# ----------------------------------------------------------------------
class RecordingShard:
    """Notes the ``priors`` each exact call is handed, then delegates."""

    def __init__(self, shard, log, after=None):
        self._shard = shard
        self._log = log
        self._after = after

    def __getattr__(self, name):
        return getattr(self._shard, name)

    def query_batch(self, sketches, k, abort=None, priors=None):
        self._log.append((self._shard.index,
                          [list(values) for values in priors]))
        answer = self._shard.query_batch(sketches, k, abort=abort,
                                         priors=priors)
        if self._after is not None:
            self._after(self._shard.index)
        return answer


def recorded(service, after=None):
    """Wrap the service's shard views in recorders; returns the log."""
    log = []
    views = service._shard_views
    service._shard_views = lambda: [RecordingShard(view, log, after)
                                    for view in views()]
    return log


def k_smallest(results_by_shard, offset, k):
    return sorted(m.distance for matches in results_by_shard
                  for m in matches[offset])[:k]


class TestOnlySurvivorsFeedLaterWaves:
    K = 3

    def healthy_answers(self, base, sketches):
        """Per shard index, per sketch, the shard's own exact top-k."""
        answers = {}
        for index, part in enumerate(base.split(4)):
            matcher = GeometricSimilarityMatcher(part)
            answers[index] = [matcher.query(sketch, k=10 ** 6)[0][:self.K]
                              for sketch in sketches]
        return answers

    def test_healthy_waves_hand_on_the_k_best_so_far(self, corpora):
        base, sketches = corpora["full"]
        own = self.healthy_answers(base, sketches)
        with RetrievalService.from_base(base, ServiceConfig(
                num_shards=4, cache_capacity=0)) as service:
            log = recorded(service)
            service.retrieve_batch(sketches, k=self.K)
        handed = dict(log)
        assert sorted(handed) == [0, 1, 2, 3]
        for offset in range(len(sketches)):
            assert handed[0][offset] == []
            assert handed[1][offset] == k_smallest([own[0]], offset,
                                                   self.K)
            both = k_smallest([own[0], own[1]], offset, self.K)
            assert handed[2][offset] == handed[3][offset] == both

    @pytest.mark.parametrize("kind, extra", [
        ("exception", {}), ("corrupt", {}), ("wrong_shard", {}),
        ("latency", {"attempt_timeout": 0.3})])
    def test_failed_leader_contributes_nothing(self, corpora, kind, extra):
        """Shard 0 is wave 1.  Whatever way it fails, wave 2 starts from
        nothing and wave 3 from shard 1's distances alone."""
        base, sketches = corpora["full"]
        own = self.healthy_answers(base, sketches)
        plan = FaultPlan([FaultSpec(0, kind, probability=1.0,
                                    latency=5.0)], seed=5)
        with RetrievalService.from_base(base, ServiceConfig(
                num_shards=4, cache_capacity=0, match_threshold=1.0,
                retry_attempts=2, retry_backoff=0.0, retry_seed=0,
                breaker=None, shard_hash_fallback=False, fault_plan=plan,
                **extra)) as service:
            log = recorded(service)
            results = service.retrieve_batch(sketches, k=self.K)
        # Two attempts for the leader (the retry is handed what the
        # first attempt was: nothing), one for everybody else.
        assert [index for index, _ in log[:3]] == [0, 0, 1]
        assert sorted(index for index, _ in log[3:]) == [2, 3]
        handed = dict(log)
        survivors = base.subset(
            [sid for sid in base.shape_ids() if shard_for(sid, 4) != 0])
        reference = GeometricSimilarityMatcher(survivors)
        for offset, (sketch, result) in enumerate(zip(sketches, results)):
            assert all(values[offset] == [] for index, values in log
                       if index in (0, 1))
            assert handed[2][offset] == handed[3][offset] == \
                k_smallest([own[1]], offset, self.K)
            assert result.status == "degraded"
            assert result.failed_shards == [0]
            assert pairs(result.matches) == \
                pairs(reference.query(sketch, k=self.K)[0])

    def test_expired_deadline_stops_the_remaining_waves(self, corpora):
        """The budget runs out once wave 2 has answered: wave 3's shards
        are still called — and abort at their first poll, as any shard
        call under an expired deadline does."""
        base, sketches = corpora["full"]
        now = [0.0]
        budget = Deadline(10.0, clock=lambda: now[0])

        def after(index):
            if index == 1:
                now[0] = 11.0

        with RetrievalService.from_base(base, ServiceConfig(
                num_shards=4, cache_capacity=0)) as service:
            log = recorded(service, after)
            survivors, failed = service._fan_out(
                service._shard_views(), budget, "query_batch",
                sketches[:2], self.K)
        assert not failed
        assert [o.shard_index for o in survivors] == [0, 1, 2, 3]
        assert sorted(index for index, _ in log) == [0, 1, 2, 3]
        for outcome in survivors:
            for matches, stats in outcome.value:
                if outcome.shard_index < 2:
                    assert stats.guaranteed and stats.iterations > 0
                else:
                    assert stats.exhausted and stats.iterations == 0
                    assert matches == []
