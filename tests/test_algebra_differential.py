"""Differential + property harness for the topological query algebra.

Ground truth is :class:`repro.query.ReferenceExecutor` — scalar loops,
direct set semantics on the AST, no DNF rewrite, no planner, no cache,
no shards.  Everything the real engine does to go fast must be
invisible in the answers:

* ``planned == naive`` on every randomized composite query tree over
  seeded random bases (the seed matrix is ``REPRO_ALGEBRA_SEEDS``,
  default ``11,23,47``; ~70 trees per seed > the 200-tree floor);
* five algebra laws hold as result-set equalities (De Morgan, double
  complement, DNF equivalence, idempotence, commutativity);
* ``cached == uncached``, ``sharded == unsharded``;
* the planner's counters prove it actually reordered terms and did
  less work, rather than winning by accident;
* the subplan cache invalidates on ingest (``service.ingest`` /
  ``service.remove``);
* a leaf a failed shard left partial is cached nowhere.
"""

import os
import threading

import numpy as np
import pytest

from repro.query import QueryEngine, ReferenceExecutor, Similar, to_dnf
from repro.query.algebra import Topological, contain, disjoint, overlap, tangent
from repro.query.workload import (ALGEBRA_THRESHOLD, algebra_base,
                                  algebra_prototypes, composite_queries)
from repro.service import (FaultPlan, FaultSpec, RetrievalService,
                           ServiceConfig)
from tests.conftest import served_engine

SEEDS = tuple(int(s) for s in os.environ.get(
    "REPRO_ALGEBRA_SEEDS", "11,23,47").split(","))
#: Random trees checked per seed: 3 seeds x 70 > the 200-tree floor.
TREES_PER_SEED = int(os.environ.get("REPRO_ALGEBRA_TREES", "70"))


# ----------------------------------------------------------------------
# Randomized bases and query trees
# ----------------------------------------------------------------------
def small_base(seed, num_images=14):
    """A small skewed base (differential checks are O(naive))."""
    return algebra_base(num_images, np.random.default_rng(seed))


def random_tree(rng, protos, depth=0):
    """A random composite query tree over the prototype families."""
    names = list(protos)

    def leaf():
        from repro.imaging.synthesis import distort
        name = names[rng.integers(len(names))]
        shape = distort(protos[name], 0.008, rng)
        if rng.random() < 0.25:
            other = distort(protos[names[rng.integers(len(names))]],
                            0.008, rng)
            relation = (contain, overlap, tangent,
                        disjoint)[rng.integers(4)]
            return relation(shape, other)
        return Similar(shape)

    if depth >= 3 or rng.random() < 0.35:
        return leaf()
    roll = rng.random()
    left = random_tree(rng, protos, depth + 1)
    if roll < 0.15:
        return ~left
    right = random_tree(rng, protos, depth + 1)
    return (left & right) if roll < 0.6 else (left | right)


def make_engines(base):
    engine = served_engine(base, ALGEBRA_THRESHOLD)
    naive = ReferenceExecutor(base,
                              similarity_threshold=ALGEBRA_THRESHOLD)
    return engine, naive


# ----------------------------------------------------------------------
# Differential: planned == naive on randomized trees
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_differential_random_trees(seed):
    base, protos = small_base(seed)
    engine, naive = make_engines(base)
    rng = np.random.default_rng(seed * 1009 + 1)
    for index in range(TREES_PER_SEED):
        tree = random_tree(rng, protos)
        expected = naive.execute(tree)
        assert set(engine.execute(tree)) == expected, \
            f"tree #{index} (seed {seed}): {tree!r}"


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_workload_queries(seed):
    """The benchmark's own composite workload is differentially clean."""
    base, protos = small_base(seed, num_images=18)
    engine, naive = make_engines(base)
    for query in composite_queries(protos, 12,
                                   np.random.default_rng(seed + 5)):
        assert set(engine.execute(query)) == naive.execute(query)


# ----------------------------------------------------------------------
# Algebra laws as result-set equalities
# ----------------------------------------------------------------------
def law_operands(seed):
    base, protos = small_base(seed)
    engine, naive = make_engines(base)
    rng = np.random.default_rng(seed + 77)
    a = random_tree(rng, protos, depth=2)
    b = random_tree(rng, protos, depth=2)
    return base, engine, naive, a, b


@pytest.mark.parametrize("seed", SEEDS)
def test_law_de_morgan(seed):
    _, engine, naive, a, b = law_operands(seed)
    for engine_or_naive in (engine, naive):
        run = lambda q: set(engine_or_naive.execute(q))
        assert run(~(a | b)) == run(~a & ~b)
        assert run(~(a & b)) == run(~a | ~b)


@pytest.mark.parametrize("seed", SEEDS)
def test_law_double_complement(seed):
    _, engine, naive, a, _ = law_operands(seed)
    assert set(engine.execute(~~a)) == set(engine.execute(a))
    assert naive.execute(~~a) == naive.execute(a)


@pytest.mark.parametrize("seed", SEEDS)
def test_law_dnf_equivalence(seed):
    """Executing the DNF rewrite literal-by-literal through the naive
    executor equals executing the original tree."""
    _, engine, naive, a, b = law_operands(seed)
    query = (a | b) & ~a
    expected = naive.execute(query)
    assert set(engine.execute(query)) == expected
    universe = naive.all_images()
    rebuilt = set()
    for term in to_dnf(query):
        images = universe.copy()
        for literal in term:
            leaf = naive.execute(
                Similar(literal.operator.query_shape)
                if isinstance(literal.operator, Similar)
                else literal.operator)
            images &= (universe - leaf) if literal.negated else leaf
        rebuilt |= images
    assert rebuilt == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_law_idempotence(seed):
    _, engine, naive, a, _ = law_operands(seed)
    assert set(engine.execute(a & a)) == set(engine.execute(a))
    assert set(engine.execute(a | a)) == set(engine.execute(a))
    assert naive.execute(a & a) == naive.execute(a)


@pytest.mark.parametrize("seed", SEEDS)
def test_law_commutativity(seed):
    _, engine, naive, a, b = law_operands(seed)
    assert set(engine.execute(a & b)) == set(engine.execute(b & a))
    assert set(engine.execute(a | b)) == set(engine.execute(b | a))
    assert naive.execute(a & b) == naive.execute(b & a)


# ----------------------------------------------------------------------
# Cached == uncached, sharded == unsharded
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_cached_equals_uncached(seed):
    base, protos = small_base(seed)
    cold = served_engine(base, ALGEBRA_THRESHOLD, cache_capacity=0)
    warm = served_engine(base, ALGEBRA_THRESHOLD, cache_capacity=256)
    queries = composite_queries(protos, 8,
                                np.random.default_rng(seed + 9))
    for query in queries + queries:          # second pass hits the cache
        assert set(warm.execute(query)) == set(cold.execute(query))
    assert warm.plan_cache.hits > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_equals_unsharded(seed):
    """A 3-shard service, a 1-shard service and the referee agree."""
    base, protos = small_base(seed)
    engine, naive = make_engines(base)
    with RetrievalService.from_base(
            base, ServiceConfig(num_shards=3, workers=1,
                                match_threshold=ALGEBRA_THRESHOLD)
            ) as service:
        sharded = service.query_engine()
        assert sharded.similarity_threshold == ALGEBRA_THRESHOLD
        for query in composite_queries(protos, 10,
                                       np.random.default_rng(seed + 3)):
            expected = naive.execute(query)
            assert set(sharded.execute(query)) == expected
            assert set(engine.execute(query)) == expected
        assert service.snapshot()["algebra"]["leaf_queries"] > 0


# ----------------------------------------------------------------------
# The planner provably reorders and does less work
# ----------------------------------------------------------------------
def test_counters_prove_reordering():
    base, protos = small_base(101, num_images=24)
    rng = np.random.default_rng(55)
    from repro.imaging.synthesis import distort
    # Written order puts the common literal first; the planner must
    # seed from the rarer one.
    query = (Similar(distort(protos["common_a"], 0.008, rng)) &
             Similar(distort(protos["rare"], 0.008, rng)))
    planned = served_engine(base, ALGEBRA_THRESHOLD)
    report = planned.execute_explained(query)
    assert planned.counters.seeds_reordered == 1
    assert report.terms[0].reordered

    unplanned = served_engine(base, ALGEBRA_THRESHOLD, planner=False,
                              cache_capacity=0)
    assert set(unplanned.execute(query)) == report.images
    planned_work = (planned.counters.similarity_checks
                    + planned.counters.candidate_evaluations)
    unplanned_work = (unplanned.counters.similarity_checks
                      + unplanned.counters.candidate_evaluations)
    assert planned_work < unplanned_work
    assert (planned.counters.threshold_queries
            < unplanned.counters.threshold_queries)


def test_absent_seed_skips_filters():
    """An empty seed short-circuits the whole conjunctive term."""
    base, protos = small_base(102, num_images=24)
    rng = np.random.default_rng(56)
    from repro.imaging.synthesis import distort
    query = (Similar(distort(protos["common_a"], 0.008, rng)) &
             Similar(distort(protos["common_b"], 0.008, rng)) &
             Similar(distort(protos["absent"], 0.008, rng)))
    engine = served_engine(base, ALGEBRA_THRESHOLD)
    assert engine.execute(query) == set()
    # Only the absent literal was materialized; the commons were never
    # touched (no filter probes, one threshold query).
    assert engine.counters.threshold_queries == 1
    assert engine.counters.filter_probes == 0


# ----------------------------------------------------------------------
# Thread safety: concurrent composite queries
# ----------------------------------------------------------------------
def test_concurrent_queries_counters_add_up():
    """Two composite queries on two threads: totals equal the sum of
    solo runs (cache off so every run does full work)."""
    base, protos = small_base(103, num_images=16)
    rng = np.random.default_rng(57)
    queries = composite_queries(protos, 2, rng)

    def run_solo(query):
        engine = served_engine(base, ALGEBRA_THRESHOLD, cache_capacity=0)
        result = set(engine.execute(query))
        return result, engine.counters.as_dict()

    solo = [run_solo(query) for query in queries]
    expected_totals = {
        key: sum(counters[key] for _, counters in solo)
        for key in solo[0][1]}

    shared = served_engine(base, ALGEBRA_THRESHOLD, cache_capacity=0)
    shared.graphs                                   # build once, warm
    results = {}
    errors = []

    def worker(index, query):
        try:
            results[index] = set(shared.execute(query))
        except Exception as exc:                    # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i, q))
               for i, q in enumerate(queries)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for index, (expected, _) in enumerate(solo):
        assert results[index] == expected
    assert shared.counters.as_dict() == expected_totals


# ----------------------------------------------------------------------
# Ingest invalidation: planned == naive immediately after mutation
# ----------------------------------------------------------------------
def test_service_cache_invalidates_on_ingest_and_remove():
    base, protos = small_base(105, num_images=12)
    rng = np.random.default_rng(59)
    from repro.imaging.synthesis import distort, place_randomly
    query = Similar(distort(protos["rare"], 0.008, rng))
    with RetrievalService.from_base(
            base, ServiceConfig(num_shards=2, workers=1,
                                match_threshold=ALGEBRA_THRESHOLD)
            ) as service:
        engine = service.query_engine()
        before = set(engine.execute(query))

        new_image = 7001
        addition = place_randomly(distort(protos["rare"], 0.008, rng),
                                  rng)
        new_ids = service.ingest([addition], image_id=new_image)
        after_add = set(engine.execute(query))
        assert after_add == before | {new_image}

        service.remove(new_ids[0])
        assert set(engine.execute(query)) == before
        with pytest.raises(KeyError):
            service.remove(new_ids[0])


# ----------------------------------------------------------------------
# A failed shard is never cached
# ----------------------------------------------------------------------
def test_a_partial_leaf_is_cached_nowhere():
    """Shard 0 fails every threshold call, then heals with no version
    bump: the leaf, operator, term and plan caches kept nothing from
    the faulted answers, and the faulted report names shard 0."""
    base, protos = algebra_base(18, np.random.default_rng(11))
    query_shape = protos["common_a"]
    naive = ReferenceExecutor(base, similarity_threshold=ALGEBRA_THRESHOLD)
    full_ids = naive.shape_similar(query_shape)
    full_images = naive.execute(Similar(query_shape))
    plan = FaultPlan([FaultSpec(0, "exception",
                                ops=("query_threshold_batch",))])
    service = RetrievalService.from_base(base, ServiceConfig(
        num_shards=2, workers=1, retry_attempts=1, breaker=None,
        fault_plan=plan))
    engine = QueryEngine(service, ALGEBRA_THRESHOLD)

    faulted_ids = engine.shape_similar(query_shape)
    assert faulted_ids < full_ids
    faulted = engine.execute_explained(Similar(query_shape))
    assert faulted.failed_shards == [0]
    assert faulted.images < full_images
    assert engine.execute(Similar(query_shape)) == faulted.images

    version = service.shards.version
    service.config.fault_plan = None
    assert service.shards.version == version
    assert engine.shape_similar(query_shape) == full_ids
    assert engine.execute(Similar(query_shape)) == full_images
    healed = engine.execute_explained(Similar(query_shape))
    assert healed.images == full_images and healed.failed_shards == []
