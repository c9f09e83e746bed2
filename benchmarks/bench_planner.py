"""Sections 5.3-5.4: topological operator strategies and planning.

The paper gives two evaluation strategies for a topological operator
(drive from the smaller similarity set and probe edges, vs. materialize
both sets and intersect image sets) and orders conjunctive-term
literals by estimated selectivity.  We measure the work counters of
both strategies on asymmetric operand selectivities and check the
planner's ordering pays off.
"""

import numpy as np
import pytest

from repro import Shape, ShapeBase
from repro.query import QueryEngine, Similar, overlap
from repro.service import RetrievalService, ServiceConfig
from .conftest import write_table


def jittered(shape, rng, scale=0.004):
    return Shape(shape.vertices + rng.normal(0, scale,
                                             shape.vertices.shape),
                 closed=shape.closed)


@pytest.fixture(scope="module")
def planner_setup():
    """A base where shape A is common/simple and B is rare/complex.

    The paper's estimator only sees V_S(Q) — simple shapes (few
    significant vertices) are predicted to match many things, complex
    ones few — so the planner can discriminate the operands exactly
    when the rare operand is also the structurally complex one, which
    is the regime Figure 10 validates.
    """
    from repro.imaging.synthesis import star_polygon
    from repro.query.selectivity import significant_vertices
    rng = np.random.default_rng(5150)
    a = Shape([(0.0, 0.0), (1.0, 0.05), (1.05, 0.95), (0.05, 1.0)])
    b = star_polygon(points=12, inner=0.55)
    # Premise of the experiment: B is the high-V_S (low-selectivity)
    # operand.
    assert significant_vertices(b) > 1.5 * significant_vertices(a)
    base = ShapeBase(alpha=0.05)
    for image_id in range(30):
        big = jittered(a, rng).scaled(10).translated(50, 50)
        base.add_shape(big, image_id=image_id)
        # A is everywhere; B overlaps it in only 5 images.
        if image_id < 5:
            small = jittered(b, rng).scaled(5).translated(57, 50)
            base.add_shape(small, image_id=image_id)
        else:
            extra = jittered(a, rng).scaled(2).translated(80, 80)
            base.add_shape(extra, image_id=image_id)
    service = RetrievalService.from_base(
        base, ServiceConfig(num_shards=1, workers=1))
    engine = QueryEngine(service, similarity_threshold=0.04)
    # Prime the selectivity model with both operands.
    engine.shape_similar(a)
    engine.shape_similar(b)
    return engine, a, b


@pytest.fixture(scope="module")
def strategy_comparison(planner_setup):
    engine, a, b = planner_setup
    results = {}
    for strategy in (1, 2):
        engine.counters.reset()
        engine.service.cache.invalidate()
        result = engine.topological("overlap", a, b, strategy=strategy)
        results[strategy] = {
            "result": result,
            "threshold_queries": engine.counters.threshold_queries,
            "similarity_checks": engine.counters.similarity_checks,
            "pairs_checked": engine.counters.pairs_checked,
        }
    rows = []
    for strategy in (1, 2):
        r = results[strategy]
        rows.append(f"strategy {strategy}: |result|={len(r['result'])}  "
                    f"threshold queries={r['threshold_queries']}  "
                    f"per-shape checks={r['similarity_checks']}  "
                    f"pair checks={r['pairs_checked']}")
    write_table("planner_strategies", [
        "Section 5.3 reproduction: operator strategies on skewed operands",
        "(operand A common, operand B rare)", ""] + rows)
    return results


def test_strategies_agree(strategy_comparison, benchmark):
    benchmark(lambda: None)
    assert strategy_comparison[1]["result"] == \
        strategy_comparison[2]["result"]


def test_strategy1_fewer_threshold_queries(strategy_comparison, benchmark):
    """Strategy 1 materializes one similarity set, strategy 2 two."""
    benchmark(lambda: None)
    assert strategy_comparison[1]["threshold_queries"] < \
        strategy_comparison[2]["threshold_queries"]


def test_planner_orders_by_selectivity(planner_setup, benchmark):
    """In `similar(B) & similar(A)` the planner must seed from B (rare)
    regardless of the syntactic order."""
    engine, a, b = planner_setup
    engine.service.cache.invalidate()
    node = Similar(a) & Similar(b)

    seeds = []
    original = engine._evaluate_operator

    def spy(op):
        seeds.append(op)
        return original(op)

    engine._evaluate_operator = spy
    try:
        result = benchmark.pedantic(engine.execute, args=(node,),
                                    rounds=1, iterations=1)
    finally:
        engine._evaluate_operator = original
    assert seeds, "no operator evaluated"
    first = seeds[0]
    assert isinstance(first, Similar)
    assert first.query_shape == b
    expected = engine.similar(a) & engine.similar(b)
    assert result == expected


def test_composite_query_cost(planner_setup, benchmark):
    engine, a, b = planner_setup
    node = (Similar(a) | Similar(b)) & ~overlap(a, b)
    result = benchmark.pedantic(engine.execute, args=(node,),
                                rounds=1, iterations=1)
    assert isinstance(result, set)
