"""Behavioural tests for the query engine (Section 5.3-5.4)."""

import numpy as np
import pytest

from repro import Shape, ShapeBase
from repro.query import Similar, contain, disjoint, overlap
from tests.conftest import served_engine, star_shaped_polygon


def jitter(shape, rng, scale=0.004):
    return Shape(shape.vertices + rng.normal(0, scale, shape.vertices.shape),
                 closed=shape.closed)


@pytest.fixture(scope="module")
def topo_base():
    """Images with controlled topology built from three prototypes.

    Prototype A: a blob; B: a star-ish blob; C: another blob.
    Image kinds:
      0-3: A contains B
      4-7: A overlaps B (B shifted to straddle A's boundary)
      8-11: A and B disjoint
      12-14: only C
    """
    rng = np.random.default_rng(2024)
    a = star_shaped_polygon(rng, 12, radius_low=0.9, radius_high=1.1)
    b = star_shaped_polygon(rng, 10, radius_low=0.9, radius_high=1.1)
    c = star_shaped_polygon(rng, 14, radius_low=0.5, radius_high=1.5)
    base = ShapeBase(alpha=0.05)
    kinds = {}
    for image_id in range(15):
        big = jitter(a, rng).scaled(10.0).translated(50, 50)
        if image_id < 4:
            small = jitter(b, rng).scaled(2.0).translated(50, 50)
            kind = "contain"
        elif image_id < 8:
            small = jitter(b, rng).scaled(4.0).translated(62, 50)
            kind = "overlap"
        elif image_id < 12:
            small = jitter(b, rng).scaled(2.0).translated(90, 90)
            kind = "disjoint"
        else:
            base.add_shape(jitter(c, rng).scaled(5.0).translated(50, 50),
                           image_id=image_id)
            kinds[image_id] = "only_c"
            continue
        base.add_shape(big, image_id=image_id)
        base.add_shape(small, image_id=image_id)
        kinds[image_id] = kind
    return base, a, b, c, kinds


@pytest.fixture(scope="module")
def topo_setup(topo_base):
    base, a, b, c, kinds = topo_base
    return served_engine(base, 0.04), a, b, c, kinds


def images_of_kind(kinds, *wanted):
    return {i for i, k in kinds.items() if k in wanted}


class TestSimilarOperator:
    def test_similar_finds_prototype_images(self, topo_setup):
        engine, a, b, c, kinds = topo_setup
        result = engine.similar(a)
        expected = images_of_kind(kinds, "contain", "overlap", "disjoint")
        assert result == expected

    def test_similar_c_only(self, topo_setup):
        engine, a, b, c, kinds = topo_setup
        assert engine.similar(c) == images_of_kind(kinds, "only_c")

    def test_shape_similar_feeds_selectivity(self, topo_setup):
        engine, a, b, c, kinds = topo_setup
        before = engine.selectivity.num_observations
        engine.service.cache.invalidate()
        engine.shape_similar(b)
        assert engine.selectivity.num_observations == before + 1

    def test_cache_hit(self, topo_setup):
        engine, a, b, c, kinds = topo_setup
        engine.shape_similar(a)
        count = engine.counters.threshold_queries
        engine.shape_similar(a)
        assert engine.counters.threshold_queries == count

    def test_filter_probes_move_no_service_cache_counter(self, topo_base):
        """A planned term filters its other literals image by image;
        those probes read the service cache but must not count as its
        hits or misses (each counted a miss before): only leaf fetches
        do, one lookup per fetched sketch."""
        base, a, b, c, kinds = topo_base
        engine = served_engine(base, 0.04)
        service = engine.service
        fetched = []
        fetch = service.similar_shapes_batch

        def counted(sketches, *args, **kwargs):
            fetched.extend(sketches)
            return fetch(sketches, *args, **kwargs)

        service.similar_shapes_batch = counted
        result = engine.execute(Similar(a) & Similar(c))
        assert result == set()
        assert engine.counters.filter_probes > 0
        assert len(fetched) == 1                   # the seed leaf only
        assert service.cache.hits + service.cache.misses == len(fetched)


class TestTopologicalOperators:
    @pytest.mark.parametrize("strategy", [1, 2])
    def test_contain(self, topo_setup, strategy):
        engine, a, b, c, kinds = topo_setup
        result = engine.topological("contain", a, b, strategy=strategy)
        assert result == images_of_kind(kinds, "contain")

    @pytest.mark.parametrize("strategy", [1, 2])
    def test_overlap(self, topo_setup, strategy):
        engine, a, b, c, kinds = topo_setup
        result = engine.topological("overlap", a, b, strategy=strategy)
        assert result == images_of_kind(kinds, "overlap")

    @pytest.mark.parametrize("strategy", [1, 2])
    def test_disjoint(self, topo_setup, strategy):
        engine, a, b, c, kinds = topo_setup
        result = engine.topological("disjoint", a, b, strategy=strategy)
        assert result == images_of_kind(kinds, "disjoint")

    def test_strategies_agree(self, topo_setup):
        engine, a, b, c, kinds = topo_setup
        for relation in ("contain", "overlap", "disjoint"):
            s1 = engine.topological(relation, a, b, strategy=1)
            s2 = engine.topological(relation, a, b, strategy=2)
            assert s1 == s2

    def test_auto_strategy(self, topo_setup):
        engine, a, b, c, kinds = topo_setup
        result = engine.topological("contain", a, b)
        assert result == images_of_kind(kinds, "contain")

    def test_invalid_strategy(self, topo_setup):
        engine, a, b, c, kinds = topo_setup
        with pytest.raises(ValueError):
            engine.topological("contain", a, b, strategy=3)

    def test_angle_filter(self, topo_setup):
        """An impossible angle constraint empties the result."""
        import math
        engine, a, b, c, kinds = topo_setup
        any_angle = engine.topological("contain", a, b, strategy=2)
        assert any_angle
        # Collect the true angles, then ask for something far from all.
        graph_angles = []
        for image_id in any_angle:
            graph = engine.graphs[image_id]
            for sid in graph.shapes:
                for edge in graph.out_edges(sid, "contain"):
                    graph_angles.append(edge.angle)
        forbidden = max(graph_angles) + 1.0
        filtered = engine.topological("contain", a, b,
                                      theta=forbidden, strategy=2)
        assert filtered < any_angle


class TestCompositeQueries:
    def test_union(self, topo_setup):
        engine, a, b, c, kinds = topo_setup
        result = engine.execute(Similar(a) | Similar(c))
        assert result == engine.similar(a) | engine.similar(c)

    def test_intersection(self, topo_setup):
        engine, a, b, c, kinds = topo_setup
        result = engine.execute(Similar(a) & Similar(b))
        assert result == engine.similar(a) & engine.similar(b)

    def test_complement(self, topo_setup):
        engine, a, b, c, kinds = topo_setup
        result = engine.execute(~Similar(c))
        assert result == engine.all_images() - engine.similar(c)

    def test_paper_example(self, topo_setup):
        """similar(Q1) & ~overlap(Q2, Q3): images with a shape similar
        to Q1 but without overlapping Q2/Q3 pairs."""
        engine, a, b, c, kinds = topo_setup
        result = engine.execute(Similar(a) & ~overlap(a, b))
        expected = engine.similar(a) - engine.topological("overlap", a, b)
        assert result == expected

    def test_nested_query(self, topo_setup):
        engine, a, b, c, kinds = topo_setup
        node = (Similar(c) | contain(a, b)) & ~disjoint(a, b)
        result = engine.execute(node)
        expected = ((engine.similar(c) |
                     engine.topological("contain", a, b)) -
                    engine.topological("disjoint", a, b))
        assert result == expected

    def test_all_negated_term(self, topo_setup):
        engine, a, b, c, kinds = topo_setup
        result = engine.execute(~Similar(a) & ~Similar(c))
        expected = engine.all_images() - engine.similar(a) - \
            engine.similar(c)
        assert result == expected


class TestValidation:
    def test_threshold_validation(self, small_base):
        with pytest.raises(ValueError):
            served_engine(small_base, similarity_threshold=-1.0)


class TestProbeWork:
    """A restricted-filter probe stays cheap — gated without a clock.

    The planner trades threshold queries for per-shape ``is_similar``
    probes; that only pays while a probe costs a small fraction of a
    threshold query (``benchmarks/bench_algebra.py`` gates the wall
    time, this gates the work behind it).
    """

    def test_one_engine_call_per_probe_one_signature_per_query(
            self, topo_base, monkeypatch):
        from repro.geometry.nearest import BoundaryDistance
        from repro.query import ReferenceExecutor
        from repro.service import service as service_module
        base, a, b, c, kinds = topo_base
        engine = served_engine(base, 0.04,
                               cache_capacity=0)  # every probe is direct
        similar = ReferenceExecutor(base, similarity_threshold=0.04) \
            .shape_similar(a)
        expected = {shape_id: shape_id in similar
                    for shape_id in base.shape_ids()}
        assert any(expected.values()) and not all(expected.values())

        calls = {"distances": 0, "signatures": 0}
        distances = BoundaryDistance.distances
        signature = service_module.sketch_signature

        def counted_distances(self, points):
            calls["distances"] += 1
            return distances(self, points)

        def counted_signature(*args, **kwargs):
            calls["signatures"] += 1
            return signature(*args, **kwargs)

        monkeypatch.setattr(BoundaryDistance, "distances", counted_distances)
        monkeypatch.setattr(service_module, "sketch_signature",
                            counted_signature)
        answers = {shape_id: engine.is_similar(shape_id, a)
                   for shape_id in base.shape_ids()}
        assert answers == expected
        assert calls["distances"] == len(expected)
        assert calls["signatures"] == 1
        assert engine.counters.as_dict()["similarity_checks"] == \
            len(expected)
