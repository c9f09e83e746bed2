"""Unit tests for image relation graphs and topological relations."""

import math

import pytest

from repro import Shape
from repro.query.graph import (ANY_ANGLE, CONTAIN, DISJOINT, OVERLAP,
                               ImageGraph, angle_matches, diameter_angle,
                               diameter_vector, relation_between)


class TestRelationBetween:
    def test_contain(self):
        big = Shape.rectangle(0, 0, 10, 10)
        small = Shape.rectangle(2, 2, 4, 4)
        assert relation_between(big, small) == CONTAIN
        assert relation_between(small, big) == "contained_by"

    def test_overlap(self):
        a = Shape.rectangle(0, 0, 4, 4)
        b = Shape.rectangle(2, 2, 6, 6)
        assert relation_between(a, b) == OVERLAP
        assert relation_between(b, a) == OVERLAP

    def test_disjoint(self):
        a = Shape.rectangle(0, 0, 1, 1)
        b = Shape.rectangle(5, 5, 6, 6)
        assert relation_between(a, b) == DISJOINT

    def test_tangent_containment(self):
        """A shape touching its container from inside is contained."""
        big = Shape.rectangle(0, 0, 10, 10)
        touching = Shape.rectangle(0, 2, 4, 4)     # shares the x=0 wall
        assert relation_between(big, touching) == CONTAIN

    def test_open_polyline_cannot_contain(self):
        line = Shape([(0, 0), (10, 0), (10, 10)], closed=False)
        small = Shape.rectangle(2, 2, 3, 3)
        assert relation_between(line, small) in (OVERLAP, DISJOINT)

    def test_polyline_in_polygon(self):
        big = Shape.rectangle(0, 0, 10, 10)
        line = Shape([(1, 1), (2, 3), (4, 2)], closed=False)
        assert relation_between(big, line) == CONTAIN

    def test_crossing_polyline_overlaps(self):
        big = Shape.rectangle(0, 0, 4, 4)
        line = Shape([(-1, 2), (6, 2)], closed=False)
        assert relation_between(big, line) == OVERLAP


class TestDiameterAngle:
    def test_vector_canonical_direction(self):
        shape = Shape([(0, 0), (-5, 0), (-2, 1)])
        vector = diameter_vector(shape)
        assert vector[0] > 0       # canonical: positive x

    def test_angle_between_rotated_copies(self):
        shape = Shape([(0, 0), (4, 0), (2, 1)])
        rotated = shape.rotated(0.5)
        angle = diameter_angle(shape, rotated)
        assert abs(angle) == pytest.approx(0.5, abs=1e-6)

    def test_angle_zero_same_shape(self, triangle):
        assert diameter_angle(triangle, triangle) == pytest.approx(0.0)


class TestAngleMatches:
    def test_any(self):
        assert angle_matches(1.23, ANY_ANGLE, 0.01)
        assert angle_matches(None, ANY_ANGLE, 0.01)

    def test_within_tolerance(self):
        assert angle_matches(0.5, 0.45, 0.1)
        assert not angle_matches(0.5, 0.2, 0.1)

    def test_missing_angle(self):
        assert not angle_matches(None, 0.5, 0.1)

    def test_wraparound(self):
        assert angle_matches(math.pi - 0.01, -math.pi + 0.01, 0.05)
        assert angle_matches(0.0, 2 * math.pi, 0.01)


class TestImageGraph:
    @pytest.fixture
    def graph(self):
        g = ImageGraph(0)
        g.add_shape(1, Shape.rectangle(0, 0, 10, 10))   # container
        g.add_shape(2, Shape.rectangle(2, 2, 4, 4))     # inside 1
        g.add_shape(3, Shape.rectangle(8, 8, 12, 12))   # overlaps 1
        g.add_shape(4, Shape.rectangle(20, 20, 21, 21))  # disjoint
        return g

    def test_contain_edge(self, graph):
        label, angle = graph.relation(1, 2)
        assert label == CONTAIN
        assert angle is not None

    def test_contained_by_view(self, graph):
        label, _ = graph.relation(2, 1)
        assert label == "contained_by"

    def test_overlap_edges_both_directions(self, graph):
        assert graph.relation(1, 3)[0] == OVERLAP
        assert graph.relation(3, 1)[0] == OVERLAP

    def test_overlap_angles_negated(self, graph):
        _, forward = graph.relation(1, 3)
        _, backward = graph.relation(3, 1)
        assert forward == pytest.approx(-backward)

    def test_disjoint_no_edge(self, graph):
        assert graph.relation(1, 4) == (DISJOINT, None)

    def test_disjoint_pairs(self, graph):
        pairs = set(graph.disjoint_pairs())
        assert (1, 4) in pairs
        assert (2, 4) in pairs
        assert (1, 2) not in pairs

    def test_out_edges_filtered(self, graph):
        contains = graph.out_edges(1, CONTAIN)
        assert [e.target for e in contains] == [2]
        assert graph.out_edges(4) == []

    def test_in_edges(self, graph):
        incoming = graph.in_edges(2, CONTAIN)
        assert [e.source for e in incoming] == [1]

    def test_duplicate_shape_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_shape(1, Shape.rectangle(0, 0, 1, 1))

    def test_len_and_edges(self, graph):
        assert len(graph) == 4
        # contain(1->2) + overlap(1<->3): 3 directed edges
        assert graph.num_edges == 3


class TestBatchConstruction:
    """The bulk path must agree with per-shape construction exactly."""

    def _random_members(self, rng, count=6):
        from repro.imaging.synthesis import (place_randomly,
                                             prototype_pool)
        protos = prototype_pool(rng, count=5)
        return {sid: place_randomly(protos[sid % len(protos)], rng,
                                    canvas=20.0, scale_range=(1.0, 6.0))
                for sid in range(count)}

    def _edge_set(self, graph):
        return {(e.source, e.target, e.label,
                 None if e.angle is None else round(e.angle, 12))
                for edges in graph._out.values() for e in edges}

    def test_vectorized_contact_matches_scalar(self):
        import numpy as np
        from repro.query.graph import (_boundaries_intersect_scalar,
                                       boundaries_contact)
        rng = np.random.default_rng(31)
        members = list(self._random_members(rng, count=10).values())
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                sa, ea = a.edges()
                sb, eb = b.edges()
                assert boundaries_contact(sa, ea, sb, eb) == \
                    _boundaries_intersect_scalar(a, b)

    def test_from_shapes_equals_incremental(self):
        import numpy as np
        from repro.query.graph import ImageGraph
        rng = np.random.default_rng(32)
        for trial in range(5):
            members = self._random_members(rng)
            bulk = ImageGraph.from_shapes(trial, list(members.items()))
            incremental = ImageGraph(trial)
            for sid, shape in members.items():
                incremental.add_shape(sid, shape)
            assert self._edge_set(bulk) == self._edge_set(incremental)
            for s1 in members:
                for s2 in members:
                    if s1 != s2:
                        assert bulk.relation(s1, s2) == \
                            incremental.relation(s1, s2)

    def test_graphs_memoized_per_version(self):
        """A second engine over the same service builds zero new graphs."""
        import numpy as np
        from repro.query import GRAPH_BUILD_STATS
        from repro.query.workload import algebra_base
        from tests.conftest import served_engine
        base, _ = algebra_base(8, np.random.default_rng(33))
        service = served_engine(base).service
        GRAPH_BUILD_STATS.reset()
        first = service.query_engine().graphs
        built_once = GRAPH_BUILD_STATS.graphs_built
        assert built_once == len(first) > 0
        second = service.query_engine().graphs
        assert GRAPH_BUILD_STATS.graphs_built == built_once
        assert second is first
        # Mutation bumps the version: graphs rebuild exactly once more.
        service.ingest([Shape.rectangle(0, 0, 1, 1)], image_id=999)
        rebuilt = service.query_engine().graphs
        assert GRAPH_BUILD_STATS.graphs_built > built_once
        assert {(g.image_id, frozenset(g.shapes))
                for g in first.values()} <= \
               {(g.image_id, frozenset(g.shapes))
                for g in rebuilt.values()}
