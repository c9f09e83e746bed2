"""Thorough tests of the theta (signed diameter angle) predicates."""

import math

import numpy as np
import pytest

from repro import Shape, ShapeBase
from repro.query import contain, overlap
from repro.query.graph import diameter_angle
from tests.conftest import served_engine


def elongated(angle: float, length: float = 10.0,
              width: float = 2.0, cx: float = 0.0,
              cy: float = 0.0) -> Shape:
    """A thin rectangle whose diameter points along ``angle``."""
    base = Shape.rectangle(-length / 2, -width / 2, length / 2, width / 2)
    return base.rotated(angle).translated(cx, cy)


class TestDiameterAngleGeometry:
    def test_angle_between_elongated_shapes(self):
        a = elongated(0.0)
        b = elongated(0.6)
        measured = abs(diameter_angle(a, b))
        # The rectangle's diameter is its diagonal, so the *relative*
        # angle between two rotated copies is still exactly 0.6.
        assert measured == pytest.approx(0.6, abs=0.02)

    def test_angle_canonicalization(self):
        """Angles are measured between canonically-oriented diameters,
        so a 180-degree flip reads as 0."""
        a = elongated(0.0)
        b = elongated(math.pi)
        assert abs(diameter_angle(a, b)) == pytest.approx(0.0, abs=1e-6)

    def test_angle_antisymmetric(self):
        a = elongated(0.1)
        b = elongated(0.8)
        assert diameter_angle(a, b) == pytest.approx(-diameter_angle(b, a))


class TestThetaPredicates:
    @pytest.fixture(scope="class")
    def engine(self):
        """Images where a small bar sits inside a big bar at controlled
        relative angles: 0, ~pi/4, ~pi/2."""
        base = ShapeBase(alpha=0.05)
        rng = np.random.default_rng(3)
        angles = {0: 0.0, 1: math.pi / 4, 2: math.pi / 2 * 0.99}
        for image_id, relative in angles.items():
            big = elongated(0.3, length=30, width=20, cx=50, cy=50)
            small = elongated(0.3 + relative, length=8, width=2,
                              cx=50, cy=50)
            jitter_big = Shape(big.vertices +
                               rng.normal(0, 0.01, big.vertices.shape))
            jitter_small = Shape(small.vertices +
                                 rng.normal(0, 0.01, small.vertices.shape))
            base.add_shape(jitter_big, image_id=image_id)
            base.add_shape(jitter_small, image_id=image_id)
        engine = served_engine(base, 0.05, angle_tolerance=0.2)
        engine.big_proto = elongated(0.3, length=30, width=20)
        engine.small_proto = elongated(0.3, length=8, width=2)
        engine.angles = angles
        return engine

    def test_any_angle_gets_all(self, engine):
        result = engine.topological("contain", engine.big_proto,
                                    engine.small_proto, strategy=2)
        assert result == {0, 1, 2}

    def test_specific_angle_filters(self, engine):
        """Asking for theta ~ pi/4 keeps only the pi/4 image."""
        got = {}
        for image_id, relative in engine.angles.items():
            # Recover the recorded angle from the graph directly so the
            # test is robust to diameter-orientation conventions.
            graph = engine.graphs[image_id]
            for sid in graph.shapes:
                for edge in graph.out_edges(sid, "contain"):
                    got[image_id] = edge.angle
        target = got[1]
        result = engine.topological("contain", engine.big_proto,
                                    engine.small_proto, theta=target,
                                    strategy=2)
        assert 1 in result
        # The pi/2-apart image must be excluded (tolerance is 0.2).
        assert 2 not in result

    def test_angle_strategies_agree(self, engine):
        graph = engine.graphs[0]
        angle = None
        for sid in graph.shapes:
            for edge in graph.out_edges(sid, "contain"):
                angle = edge.angle
        s1 = engine.topological("contain", engine.big_proto,
                                engine.small_proto, theta=angle,
                                strategy=1)
        s2 = engine.topological("contain", engine.big_proto,
                                engine.small_proto, theta=angle,
                                strategy=2)
        assert s1 == s2

    def test_algebra_nodes_carry_theta(self, engine):
        node = contain(engine.big_proto, engine.small_proto, theta=0.5)
        assert node.theta == 0.5
        node = overlap(engine.big_proto, engine.small_proto)
        assert node.theta == "any"


class TestCalibration:
    def test_calibrated_epsilon_nonzero_content(self, small_base):
        from repro import GeometricSimilarityMatcher
        from repro.geometry.envelope import band_cover_triangles
        matcher = GeometricSimilarityMatcher(small_base)
        query = small_base.source_shapes[0]
        normalized = matcher.normalize_query(query)
        eps = matcher.calibrate_initial_epsilon(normalized)
        schedule = matcher.make_schedule(normalized)
        assert schedule.initial <= eps <= schedule.maximum + 1e-12
        count = sum(small_base.index.count_triangle(t[0], t[1], t[2])
                    for t in band_cover_triangles(normalized, 0.0, eps))
        assert count > 0

    def test_calibration_grows_for_sparse_base(self, rng):
        """A query far from everything forces the envelope to grow."""
        from repro import GeometricSimilarityMatcher
        from tests.conftest import star_shaped_polygon
        base = ShapeBase(alpha=0.0)
        for i in range(5):
            base.add_shape(star_shaped_polygon(rng, 8), image_id=i)
        matcher = GeometricSimilarityMatcher(base)
        # Thin sliver: its normalized envelope misses the blobby base.
        needle = Shape([(0, 0), (100, 0), (100, 0.2), (0, 0.2)])
        normalized = matcher.normalize_query(needle)
        eps = matcher.calibrate_initial_epsilon(normalized)
        schedule = matcher.make_schedule(normalized)
        assert eps >= schedule.initial
