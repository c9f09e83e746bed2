"""Unit tests for the boundary-distance engines."""

import numpy as np
import pytest

from repro import Shape
from repro.geometry.nearest import BoundaryDistance
from repro.geometry.primitives import point_segment_distance


class TestBoundaryDistance:
    def test_square_distances(self, square):
        engine = BoundaryDistance(square)
        assert engine.distance((0.5, 0.5)) == pytest.approx(0.5)
        assert engine.distance((0.5, -1.0)) == pytest.approx(1.0)
        assert engine.distance((0.0, 0.0)) == pytest.approx(0.0)
        assert engine.distance((2.0, 2.0)) == pytest.approx(np.sqrt(2))

    def test_open_polyline(self, open_polyline):
        engine = BoundaryDistance(open_polyline)
        # Distance past the free end is to the endpoint, not the line.
        assert engine.distance((4.0, 1.0)) == pytest.approx(1.0)

    def test_batch_matches_scalar(self, shape_factory, rng):
        shape = shape_factory(9)
        engine = BoundaryDistance(shape)
        points = rng.uniform(-2, 2, (60, 2))
        batch = engine.distances(points)
        for p, value in zip(points, batch):
            assert value == pytest.approx(engine.distance(p))

    def test_matches_bruteforce(self, shape_factory, rng):
        shape = shape_factory(7)
        engine = BoundaryDistance(shape)
        starts, ends = shape.edges()
        points = rng.uniform(-2, 2, (40, 2))
        for p in points:
            expected = min(point_segment_distance(p, a, b)
                           for a, b in zip(starts, ends))
            assert engine.distance(p) == pytest.approx(expected)
