"""Unit tests for epsilon-envelopes and their triangle covers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Shape
from repro.geometry.envelope import (EpsilonEnvelope, band_cover_triangles,
                                     difference_mask)
from repro.geometry.nearest import BoundaryDistance
from repro.geometry.predicates import points_in_triangle


class TestEpsilonEnvelope:
    def test_zero_epsilon_is_boundary(self, square):
        env = EpsilonEnvelope(square, 0.0)
        assert env.contains_point((0.5, 0.0))
        assert not env.contains_point((0.5, 0.5))

    def test_contains_band_points(self, square):
        env = EpsilonEnvelope(square, 0.2)
        assert env.contains_point((0.5, -0.1))      # outside, within band
        assert env.contains_point((0.1, 0.1))       # inside, near corner
        assert not env.contains_point((0.5, 0.5))   # deep interior
        assert not env.contains_point((2.0, 2.0))   # far outside

    def test_rejects_negative_epsilon(self, square):
        with pytest.raises(ValueError):
            EpsilonEnvelope(square, -0.1)

    def test_contains_vectorized(self, square, rng):
        env = EpsilonEnvelope(square, 0.15)
        points = rng.uniform(-1, 2, (100, 2))
        mask = env.contains(points)
        for p, inside in zip(points, mask):
            assert inside == env.contains_point(p)

    def test_empty_points(self, square):
        assert EpsilonEnvelope(square, 0.1).contains(
            np.zeros((0, 2))).shape == (0,)

    def test_area_estimate(self, square):
        env = EpsilonEnvelope(square, 0.1)
        assert env.area_estimate() == pytest.approx(2 * 0.1 * 4.0)

    @given(st.floats(0.01, 0.5), st.floats(0.01, 0.5))
    @settings(max_examples=30)
    def test_monotone_in_epsilon(self, e1, e2):
        square = Shape.rectangle(0, 0, 1, 1)
        lo, hi = min(e1, e2), max(e1, e2)
        rng = np.random.default_rng(0)
        points = rng.uniform(-1, 2, (50, 2))
        inner = EpsilonEnvelope(square, lo).contains(points)
        outer = EpsilonEnvelope(square, hi).contains(points)
        assert (outer | ~inner).all()      # inner implies outer


class TestBandCover:
    def test_cover_contains_band(self, shape_factory, rng):
        """Every point in the band lies in at least one cover triangle."""
        shape = shape_factory(10)
        eps_in, eps_out = 0.05, 0.15
        triangles = band_cover_triangles(shape, eps_in, eps_out)
        engine = BoundaryDistance(shape)
        points = rng.uniform(-2, 2, (400, 2))
        distances = engine.distances(points)
        in_band = (distances >= eps_in) & (distances <= eps_out)
        for point, banded in zip(points, in_band):
            if not banded:
                continue
            covered = any(
                points_in_triangle(point.reshape(1, 2), t[0], t[1], t[2])[0]
                for t in triangles)
            assert covered, f"band point {point} missed by the cover"

    def test_triangle_count_linear_in_edges(self, square):
        triangles = band_cover_triangles(square, 0.0, 0.1, cap_sectors=8)
        assert 0 < len(triangles) <= \
            4 * square.num_edges + 8 * square.num_vertices

    def test_zero_outer_returns_nothing(self, square):
        assert len(band_cover_triangles(square, 0.0, 0.0)) == 0

    def test_rejects_inverted_band(self, square):
        with pytest.raises(ValueError):
            band_cover_triangles(square, 0.2, 0.1)

    def test_open_polyline_cover(self, open_polyline, rng):
        triangles = band_cover_triangles(open_polyline, 0.0, 0.1)
        engine = BoundaryDistance(open_polyline)
        points = rng.uniform(-0.5, 3.5, (200, 2))
        distances = engine.distances(points)
        for point, dist in zip(points, distances):
            if dist <= 0.1:
                assert any(points_in_triangle(point.reshape(1, 2),
                                              t[0], t[1], t[2])[0]
                           for t in triangles)


# ----------------------------------------------------------------------
# Normal-cone cover: the contract on every kind of turn
# ----------------------------------------------------------------------
SHAPE_KINDS = ("convex", "reflex", "near-collinear", "spike", "short-edge",
               "open", "open-spike")


def shape_of_kind(kind: str, seed: int) -> Shape:
    """A seeded shape exercising one kind of vertex turn."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(4, 12))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, count)) + \
        np.linspace(0.0, 1e-4, count)
    radii = np.ones(count) if kind == "convex" else \
        rng.uniform(0.4, 1.5, count)
    ring = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    if kind in ("convex", "reflex"):
        return Shape(ring)
    if kind == "open":
        return Shape(ring, closed=False)
    a, b = ring[0], ring[1]
    along = (b - a) / np.hypot(*(b - a))
    across = np.array([-along[1], along[0]])
    middle = 0.5 * (a + b)
    if kind == "near-collinear":      # a vertex (almost) on the edge a-b
        bump = float(rng.choice([0.0, 1e-12, -1e-9, 1e-6]))
        extra = [middle + bump * across]
    elif kind == "short-edge":        # edges far shorter than any band
        step = float(rng.choice([1e-6, 1e-5, 1e-4]))
        extra = [middle, middle + step * across,
                 middle + step * (along + across)]
    else:                             # out and (almost exactly) back
        gap = float(rng.choice([0.0, 1e-9, 1e-5]))
        extra = [middle, middle + rng.uniform(0.3, 2.0) * across,
                 middle + gap * along]
    points = np.concatenate([ring[:1], extra, ring[1:]])
    return Shape(points, closed=kind != "open-spike")


def uncovered_band_points(shape: Shape, eps_in: float, eps_out: float,
                          cap_sectors: int, seed: int):
    """``(missed, sampled)`` band points, sampled around the boundary
    and, more densely, around every vertex."""
    rng = np.random.default_rng(seed)
    triangles = band_cover_triangles(shape, eps_in, eps_out, cap_sectors)
    assert triangles.shape[1:] == (3, 2) and triangles.dtype == np.float64
    assert len(triangles) <= \
        4 * shape.num_edges + cap_sectors * shape.num_vertices
    starts, ends = shape.edges()
    t = rng.uniform(0.0, 1.0, (len(starts), 12, 1))
    anchors = np.concatenate([
        (starts[:, None, :] + t * (ends - starts)[:, None, :]).reshape(-1, 2),
        np.repeat(shape.vertices, 40, axis=0)])
    angle = rng.uniform(0.0, 2.0 * np.pi, len(anchors))
    reach = rng.uniform(eps_in, eps_out, len(anchors))
    points = anchors + reach[:, None] * np.column_stack([np.cos(angle),
                                                          np.sin(angle)])
    distances = BoundaryDistance(shape).distances(points)
    points = points[(distances >= eps_in) & (distances <= eps_out)]
    covered = np.zeros(len(points), dtype=bool)
    for a, b, c in triangles:
        covered |= points_in_triangle(points, a, b, c)
    return points[~covered], len(points)


class TestNormalConeCover:
    @pytest.mark.parametrize("kind", SHAPE_KINDS)
    @pytest.mark.parametrize("width", [1e-4, 1e-3, 1e-2, 0.1, 0.5])
    def test_seeded_sweep(self, kind, width):
        sampled = 0
        for seed in range(6):
            shape = shape_of_kind(kind, seed)
            for inner in (0.0, 0.6 * width, width):
                missed, count = uncovered_band_points(shape, inner, width,
                                                      8, seed)
                assert len(missed) == 0, (kind, seed, inner, missed[:3])
                sampled += count
        assert sampled > 0

    @given(st.sampled_from(SHAPE_KINDS), st.integers(0, 10_000),
           st.floats(-4.0, np.log10(0.5)), st.floats(0.0, 1.0),
           st.sampled_from([3, 4, 8, 16]))
    @settings(max_examples=60, deadline=None)
    def test_property(self, kind, seed, log_width, inner_fraction,
                      cap_sectors):
        width = 10.0 ** log_width
        missed, _ = uncovered_band_points(
            shape_of_kind(kind, seed), inner_fraction * width, width,
            cap_sectors, seed)
        assert len(missed) == 0

    def test_fewer_triangles_than_full_disks(self, shape_factory):
        shape = shape_factory(12)
        assert len(band_cover_triangles(shape, 0.0, 0.1)) < \
            4 * shape.num_edges + 8 * shape.num_vertices

    def test_rejects_too_few_sectors(self, square):
        with pytest.raises(ValueError):
            band_cover_triangles(square, 0.0, 0.1, cap_sectors=2)


class TestDifferenceMask:
    def test_band_semantics(self, square, rng):
        points = rng.uniform(-1, 2, (200, 2))
        mask = difference_mask(square, 0.05, 0.2, points)
        distances = BoundaryDistance(square).distances(points)
        # Compare away from the exact thresholds.
        for dist, inside in zip(distances, mask):
            if abs(dist - 0.05) < 1e-6 or abs(dist - 0.2) < 1e-6:
                continue
            assert inside == (0.05 < dist <= 0.2)

    def test_rejects_inverted(self, square):
        with pytest.raises(ValueError):
            difference_mask(square, 0.3, 0.1, np.zeros((1, 2)))

    def test_empty_input(self, square):
        assert difference_mask(square, 0.0, 0.1,
                               np.zeros((0, 2))).shape == (0,)

    def test_disjoint_bands_partition(self, square, rng):
        """Consecutive difference masks never overlap."""
        points = rng.uniform(-1, 2, (300, 2))
        m1 = difference_mask(square, 0.0, 0.1, points)
        m2 = difference_mask(square, 0.1, 0.25, points)
        assert not (m1 & m2).any()
