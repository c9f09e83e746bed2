"""Unit tests for repro.geometry.primitives."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.primitives import (CHUNK_ROWS, EPSILON, as_points,
                                       bounding_box, cross,
                                       distance, dot, interior_angle,
                                       point_segment_distance,
                                       points_segment_distance,
                                       points_segments_distance,
                                       polygon_signed_area, signed_angle,
                                       squared_distance)

finite = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


class TestAsPoints:
    def test_list_of_tuples(self):
        pts = as_points([(0, 0), (1, 2)])
        assert pts.shape == (2, 2)
        assert pts.dtype == np.float64

    def test_single_pair(self):
        assert as_points((3.0, 4.0)).shape == (1, 2)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            as_points([(1, 2, 3)])

    def test_passthrough_array(self):
        a = np.zeros((4, 2))
        assert as_points(a).shape == (4, 2)


class TestDistances:
    def test_distance(self):
        assert distance((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_squared_distance(self):
        assert squared_distance((1, 1), (4, 5)) == pytest.approx(25.0)

    @given(finite, finite, finite, finite)
    def test_symmetry(self, x1, y1, x2, y2):
        assert distance((x1, y1), (x2, y2)) == \
            pytest.approx(distance((x2, y2), (x1, y1)))


class TestCrossDot:
    def test_left_turn_positive(self):
        assert cross((0, 0), (1, 0), (1, 1)) > 0

    def test_right_turn_negative(self):
        assert cross((0, 0), (1, 0), (1, -1)) < 0

    def test_collinear_zero(self):
        assert cross((0, 0), (1, 1), (2, 2)) == pytest.approx(0.0)

    def test_dot_perpendicular(self):
        assert dot((0, 0), (1, 0), (0, 1)) == pytest.approx(0.0)


class TestAngles:
    def test_right_angle(self):
        assert interior_angle((1, 0), (0, 0), (0, 1)) == \
            pytest.approx(math.pi / 2)

    def test_straight_line(self):
        assert interior_angle((-1, 0), (0, 0), (1, 0)) == \
            pytest.approx(math.pi)

    def test_degenerate_neighbour(self):
        assert interior_angle((0, 0), (0, 0), (1, 1)) == 0.0

    def test_signed_angle_quarter_turn(self):
        assert signed_angle((1, 0), (0, 1)) == pytest.approx(math.pi / 2)

    def test_signed_angle_negative(self):
        assert signed_angle((0, 1), (1, 0)) == pytest.approx(-math.pi / 2)

    def test_signed_angle_half_turn_is_positive_pi(self):
        assert signed_angle((1, 0), (-1, 0)) == pytest.approx(math.pi)

    @given(st.floats(0.01, 6.2), st.floats(0.01, 6.2))
    def test_signed_angle_range(self, a, b):
        u = (math.cos(a), math.sin(a))
        v = (math.cos(b), math.sin(b))
        angle = signed_angle(u, v)
        assert -math.pi < angle <= math.pi


class TestPointSegmentDistance:
    def test_projection_inside(self):
        assert point_segment_distance((1, 1), (0, 0), (2, 0)) == \
            pytest.approx(1.0)

    def test_clamped_to_endpoint(self):
        assert point_segment_distance((-3, 4), (0, 0), (2, 0)) == \
            pytest.approx(5.0)

    def test_degenerate_segment(self):
        assert point_segment_distance((3, 4), (0, 0), (0, 0)) == \
            pytest.approx(5.0)

    def test_vectorized_matches_scalar(self, rng):
        points = rng.uniform(-5, 5, (50, 2))
        a, b = (0.0, 0.0), (2.0, 1.0)
        vectorized = points_segment_distance(points, a, b)
        for point, value in zip(points, vectorized):
            assert value == pytest.approx(
                point_segment_distance(point, a, b))


class TestPointsSegmentsDistance:
    def test_min_over_segments(self, rng):
        points = rng.uniform(-5, 5, (30, 2))
        starts = np.array([[0.0, 0.0], [10.0, 10.0]])
        ends = np.array([[1.0, 0.0], [11.0, 10.0]])
        result = points_segments_distance(points, starts, ends)
        for point, value in zip(points, result):
            expected = min(point_segment_distance(point, s, e)
                           for s, e in zip(starts, ends))
            assert value == pytest.approx(expected)

    def test_empty_points(self):
        out = points_segments_distance(np.zeros((0, 2)),
                                       np.array([[0.0, 0.0]]),
                                       np.array([[1.0, 0.0]]))
        assert out.shape == (0,)

    def test_no_segments_raises(self):
        with pytest.raises(ValueError):
            points_segments_distance(np.zeros((1, 2)), np.zeros((0, 2)),
                                     np.zeros((0, 2)))

    def test_degenerate_segment_handled(self):
        out = points_segments_distance(np.array([[3.0, 4.0]]),
                                       np.array([[0.0, 0.0]]),
                                       np.array([[0.0, 0.0]]))
        assert out[0] == pytest.approx(5.0)


def reference_points_segments_distance(points, starts, ends):
    """The expression the chunked engine must reproduce bit for bit:
    one ``(n, m, 2)`` broadcast, as the engine was first written."""
    d = ends - starts
    length_sq = np.einsum("ij,ij->i", d, d)
    degenerate = length_sq < EPSILON * EPSILON
    safe_length_sq = np.where(degenerate, 1.0, length_sq)
    diff = points[:, None, :] - starts[None, :, :]
    t = np.einsum("nmj,mj->nm", diff, d) / safe_length_sq
    t[:, degenerate] = 0.0
    np.clip(t, 0.0, 1.0, out=t)
    proj = starts[None, :, :] + t[..., None] * d[None, :, :]
    delta = points[:, None, :] - proj
    return np.hypot(delta[..., 0], delta[..., 1]).min(axis=1)


@st.composite
def engine_cases(draw):
    """Points and segments: random, collinear runs, polygons with
    zero-length and sub-``EPSILON`` edges, single edges; scales 1e-3 to
    1e6; near and far points; point counts around the chunk size."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 6))
    m = draw(st.integers(1, 40))
    n = draw(st.sampled_from([1, 2, 17, CHUNK_ROWS - 1, CHUNK_ROWS,
                              CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 5]))
    kind = draw(st.sampled_from(["random", "collinear", "polygon"]))
    if kind == "collinear":
        direction = rng.normal(size=2)
        stops = np.sort(rng.uniform(-1, 1, m + 1))[:, None] * direction
        starts, ends = stops[:-1], stops[1:]
    elif kind == "polygon":
        ring = rng.normal(size=(m, 2))
        starts, ends = ring, np.roll(ring, -1, axis=0)
    else:
        starts, ends = rng.normal(size=(m, 2)), rng.normal(size=(m, 2))
    starts, ends = starts * scale, ends * scale
    short = rng.random(m) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    ends[short] = starts[short] + rng.choice(
        [0.0, 1e-10, 1e-12], size=(short.sum(), 1))
    near = starts[rng.integers(0, m, n)] + rng.normal(size=(n, 2)) * scale
    far = rng.normal(size=(n, 2)) * scale * 1e3
    points = np.where(rng.random((n, 1)) < 0.8, near, far)
    return points, starts, ends


class TestChunkedEngine:
    @given(engine_cases())
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_the_broadcast_expression(self, case):
        points, starts, ends = case
        assert np.array_equal(
            points_segments_distance(points, starts, ends),
            reference_points_segments_distance(points, starts, ends))

    def test_a_row_ignores_its_chunk(self, rng):
        """The same point gives the same float alone and in any chunk."""
        starts, ends = rng.normal(size=(9, 2)), rng.normal(size=(9, 2))
        points = rng.normal(size=(CHUNK_ROWS + 3, 2))
        together = points_segments_distance(points, starts, ends)
        for row in (0, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 2):
            alone = points_segments_distance(points[row:row + 1], starts,
                                             ends)
            assert alone[0] == together[row]

    def test_peak_temporary_is_bounded_by_the_chunk(self, rng):
        """Clock-free: beyond its ``(n,)`` answer one call allocates two
        ``(m, chunk)`` work arrays and small change (numpy's ufunc
        buffers are 8 192 elements), whatever ``n``."""
        m = 24
        starts, ends = rng.normal(size=(m, 2)), rng.normal(size=(m, 2))
        bound = 2 * m * CHUNK_ROWS * 8 + 256 * 1024
        for n in (2 * CHUNK_ROWS, 16 * CHUNK_ROWS):
            points = rng.normal(size=(n, 2))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = points_segments_distance(points, starts, ends)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak - out.nbytes <= bound, (n, peak)


class TestArea:
    def test_ccw_square_positive(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert polygon_signed_area(square) == pytest.approx(1.0)

    def test_cw_square_negative(self):
        square = [(0, 0), (0, 1), (1, 1), (1, 0)]
        assert polygon_signed_area(square) == pytest.approx(-1.0)

    def test_triangle(self):
        assert polygon_signed_area([(0, 0), (4, 0), (0, 3)]) == \
            pytest.approx(6.0)


class TestBoundingBox:
    def test_simple(self):
        assert bounding_box([(0, 1), (2, -1), (1, 5)]) == (0, -1, 2, 5)

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_contains_all_points(self, points):
        xmin, ymin, xmax, ymax = bounding_box(points)
        for x, y in points:
            assert xmin <= x <= xmax
            assert ymin <= y <= ymax
