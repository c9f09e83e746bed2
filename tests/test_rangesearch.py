"""Unit and property tests for the range-search backends.

The central property: every backend reports exactly the same indices as
the brute-force oracle, for triangles and boxes alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rangesearch import (BruteForceIndex, IncrementalIndex,
                               KdTreeIndex, LayeredRangeTreeIndex,
                               make_index)

BACKENDS = ["brute", "kdtree", "rangetree"]

coordinate = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def cloud(rng):
    return rng.uniform(-5, 5, (500, 2))


class TestFactory:
    def test_known_backends(self, cloud):
        assert isinstance(make_index(cloud, "brute"), BruteForceIndex)
        assert isinstance(make_index(cloud, "kdtree"), KdTreeIndex)
        assert isinstance(make_index(cloud, "rangetree"),
                          LayeredRangeTreeIndex)

    def test_unknown_backend(self, cloud):
        with pytest.raises(ValueError, match="unknown"):
            make_index(cloud, "btree")

    def test_len(self, cloud):
        assert len(make_index(cloud, "kdtree")) == len(cloud)


class TestTriangleQueries:
    def test_matches_oracle(self, backend, cloud, rng):
        index = make_index(cloud, backend)
        oracle = BruteForceIndex(cloud)
        for _ in range(25):
            tri = rng.uniform(-6, 6, (3, 2))
            expected = oracle.report_triangle(*tri)
            actual = index.report_triangle(*tri)
            assert np.array_equal(actual, expected)
            assert index.count_triangle(*tri) == len(expected)

    def test_all_points_triangle(self, backend, cloud):
        index = make_index(cloud, backend)
        big = ((-100, -100), (100, -100), (0, 200))
        assert len(index.report_triangle(*big)) == len(cloud)

    def test_empty_triangle(self, backend, cloud):
        index = make_index(cloud, backend)
        far = ((50, 50), (51, 50), (50, 51))
        assert len(index.report_triangle(*far)) == 0
        assert index.count_triangle(*far) == 0

    def test_skinny_triangle(self, backend, cloud, rng):
        """Envelope covers are long and thin; exercise that shape."""
        index = make_index(cloud, backend)
        oracle = BruteForceIndex(cloud)
        for _ in range(10):
            x = rng.uniform(-5, 5)
            tri = ((x, -6.0), (x + 0.05, -6.0), (x, 6.0))
            assert np.array_equal(index.report_triangle(*tri),
                                  oracle.report_triangle(*tri))

    def test_empty_point_set(self, backend):
        index = make_index(np.zeros((0, 2)), backend)
        assert len(index.report_triangle((0, 0), (1, 0), (0, 1))) == 0


class TestBoxQueries:
    def test_matches_oracle(self, backend, cloud, rng):
        index = make_index(cloud, backend)
        oracle = BruteForceIndex(cloud)
        for _ in range(25):
            x1, x2 = np.sort(rng.uniform(-6, 6, 2))
            y1, y2 = np.sort(rng.uniform(-6, 6, 2))
            expected = oracle.report_box(x1, y1, x2, y2)
            actual = index.report_box(x1, y1, x2, y2)
            assert np.array_equal(actual, expected)
            assert index.count_box(x1, y1, x2, y2) == len(expected)

    def test_point_query(self, backend):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        index = make_index(points, backend)
        hits = index.report_box(0, 0, 0, 0)
        assert set(hits.tolist()) == {0, 2}

    def test_duplicates_all_reported(self, backend):
        points = np.tile(np.array([[2.0, 3.0]]), (7, 1))
        index = make_index(points, backend)
        assert len(index.report_box(1, 2, 3, 4)) == 7

    @given(st.lists(st.tuples(coordinate, coordinate), min_size=1,
                    max_size=60),
           st.tuples(coordinate, coordinate, coordinate, coordinate))
    @settings(max_examples=60, deadline=None)
    def test_box_property(self, points, box):
        pts = np.array(points)
        x1, x2 = sorted(box[:2])
        y1, y2 = sorted(box[2:])
        expected = BruteForceIndex(pts).report_box(x1, y1, x2, y2)
        for backend in ("kdtree", "rangetree"):
            actual = make_index(pts, backend).report_box(x1, y1, x2, y2)
            assert np.array_equal(actual, expected)

    @given(st.lists(st.tuples(coordinate, coordinate), min_size=1,
                    max_size=50),
           st.tuples(coordinate, coordinate), st.tuples(coordinate, coordinate),
           st.tuples(coordinate, coordinate))
    @settings(max_examples=60, deadline=None)
    def test_triangle_property(self, points, a, b, c):
        pts = np.array(points)
        expected = BruteForceIndex(pts).report_triangle(a, b, c)
        for backend in ("kdtree", "rangetree"):
            actual = make_index(pts, backend).report_triangle(a, b, c)
            assert np.array_equal(actual, expected)


class TestKdTreeInternals:
    def test_leaf_size_one(self, rng):
        points = rng.uniform(0, 1, (64, 2))
        small = KdTreeIndex(points, leaf_size=1)
        big = KdTreeIndex(points, leaf_size=64)
        tri = ((0, 0), (1, 0), (0, 1))
        assert np.array_equal(small.report_triangle(*tri),
                              big.report_triangle(*tri))

    def test_rejects_bad_leaf_size(self, rng):
        with pytest.raises(ValueError):
            KdTreeIndex(rng.uniform(0, 1, (8, 2)), leaf_size=0)

    def test_points_immutable(self, rng):
        index = KdTreeIndex(rng.uniform(0, 1, (8, 2)))
        with pytest.raises(ValueError):
            index.points[0, 0] = 5.0


# ----------------------------------------------------------------------
# candidates(): the filter half of filter-and-refine
# ----------------------------------------------------------------------
def _removed_kdtree(points):
    keep = np.ones(len(points), dtype=bool)
    keep[::3] = False
    return KdTreeIndex(points).removed(keep)


CANDIDATE_INDEXES = {
    "brute": lambda points: make_index(points, "brute"),
    "kdtree": lambda points: make_index(points, "kdtree"),
    "rangetree": lambda points: make_index(points, "rangetree"),
    "external": lambda points: make_index(points, "external"),
    "incremental-with-tail": lambda points: IncrementalIndex(
        KdTreeIndex(points[:-40]), points[-40:]),
    "kdtree-after-removed": _removed_kdtree,
}


class TestCandidates:
    @pytest.fixture(params=sorted(CANDIDATE_INDEXES))
    def build(self, request):
        return CANDIDATE_INDEXES[request.param]

    @pytest.fixture
    def index(self, build, cloud):
        return build(cloud)

    def test_unique_in_range_superset_of_report(self, index, rng):
        for count in (1, 7, 40):
            centers = rng.uniform(-5, 5, (count, 1, 2))
            # From slivers to triangles wider than the whole cloud.
            sizes = 10.0 ** rng.uniform(-3, 1.3, (count, 1, 1))
            tris = centers + sizes * rng.uniform(-1, 1, (count, 3, 2))
            ids = index.candidates(tris)
            assert ids.dtype.kind == "i" and ids.ndim == 1
            assert len(np.unique(ids)) == len(ids)
            assert len(ids) == 0 or \
                (ids.min() >= 0 and ids.max() < len(index))
            assert set(index.report_triangles(tris)) <= set(ids)

    def test_empty_inputs(self, build, index):
        ids = index.candidates(np.zeros((0, 3, 2)))
        assert len(np.unique(ids)) == len(ids)     # "every id" is allowed
        tri = np.array([[[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]]])
        assert len(build(np.zeros((0, 2))).candidates(tri)) == 0

    def test_resolution(self, index):
        assert index.resolution >= 0.0
        if isinstance(index, KdTreeIndex):
            # A leaf of a 500-point tree is far smaller than the cloud.
            assert 0.0 < index.resolution < 10.0

    def test_removed_kdtree_carries_resolution(self, cloud):
        assert _removed_kdtree(cloud).resolution == \
            KdTreeIndex(cloud).resolution

    def test_kdtree_candidates_test_no_point(self, cloud, monkeypatch):
        """Leaf resolution means whole leaves, never point tests."""
        from repro.rangesearch import kdtree

        def fail(*args, **kwargs):
            raise AssertionError("candidates() tested a point")

        monkeypatch.setattr(kdtree._TriangleBatch, "points_in_any", fail)
        monkeypatch.setattr(kdtree, "points_in_triangle", fail)
        tri = np.array([[[-2.0, -2.0], [2.0, -1.0], [0.0, 3.0]]])
        assert len(KdTreeIndex(cloud).candidates(tri)) > 0
