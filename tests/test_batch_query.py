"""Exactness of the batched query engine.

Two invariants, both bit-for-bit:

* ``report_triangles`` / ``count_triangles`` reproduce the per-triangle
  scalar loop on every backend (the fused kd-tree traversal and the
  brute mask accumulator make the same float decisions as the scalar
  paths), including on skinny and degenerate triangles; and
* ``query_batch`` returns exactly ``[query(q) for q in queries]`` —
  same matches, same work counters — so the amortized multi-query path
  introduces no approximation.
"""

import numpy as np
import pytest

from repro import ShapeBase
from repro.core.matcher import GeometricSimilarityMatcher
from repro.geosir import GeoSIR
from repro.rangesearch import make_index

from .conftest import star_shaped_polygon

BACKENDS = ["brute", "kdtree", "rangetree", "external"]


def random_triangles(rng, m):
    """Random triangle batch salted with skinny/degenerate cases."""
    tris = rng.uniform(-2.0, 2.0, size=(m, 3, 2))
    if m >= 4:
        p = rng.uniform(-1.0, 1.0, 2)
        d = rng.uniform(-1.0, 1.0, 2)
        tris[0] = np.stack([p, p + d, p + d * 1.0001 + 1e-9])   # skinny
        tris[1] = np.stack([p, p, p])                   # point-degenerate
        tris[2] = np.stack([p, p + d, p + 0.5 * d])     # collinear
        tris[3] = np.stack([p, p + d, p + d])           # duplicate vertex
    return tris


class TestBatchRangeSearch:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_report_triangles_equals_per_triangle_union(self, backend,
                                                        rng):
        for _ in range(6):
            n = int(rng.integers(5, 260))
            points = rng.uniform(-2.0, 2.0, size=(n, 2))
            index = make_index(points, backend)
            tris = random_triangles(rng, int(rng.integers(1, 18)))
            chunks = [index.report_triangle(t[0], t[1], t[2])
                      for t in tris]
            chunks = [c for c in chunks if len(c)]
            expected = (np.unique(np.concatenate(chunks)) if chunks
                        else np.zeros(0, dtype=np.int64))
            assert np.array_equal(index.report_triangles(tris), expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_count_triangles_equals_per_triangle_counts(self, backend,
                                                        rng):
        for _ in range(6):
            n = int(rng.integers(5, 260))
            points = rng.uniform(-2.0, 2.0, size=(n, 2))
            index = make_index(points, backend)
            tris = random_triangles(rng, int(rng.integers(1, 18)))
            expected = np.array([index.count_triangle(t[0], t[1], t[2])
                                 for t in tris], dtype=np.int64)
            assert np.array_equal(index.count_triangles(tris), expected)

    def test_small_leaves_stress_covered_subtrees(self, rng):
        """Tiny leaves force deep traversals and subtree emissions."""
        points = rng.uniform(-1.0, 1.0, size=(500, 2))
        from repro.rangesearch.kdtree import KdTreeIndex
        index = KdTreeIndex(points, leaf_size=2)
        # Large triangles cover whole subtrees; overlapping ones
        # exercise the cross-triangle retirement.
        tris = np.array([
            [[-2.0, -2.0], [2.0, -2.0], [0.0, 3.0]],
            [[-1.5, -1.5], [1.5, -1.5], [0.0, 2.0]],
            [[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]],
        ])
        chunks = [index.report_triangle(t[0], t[1], t[2]) for t in tris]
        expected = np.unique(np.concatenate(chunks))
        assert np.array_equal(index.report_triangles(tris), expected)
        expected_counts = np.array(
            [index.count_triangle(t[0], t[1], t[2]) for t in tris])
        assert np.array_equal(index.count_triangles(tris),
                              expected_counts)

    @pytest.mark.parametrize("backend", ["brute", "kdtree"])
    def test_empty_inputs(self, backend, rng):
        points = rng.uniform(-1.0, 1.0, size=(40, 2))
        index = make_index(points, backend)
        assert len(index.report_triangles(np.zeros((0, 3, 2)))) == 0
        assert len(index.count_triangles([])) == 0
        empty = make_index(np.zeros((0, 2)), backend)
        tris = random_triangles(rng, 5)
        assert len(empty.report_triangles(tris)) == 0
        assert np.array_equal(empty.count_triangles(tris),
                              np.zeros(5, dtype=np.int64))

    def test_list_and_array_inputs_agree(self, rng):
        """A list of (3, 2) arrays and the stacked array (what
        band_cover_triangles hands over) are the same batch."""
        points = rng.uniform(-1.0, 1.0, size=(120, 2))
        index = make_index(points, "kdtree")
        tris = [rng.uniform(-1.0, 1.0, size=(3, 2)) for _ in range(6)]
        stacked = np.asarray(tris)
        assert np.array_equal(index.report_triangles(tris),
                              index.report_triangles(stacked))
        assert np.array_equal(index.count_triangles(tris),
                              index.count_triangles(stacked))


def _queries_from(base, rng, count):
    shape_ids = sorted(base.shapes)[:count]
    return [base.shapes[sid]
            .rotated(float(rng.uniform(0.0, 6.0)))
            .scaled(float(rng.uniform(0.6, 1.6)))
            for sid in shape_ids]


def _match_tuples(matches):
    return [(m.shape_id, m.entry_id, m.distance) for m in matches]


class TestQueryBatch:
    def test_query_batch_equals_sequential(self, small_base, rng):
        matcher = GeometricSimilarityMatcher(small_base)
        queries = _queries_from(small_base, rng, 5)
        sequential = [matcher.query(q, k=2) for q in queries]
        batch = matcher.query_batch(queries, k=2)
        assert len(batch) == len(sequential)
        for (seq_matches, seq_stats), (b_matches, b_stats) in \
                zip(sequential, batch):
            assert _match_tuples(b_matches) == _match_tuples(seq_matches)
            assert b_stats.vertices_processed == \
                seq_stats.vertices_processed
            assert b_stats.vertices_reported == seq_stats.vertices_reported
            assert b_stats.iterations == seq_stats.iterations
            assert b_stats.candidates_evaluated == \
                seq_stats.candidates_evaluated
            assert b_stats.guaranteed == seq_stats.guaranteed
            assert b_stats.epsilons == seq_stats.epsilons

    def test_query_batch_empty_base(self):
        matcher = GeometricSimilarityMatcher(ShapeBase())
        results = matcher.query_batch([], k=1)
        assert results == []

    def test_query_batch_validates_k(self, small_base):
        matcher = GeometricSimilarityMatcher(small_base)
        with pytest.raises(ValueError):
            matcher.query_batch([], k=0)

    def test_backends_agree_on_matches_and_work(self, rng):
        """kd-tree == brute scan on matches and vertices processed.

        ``vertices_reported`` (ids the index handed back) is not
        compared: it depends on each backend's ``resolution`` — the
        kd-tree answers whole leaves, the scan every id at once.
        """
        shapes = [star_shaped_polygon(rng, int(rng.integers(8, 14)))
                  for _ in range(16)]
        bases = {}
        for backend in ("brute", "kdtree"):
            base = ShapeBase(alpha=0.05, backend=backend)
            for i, shape in enumerate(shapes):
                base.add_shape(shape, image_id=i)
            bases[backend] = base
        queries = _queries_from(bases["brute"], rng, 4)
        for query in queries:
            results = {}
            for backend, base in bases.items():
                matcher = GeometricSimilarityMatcher(base)
                results[backend] = matcher.query(query, k=2)
            brute_matches, brute_stats = results["brute"]
            kd_matches, kd_stats = results["kdtree"]
            assert _match_tuples(kd_matches) == _match_tuples(brute_matches)
            assert kd_stats.vertices_processed == \
                brute_stats.vertices_processed

    def test_timings_recorded(self, small_base, rng):
        matcher = GeometricSimilarityMatcher(small_base)
        query = _queries_from(small_base, rng, 1)[0]
        _, stats = matcher.query(query, k=1)
        for key in ("normalize", "range_search", "filter",
                    "exact_measures"):
            assert key in stats.timings
            assert stats.timings[key] >= 0.0

    def test_geosir_retrieve_batch_equals_sequential(self, rng):
        # Two facades over the same images: a re-query on one facade may
        # be a similarity-invariant cache hit, so each side computes.
        shapes = [star_shaped_polygon(rng, 10) for _ in range(8)]
        engines = [GeoSIR(alpha=0.05), GeoSIR(alpha=0.05)]
        for engine in engines:
            for shape in shapes:
                engine.add_image(shapes=[shape])
        queries = [s.rotated(0.7) for s in shapes[:3]]
        sequential = [engines[0].retrieve(q, k=2) for q in queries]
        batch = engines[1].retrieve_batch(queries, k=2)
        assert [(_match_tuples(r.matches), r.method) for r in batch] == \
            [(_match_tuples(r.matches), r.method) for r in sequential]
