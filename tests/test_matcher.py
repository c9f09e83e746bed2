"""Unit and behavioural tests for the envelope-fattening matcher."""

import numpy as np
import pytest

from repro import GeometricSimilarityMatcher, Shape, ShapeBase
from repro.query import ReferenceExecutor
from tests.conftest import star_shaped_polygon


@pytest.fixture
def populated(rng):
    base = ShapeBase(alpha=0.05)
    shapes = []
    for i in range(40):
        shape = star_shaped_polygon(rng, int(rng.integers(8, 18)))
        shapes.append(shape)
        base.add_shape(shape, image_id=i % 8)
    return base, shapes


class TestConstruction:
    def test_beta_bounds(self, small_base):
        with pytest.raises(ValueError):
            GeometricSimilarityMatcher(small_base, beta=0.0)
        with pytest.raises(ValueError):
            GeometricSimilarityMatcher(small_base, beta=1.0)

    def test_measure_validation(self, small_base):
        with pytest.raises(ValueError):
            GeometricSimilarityMatcher(small_base, measure="exotic")

    def test_k_validation(self, small_base):
        matcher = GeometricSimilarityMatcher(small_base)
        with pytest.raises(ValueError):
            matcher.query(Shape.rectangle(0, 0, 1, 1), k=0)


class TestExactRetrieval:
    def test_finds_exact_copy(self, populated):
        base, shapes = populated
        matcher = GeometricSimilarityMatcher(base)
        matches, stats = matcher.query(shapes[5], k=1)
        assert matches[0].shape_id == 5
        assert matches[0].distance == pytest.approx(0.0, abs=1e-9)
        assert stats.guaranteed

    def test_invariance_under_similarity_transform(self, populated):
        base, shapes = populated
        matcher = GeometricSimilarityMatcher(base)
        query = shapes[17].rotated(2.2).scaled(0.37).translated(-40, 12)
        matches, _ = matcher.query(query, k=1)
        assert matches[0].shape_id == 17
        assert matches[0].distance == pytest.approx(0.0, abs=1e-7)

    def test_distorted_query_still_matches(self, populated, rng):
        base, shapes = populated
        matcher = GeometricSimilarityMatcher(base)
        noisy = Shape(shapes[9].vertices +
                      rng.normal(0, 0.01, shapes[9].vertices.shape))
        matches, _ = matcher.query(noisy, k=1)
        assert matches[0].shape_id == 9
        assert matches[0].distance < 0.05

    def test_k_best_ordering(self, populated):
        base, shapes = populated
        matcher = GeometricSimilarityMatcher(base)
        matches, _ = matcher.query(shapes[3], k=5)
        distances = [m.distance for m in matches]
        assert distances == sorted(distances)
        assert len({m.shape_id for m in matches}) == len(matches)

    def test_k_best_distinct_shapes(self, populated):
        base, shapes = populated
        matcher = GeometricSimilarityMatcher(base)
        matches, _ = matcher.query(shapes[0], k=3)
        assert len(matches) == 3

    def test_continuous_measure_mode(self, populated):
        base, shapes = populated
        matcher = GeometricSimilarityMatcher(base, measure="continuous")
        matches, _ = matcher.query(shapes[11], k=1)
        assert matches[0].shape_id == 11

    def test_image_id_propagated(self, populated):
        base, shapes = populated
        matcher = GeometricSimilarityMatcher(base)
        matches, _ = matcher.query(shapes[12], k=1)
        assert matches[0].image_id == base.image_of_shape(12)


class TestStats:
    def test_stats_accounting(self, populated):
        base, shapes = populated
        matcher = GeometricSimilarityMatcher(base)
        _, stats = matcher.query(shapes[2], k=1)
        assert stats.iterations == len(stats.epsilons)
        assert stats.vertices_processed <= base.total_vertices
        assert stats.candidates_evaluated <= base.num_entries
        assert stats.triangles_queried > 0

    def test_epsilons_increasing(self, populated):
        base, shapes = populated
        matcher = GeometricSimilarityMatcher(base)
        _, stats = matcher.query(shapes[2], k=2)
        assert all(a < b + 1e-15 for a, b in
                   zip(stats.epsilons, stats.epsilons[1:]))

    def test_on_candidate_trace(self, populated):
        base, shapes = populated
        matcher = GeometricSimilarityMatcher(base)
        trace = []
        _, stats = matcher.query(shapes[2], k=1,
                                 on_candidate=lambda e: trace.append(e.entry_id))
        assert len(trace) == stats.candidates_evaluated
        assert len(set(trace)) == len(trace)       # each entry once


class TestEdgeCases:
    def test_empty_base(self):
        matcher = GeometricSimilarityMatcher(ShapeBase())
        matches, stats = matcher.query(Shape.rectangle(0, 0, 1, 1))
        assert matches == []
        # Complete, not cut short: nothing unseen could beat anything.
        assert stats.guaranteed and not stats.exhausted

    def test_dissimilar_query_exhausts(self, rng):
        """A query wildly unlike anything stored should run out of
        epsilon budget (the hashing-fallback trigger)."""
        base = ShapeBase(alpha=0.0)
        for i in range(30):
            base.add_shape(star_shaped_polygon(rng, 12), image_id=i)
        # slack shrinks the paper's termination threshold so the tiny
        # test base behaves like a large one (eps_max ~ 1/p).
        matcher = GeometricSimilarityMatcher(base, beta=0.05, slack=0.01)
        needle = Shape([(0, 0), (100, 0), (100, 0.5), (0, 0.5)])
        matches, stats = matcher.query(needle, k=1)
        # Either nothing was close enough to become a candidate, or the
        # best candidate is far; in both cases no guarantee fired.
        if matches:
            assert matches[0].distance > 0.01
        assert stats.exhausted

    def test_single_shape_base(self, square):
        base = ShapeBase()
        base.add_shape(square, image_id=0)
        matcher = GeometricSimilarityMatcher(base)
        matches, _ = matcher.query(square.rotated(1.0), k=1)
        assert matches[0].shape_id == 0


class TestThresholdQuery:
    def test_exact_copy_within_any_threshold(self, populated):
        base, shapes = populated
        matcher = GeometricSimilarityMatcher(base)
        matches, stats = matcher.query_threshold(shapes[8], 0.01)
        assert any(m.shape_id == 8 for m in matches)
        assert stats.guaranteed

    def test_all_results_within_threshold(self, populated):
        base, shapes = populated
        matcher = GeometricSimilarityMatcher(base)
        matches, _ = matcher.query_threshold(shapes[8], 0.05)
        assert all(m.distance <= 0.05 + 1e-9 for m in matches)

    def test_threshold_monotonicity(self, populated):
        base, shapes = populated
        matcher = GeometricSimilarityMatcher(base)
        small, _ = matcher.query_threshold(shapes[4], 0.02)
        large, _ = matcher.query_threshold(shapes[4], 0.08)
        assert {m.shape_id for m in small} <= {m.shape_id for m in large}

    def test_threshold_completeness_vs_bruteforce(self, populated):
        """Everything the brute-force referee finds, the algorithm finds."""
        base, shapes = populated
        matcher = GeometricSimilarityMatcher(base)
        query = shapes[6]
        threshold = 0.04
        matches, _ = matcher.query_threshold(query, threshold)
        found = {m.shape_id for m in matches}
        everything = ReferenceExecutor(base).top_k(query, base.num_shapes)
        assert {m.shape_id for m in everything
                if m.distance <= threshold - 1e-9} <= found

    def test_negative_threshold_rejected(self, populated):
        base, _ = populated
        matcher = GeometricSimilarityMatcher(base)
        with pytest.raises(ValueError):
            matcher.query_threshold(Shape.rectangle(0, 0, 1, 1), -0.1)

    def test_empty_base_threshold(self):
        matcher = GeometricSimilarityMatcher(ShapeBase())
        matches, stats = matcher.query_threshold(
            Shape.rectangle(0, 0, 1, 1), 0.1)
        assert matches == []
        assert stats.guaranteed and not stats.exhausted


class TestBackendEquivalence:
    def test_same_results_across_backends(self, rng):
        shapes = [star_shaped_polygon(rng, 10) for _ in range(20)]
        results = {}
        for backend in ("brute", "kdtree", "rangetree"):
            base = ShapeBase(alpha=0.05, backend=backend)
            for i, shape in enumerate(shapes):
                base.add_shape(shape, image_id=i)
            matcher = GeometricSimilarityMatcher(base)
            matches, _ = matcher.query(shapes[7].rotated(0.5), k=3)
            results[backend] = [(m.shape_id, round(m.distance, 9))
                                for m in matches]
        assert results["brute"] == results["kdtree"] == results["rangetree"]
