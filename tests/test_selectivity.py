"""Unit tests for significant vertices and the selectivity model."""

import math

import numpy as np
import pytest

from repro import Shape
from repro.query.selectivity import (SelectivityModel, fit_hyperbola,
                                     significant_vertices)
from tests.conftest import served_engine, star_shaped_polygon


class TestSignificantVertices:
    def test_bounded_by_vertex_count(self, rng):
        for _ in range(10):
            shape = star_shaped_polygon(rng, int(rng.integers(5, 20)))
            vs = significant_vertices(shape)
            assert 0.0 <= vs <= shape.num_vertices

    def test_square_value(self):
        """Unit square normalized about its diagonal: each vertex has a
        right angle (term 1) and adjacent edges of length 1/sqrt(2)."""
        square = Shape.rectangle(0, 0, 1, 1)
        expected = 4 * 0.5 * (1.0 + 1.0 / math.sqrt(2))
        assert significant_vertices(square) == pytest.approx(expected)

    def test_scale_invariant(self, rng):
        shape = star_shaped_polygon(rng, 10)
        assert significant_vertices(shape) == pytest.approx(
            significant_vertices(shape.scaled(7.0).rotated(1.0)))

    def test_degenerate_vertices_contribute_little(self):
        """Adding collinear midpoints barely changes V_S (Figure 9)."""
        coarse = Shape([(0, 0), (4, 0), (4, 4), (0, 4)])
        dense = Shape([(0, 0), (2, 0), (4, 0), (4, 2), (4, 4),
                       (2, 4), (0, 4), (0, 2)])
        vs_coarse = significant_vertices(coarse)
        vs_dense = significant_vertices(dense)
        # 4 extra vertices add far less than 4 units of significance:
        # only their edge terms contribute (angle term is 0 at pi).
        assert vs_dense - vs_coarse < 2.0

    def test_spiky_less_significant_than_square(self):
        """Near-degenerate angles (spikes) score below right angles."""
        square = Shape.rectangle(0, 0, 1, 1)
        spike = Shape([(0, 0), (1, 0), (0.5, 0.02), (0.5, 1.0)])
        assert significant_vertices(spike) / spike.num_vertices < \
            significant_vertices(square) / square.num_vertices

    def test_open_polyline(self, open_polyline):
        vs = significant_vertices(open_polyline)
        assert 0.0 <= vs <= open_polyline.num_vertices


class TestSelectivityModel:
    def test_default_c(self):
        assert SelectivityModel().c == 1.0

    def test_initial_c(self):
        assert SelectivityModel(initial_c=8.0).c == pytest.approx(8.0)

    def test_initial_c_validation(self):
        with pytest.raises(ValueError):
            SelectivityModel(initial_c=0.0)

    def test_observe_updates_c(self, square):
        model = SelectivityModel()
        model.observe(square, 10)
        assert model.num_observations == 1
        vs = significant_vertices(square)
        assert model.c == pytest.approx(10 * vs)

    def test_estimate_inverse_in_vs(self, rng):
        model = SelectivityModel(initial_c=30.0)
        simple = Shape([(0, 0), (1, 0), (0.5, 0.8)])
        complex_shape = star_shaped_polygon(rng, 18)
        assert model.estimate(complex_shape) < model.estimate(simple) or \
            significant_vertices(complex_shape) <= \
            significant_vertices(simple)

    def test_geometric_mean_stable(self, square, triangle):
        model = SelectivityModel()
        model.observe(square, 10)
        model.observe(triangle, 10)
        # c within the range implied by the two observations
        c1 = 10 * significant_vertices(square)
        c2 = 10 * significant_vertices(triangle)
        assert min(c1, c2) <= model.c <= max(c1, c2)

    def test_zero_result_size_handled(self, square):
        model = SelectivityModel()
        model.observe(square, 0)       # folded in with a floor, no crash
        assert model.c > 0


class TestFitHyperbola:
    def test_recovers_exact_constant(self):
        vs = np.array([2.0, 4.0, 8.0, 10.0])
        sizes = 40.0 / vs
        assert fit_hyperbola(vs, sizes) == pytest.approx(40.0)

    def test_noisy_fit(self, rng):
        vs = rng.uniform(2, 12, 50)
        sizes = 25.0 / vs + rng.normal(0, 0.1, 50)
        assert fit_hyperbola(vs, sizes) == pytest.approx(25.0, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_hyperbola(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_hyperbola(np.array([]), np.array([]))


class TestThresholdAwareEstimates:
    """Threshold scaling and the planner's use of the estimates."""

    def test_estimate_monotone_in_threshold(self, rng):
        model = SelectivityModel()
        shapes = [star_shaped_polygon(rng, int(n)) for n in
                  rng.integers(6, 24, size=8)]
        for index, shape in enumerate(shapes):
            model.observe(shape, 5 + index,
                          threshold=float(rng.uniform(0.01, 0.2)))
        probe = star_shaped_polygon(rng, 10)
        thresholds = np.linspace(0.005, 0.25, 12)
        estimates = [model.estimate(probe, float(t)) for t in thresholds]
        assert all(e >= 0 for e in estimates)
        for lo, hi in zip(estimates, estimates[1:]):
            assert lo <= hi          # larger threshold, larger estimate
        # Unobserved thresholds fall back to the plain c/V_S estimate.
        fresh = SelectivityModel()
        assert fresh.estimate(probe, 0.01) == \
            pytest.approx(fresh.estimate(probe))

    def test_threshold_scaling_concurrent_observe(self, rng):
        import threading
        model = SelectivityModel()
        shape = star_shaped_polygon(rng, 12)

        def observer():
            for _ in range(200):
                model.observe(shape, 4, threshold=0.05)

        threads = [threading.Thread(target=observer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert model.num_observations == 800
        assert model.reference_threshold() == pytest.approx(0.05)

    def test_vs_is_computed_once_per_literal_shape_per_plan(
            self, monkeypatch):
        """The planner estimates each literal several times per term;
        V_S is computed once per distinct shape, and the memoized
        estimates equal the directly computed ones."""
        from repro.imaging.synthesis import distort
        from repro.query import Similar, selectivity
        from repro.query.workload import (ALGEBRA_THRESHOLD,
                                          algebra_base)
        base, protos = algebra_base(18, np.random.default_rng(21))
        qrng = np.random.default_rng(22)
        common, rare, other = (distort(protos[name], 0.008, qrng)
                               for name in ("common_a", "rare", "common_b"))
        engine = served_engine(base, ALGEBRA_THRESHOLD)
        computed = []
        significance = selectivity.vertex_significance

        def counted(shape, normalize=True):
            computed.append(shape)
            return significance(shape, normalize)

        monkeypatch.setattr(selectivity, "vertex_significance", counted)
        engine.execute((Similar(common) & Similar(rare)) |
                       (Similar(rare) & ~Similar(other)) |
                       (Similar(common) & Similar(other)))
        assert len(computed) == 3
        assert {id(shape) for shape in computed} == \
            {id(common), id(rare), id(other)}
        model = engine.selectivity
        for shape in (common, rare, other):
            reference = model.reference_threshold()
            expected = model.c / selectivity.significant_vertices(shape) * \
                (ALGEBRA_THRESHOLD / reference)
            assert model.estimate(shape, ALGEBRA_THRESHOLD) == expected
        assert len(computed) == 6                  # three direct calls

    def test_planner_seeds_lowest_estimate_literal(self):
        """The planned term evaluates the lowest-estimate literal in
        full and the rest only as filters (asserted via counters)."""
        from repro.query import Similar
        from repro.query.workload import (ALGEBRA_THRESHOLD,
                                          algebra_base)
        from repro.imaging.synthesis import distort
        base, protos = algebra_base(18, np.random.default_rng(21))
        qrng = np.random.default_rng(22)
        common = distort(protos["common_a"], 0.008, qrng)
        rare = distort(protos["rare"], 0.008, qrng)
        engine = served_engine(base, ALGEBRA_THRESHOLD)
        # V_S alone must rank the spiky rare shape below the common
        # one — the planner needs no observations to get this right.
        assert engine.selectivity.estimate(rare, ALGEBRA_THRESHOLD) < \
            engine.selectivity.estimate(common, ALGEBRA_THRESHOLD)
        report = engine.execute_explained(Similar(common) &
                                          Similar(rare))
        term = report.terms[0]
        assert term.reordered
        assert engine.counters.seeds_reordered == 1
        estimates = dict(term.estimates)
        assert min(estimates.values()) == term.seed_estimate
        # The common literal never got its own threshold query: one
        # for the seed, membership filtered per image.
        assert engine.counters.threshold_queries == 1
        assert engine.counters.filter_probes > 0
