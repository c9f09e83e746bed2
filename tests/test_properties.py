"""Cross-module property-based tests (hypothesis).

These are the system-level invariants the paper's correctness rests on:
similarity-transform invariance of retrieval, soundness of the
beta-bound termination, exact equivalence of the range-search backends
inside the matcher, and lossless-enough serialization.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import GeometricSimilarityMatcher, Shape, ShapeBase
from repro.core.measures import directed_average_distance
from repro.geometry.nearest import BoundaryDistance
from repro.geometry.transform import normalize_about_diameter
from repro.query import ReferenceExecutor


def polygon_strategy(min_vertices=4, max_vertices=12):
    """Random simple star-shaped polygons with well-separated vertices."""
    def build(seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(min_vertices, max_vertices + 1))
        angles = np.sort(rng.uniform(0, 2 * math.pi, count))
        angles += np.linspace(0, 1e-4, count)
        radii = rng.uniform(0.5, 1.5, count)
        return Shape(np.column_stack([radii * np.cos(angles),
                                      radii * np.sin(angles)]))
    return st.integers(0, 10_000).map(build)


transform_strategy = st.tuples(
    st.floats(-3.0, 3.0),          # rotation
    st.floats(0.2, 5.0),           # scale
    st.floats(-50.0, 50.0),        # dx
    st.floats(-50.0, 50.0))        # dy


class TestMeasureInvariance:
    @given(polygon_strategy(), polygon_strategy(), transform_strategy)
    @settings(max_examples=40, deadline=None)
    def test_normalized_measure_invariant(self, a, b, transform):
        """h_avg between *normalized* shapes is invariant to any
        similarity transform applied to the inputs."""
        angle, scale, dx, dy = transform
        moved_a = a.rotated(angle).scaled(scale).translated(dx, dy)
        na = normalize_about_diameter(a).shape
        nma = normalize_about_diameter(moved_a).shape
        nb = normalize_about_diameter(b).shape
        original = directed_average_distance(na, nb)
        transformed = directed_average_distance(nma, nb)
        assert transformed == pytest.approx(original, abs=1e-6)

    @given(polygon_strategy())
    @settings(max_examples=40, deadline=None)
    def test_self_distance_zero(self, shape):
        assert directed_average_distance(shape, shape) == \
            pytest.approx(0.0, abs=1e-9)

    @given(polygon_strategy(), polygon_strategy())
    @settings(max_examples=40, deadline=None)
    def test_measure_nonnegative_and_bounded(self, a, b):
        value = directed_average_distance(a, b)
        assert value >= 0.0
        engine = BoundaryDistance(b)
        assert value <= engine.distances(a.vertices).max() + 1e-12


class TestRetrievalInvariance:
    @given(st.integers(0, 2000), transform_strategy)
    @settings(max_examples=15, deadline=None)
    def test_exact_copy_always_found(self, seed, transform):
        """For any generated base and any similarity transform of a
        stored shape, the matcher returns that shape at distance ~0."""
        rng = np.random.default_rng(seed)
        base = ShapeBase(alpha=0.0)
        shapes = []
        for i in range(8):
            count = int(rng.integers(5, 12))
            angles = np.sort(rng.uniform(0, 2 * math.pi, count))
            angles += np.linspace(0, 1e-4, count)
            radii = rng.uniform(0.5, 1.5, count)
            shape = Shape(np.column_stack([radii * np.cos(angles),
                                           radii * np.sin(angles)]))
            shapes.append(shape)
            base.add_shape(shape, image_id=i)
        target = int(rng.integers(len(shapes)))
        angle, scale, dx, dy = transform
        query = shapes[target].rotated(angle).scaled(scale) \
            .translated(dx, dy)
        matches, _ = GeometricSimilarityMatcher(base).query(query, k=1)
        assert matches
        assert matches[0].distance <= 1e-6
        # Distance 0 could tie with a congruent shape; the planted
        # target must appear among the zero-distance results.
        threshold_matches, _ = GeometricSimilarityMatcher(base) \
            .query_threshold(query, 1e-6)
        assert target in {m.shape_id for m in threshold_matches}


class TestTerminationSoundness:
    @given(st.integers(0, 500), st.floats(0.02, 0.1))
    @settings(max_examples=10, deadline=None)
    def test_threshold_query_complete(self, seed, threshold):
        """query_threshold returns *every* shape within the threshold
        (checked against the brute-force referee)."""
        rng = np.random.default_rng(seed)
        base = ShapeBase(alpha=0.05)
        shapes = []
        for i in range(10):
            count = int(rng.integers(6, 12))
            angles = np.sort(rng.uniform(0, 2 * math.pi, count))
            angles += np.linspace(0, 1e-4, count)
            radii = rng.uniform(0.6, 1.4, count)
            shape = Shape(np.column_stack([radii * np.cos(angles),
                                           radii * np.sin(angles)]))
            shapes.append(shape)
            base.add_shape(shape, image_id=i)
        query = shapes[int(rng.integers(len(shapes)))]
        matcher = GeometricSimilarityMatcher(base)
        found = {m.shape_id
                 for m in matcher.query_threshold(query, threshold)[0]}
        everything = ReferenceExecutor(base).top_k(query, base.num_shapes)
        assert {m.shape_id for m in everything
                if m.distance <= threshold - 1e-9} <= found


class TestBackendAgreementInMatcher:
    @given(st.integers(0, 300))
    @settings(max_examples=8, deadline=None)
    def test_all_backends_identical_results(self, seed):
        rng = np.random.default_rng(seed)
        shape_specs = []
        for _ in range(10):
            count = int(rng.integers(5, 12))
            angles = np.sort(rng.uniform(0, 2 * math.pi, count))
            angles += np.linspace(0, 1e-4, count)
            radii = rng.uniform(0.5, 1.5, count)
            shape_specs.append(np.column_stack(
                [radii * np.cos(angles), radii * np.sin(angles)]))
        query_index = int(rng.integers(len(shape_specs)))
        rotation = float(rng.uniform(0, 6))
        outcomes = []
        for backend in ("brute", "kdtree", "rangetree"):
            base = ShapeBase(alpha=0.05, backend=backend)
            for i, spec in enumerate(shape_specs):
                base.add_shape(Shape(spec), image_id=i)
            query = Shape(shape_specs[query_index]).rotated(rotation)
            matches, _ = GeometricSimilarityMatcher(base).query(query, k=3)
            outcomes.append([(m.shape_id, round(m.distance, 9))
                             for m in matches])
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestSerializationProperty:
    @given(polygon_strategy(), st.integers(0, 2 ** 31 - 1),
           st.one_of(st.none(), st.integers(0, 2 ** 31 - 1)))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_any_entry(self, shape, shape_id, image_id):
        from repro.core.shapebase import ShapeEntry
        from repro.geometry.transform import normalized_copies
        from repro.storage import decode_record, encode_entry
        copy = normalized_copies(shape, alpha=0.0)[0]
        entry = ShapeEntry(0, shape_id, image_id, copy)
        record, end = decode_record(encode_entry(entry))
        assert record.shape_id == shape_id
        assert record.image_id == image_id
        assert np.allclose(record.shape.vertices, copy.shape.vertices,
                           atol=1e-4)
