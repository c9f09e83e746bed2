"""Unit tests for similarity transforms and normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Shape
from repro.geometry.transform import (NormalizedCopy, SimilarityTransform,
                                      batch_normalized_copies,
                                      normalize_about,
                                      normalize_about_diameter,
                                      normalized_copies)

angle = st.floats(-3.0, 3.0, allow_nan=False)
scale = st.floats(0.1, 10.0, allow_nan=False)
offset = st.floats(-20.0, 20.0, allow_nan=False)


class TestSimilarityTransform:
    def test_identity(self):
        t = SimilarityTransform.identity()
        assert t.apply_point((3, 4)) == pytest.approx((3, 4))

    def test_from_components(self):
        t = SimilarityTransform.from_scale_rotation_translation(
            2.0, math.pi / 2, 1.0, 1.0)
        assert t.apply_point((1, 0)) == pytest.approx((1.0, 3.0))
        assert t.scale == pytest.approx(2.0)
        assert t.rotation == pytest.approx(math.pi / 2)

    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            SimilarityTransform.from_scale_rotation_translation(0, 0, 0, 0)

    def test_mapping_segment_to_unit(self):
        t = SimilarityTransform.mapping_segment_to_unit((2, 2), (4, 2))
        assert t.apply_point((2, 2)) == pytest.approx((0, 0))
        assert t.apply_point((4, 2)) == pytest.approx((1, 0))
        assert t.apply_point((3, 3)) == pytest.approx((0.5, 0.5))

    def test_mapping_rejects_degenerate(self):
        with pytest.raises(ValueError):
            SimilarityTransform.mapping_segment_to_unit((1, 1), (1, 1))

    @given(angle, scale, offset, offset)
    @settings(max_examples=60)
    def test_inverse_roundtrip(self, theta, s, tx, ty):
        t = SimilarityTransform.from_scale_rotation_translation(s, theta,
                                                                tx, ty)
        inv = t.inverse()
        for p in ((0, 0), (1, 0), (-3, 7)):
            q = inv.apply_point(t.apply_point(p))
            assert q == pytest.approx(p, abs=1e-7)

    @given(angle, scale, offset, angle, scale, offset)
    @settings(max_examples=40)
    def test_compose_matches_sequential(self, t1, s1, o1, t2, s2, o2):
        a = SimilarityTransform.from_scale_rotation_translation(s1, t1, o1, 0)
        b = SimilarityTransform.from_scale_rotation_translation(s2, t2, 0, o2)
        composed = a.compose(b)
        for p in ((1, 2), (-3, 0.5)):
            expected = a.apply_point(b.apply_point(p))
            assert composed.apply_point(p) == pytest.approx(expected,
                                                            abs=1e-6)

    def test_apply_shape_preserves_topology(self, triangle):
        t = SimilarityTransform.from_scale_rotation_translation(
            2.0, 0.3, 1.0, -1.0)
        out = t.apply_shape(triangle)
        assert out.closed == triangle.closed
        assert out.num_vertices == triangle.num_vertices
        assert out.perimeter == pytest.approx(2.0 * triangle.perimeter)

    def test_equality(self):
        a = SimilarityTransform(1, 0, 0, 0)
        b = SimilarityTransform.identity()
        assert a == b

    def test_preserves_orientation(self):
        t = SimilarityTransform.mapping_segment_to_unit((0, 0), (0, 2))
        # (1, 0) is to the right of the segment (0,0)->(0,2); after
        # normalization it must stay on the right of (0,0)->(1,0),
        # i.e. have negative y.
        assert t.apply_point((1, 0))[1] < 0


class TestNormalization:
    def test_normalize_about_pair(self, triangle):
        result = normalize_about(triangle, 0, 1)
        v = result.shape.vertices
        assert v[0] == pytest.approx((0, 0))
        assert v[1] == pytest.approx((1, 0))

    def test_normalize_about_diameter_unit_span(self, shape_factory):
        shape = shape_factory(10)
        copy = normalize_about_diameter(shape)
        from repro.geometry.diameter import diameter
        _, diam = diameter(copy.shape.vertices)
        assert diam == pytest.approx(1.0)

    def test_inverse_recovers_original(self, shape_factory):
        shape = shape_factory(8)
        copy = normalize_about_diameter(shape)
        restored = copy.inverse.apply(copy.shape.vertices)
        assert np.allclose(restored, shape.vertices, atol=1e-9)

    def test_original_diameter_vector(self, triangle):
        copy = normalize_about(triangle, 0, 1)
        vec = copy.original_diameter_vector()
        v = triangle.vertices
        expected = (v[1][0] - v[0][0], v[1][1] - v[0][1])
        assert vec == pytest.approx(expected)

    def test_normalized_vertices_in_unit_disks(self, shape_factory):
        # After diameter normalization every vertex lies in the lune.
        from repro.geometry.lune import in_lune
        shape = shape_factory(15)
        copy = normalize_about_diameter(shape)
        assert in_lune(copy.shape.vertices, tolerance=1e-7).all()


class TestNormalizedCopies:
    def test_two_copies_per_pair(self, triangle):
        copies = normalized_copies(triangle, alpha=0.0)
        assert len(copies) % 2 == 0
        pairs = {c.pair for c in copies}
        # Both orientations of each pair are present.
        for i, j in pairs:
            assert (j, i) in pairs

    def test_alpha_increases_copies(self, shape_factory):
        shape = shape_factory(14)
        few = normalized_copies(shape, alpha=0.0)
        many = normalized_copies(shape, alpha=0.4)
        assert len(many) >= len(few)

    def test_each_copy_normalized(self, shape_factory):
        shape = shape_factory(10)
        for copy in normalized_copies(shape, alpha=0.2):
            i, j = copy.pair
            v = copy.shape.vertices
            assert v[i] == pytest.approx((0, 0), abs=1e-9)
            assert v[j] == pytest.approx((1, 0), abs=1e-9)

    def test_invariance_under_similarity(self, shape_factory):
        """Normalized copies are identical for transformed inputs."""
        shape = shape_factory(9)
        moved = shape.rotated(1.1).scaled(3.7).translated(10, -4)
        original = normalized_copies(shape, alpha=0.1)
        transformed = normalized_copies(moved, alpha=0.1)
        assert len(original) == len(transformed)
        orig_by_pair = {c.pair: c.shape for c in original}
        for copy in transformed:
            assert copy.pair in orig_by_pair
            assert np.allclose(copy.shape.vertices,
                               orig_by_pair[copy.pair].vertices, atol=1e-7)


class TestBatchEqualsScalarReference:
    """``batch_normalized_copies`` is the only normalization the shape
    base runs; ``normalized_copies`` is the paper-§2.4 scalar reference
    it must reproduce bit for bit."""

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.4])
    def test_bitwise_pairs_transforms_vertices(self, shape_factory,
                                               open_polyline, alpha):
        shapes = [shape_factory(n) for n in (8, 15, 3, 11, 20)]
        shapes.insert(2, open_polyline)
        batched = batch_normalized_copies(shapes, alpha)
        assert len(batched) == len(shapes)
        for shape, copies in zip(shapes, batched):
            reference = normalized_copies(shape, alpha)
            assert [c.pair for c in copies] == [c.pair for c in reference]
            for got, want in zip(copies, reference):
                assert got.transform.as_tuple() == want.transform.as_tuple()
                assert got.shape.closed == want.shape.closed
                assert np.array_equal(got.shape.vertices,
                                      want.shape.vertices)
                assert not got.shape.vertices.flags.writeable

    def test_batch_of_one_and_empty(self, shape_factory):
        shape = shape_factory(12)
        (copies,) = batch_normalized_copies([shape], 0.1)
        reference = normalized_copies(shape, 0.1)
        assert [c.pair for c in copies] == [c.pair for c in reference]
        assert all(np.array_equal(g.shape.vertices, w.shape.vertices)
                   for g, w in zip(copies, reference))
        assert batch_normalized_copies([], 0.1) == []
