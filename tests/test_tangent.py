"""Tests for the tangent relation (the abstract's contain/tangent/overlap)."""

import numpy as np
import pytest

from repro import Shape, ShapeBase
from repro.query import TANGENT, relation_between, tangent
from tests.conftest import served_engine


class TestTangentRelation:
    def test_side_by_side_rectangles(self):
        a = Shape.rectangle(0, 0, 2, 2)
        b = Shape.rectangle(2, 0, 4, 2)          # shares the x=2 wall
        assert relation_between(a, b) == TANGENT
        assert relation_between(b, a) == TANGENT

    def test_corner_touch(self):
        a = Shape.rectangle(0, 0, 2, 2)
        b = Shape.rectangle(2, 2, 4, 4)          # shares one corner
        assert relation_between(a, b) == TANGENT

    def test_crossing_is_overlap_not_tangent(self):
        a = Shape.rectangle(0, 0, 3, 3)
        b = Shape.rectangle(2, 2, 5, 5)
        assert relation_between(a, b) == "overlap"

    def test_inner_tangency_is_containment(self):
        outer = Shape.rectangle(0, 0, 10, 10)
        inner = Shape.rectangle(0, 3, 4, 5)      # touches the x=0 wall
        assert relation_between(outer, inner) == "contain"

    def test_disjoint_unaffected(self):
        a = Shape.rectangle(0, 0, 1, 1)
        b = Shape.rectangle(5, 5, 6, 6)
        assert relation_between(a, b) == "disjoint"

    def test_polyline_touching_polygon(self):
        box = Shape.rectangle(0, 0, 4, 4)
        feeler = Shape([(4, 2), (7, 2)], closed=False)  # starts on wall
        assert relation_between(box, feeler) == TANGENT


class TestTangentQueries:
    @pytest.fixture(scope="class")
    def engine(self):
        rng = np.random.default_rng(64)

        def jitter(shape):
            return Shape(shape.vertices +
                         rng.normal(0, 0.002, shape.vertices.shape))

        a = Shape([(0, 0), (1, 0.02), (1.03, 1.0), (0.02, 1.01)])
        b = Shape([(0, 0), (1.1, 0.04), (0.9, 0.9)])
        base = ShapeBase(alpha=0.05)
        kinds = {}
        for image_id in range(9):
            first = jitter(a).scaled(10).translated(20, 20)
            if image_id < 3:      # tangent: share the right wall region
                xmin, ymin, xmax, ymax = first.bbox()
                second = jitter(b).scaled(6)
                sxmin, symin, _, _ = second.bbox()
                second = second.translated(xmax - sxmin, 25 - symin)
                kinds[image_id] = "tangent-ish"
            elif image_id < 6:    # overlapping
                second = jitter(b).scaled(8).translated(22, 22)
                kinds[image_id] = "overlap"
            else:                 # disjoint
                second = jitter(b).scaled(6).translated(80, 80)
                kinds[image_id] = "disjoint"
            base.add_shape(first, image_id=image_id)
            base.add_shape(second, image_id=image_id)
        engine = served_engine(base, 0.04)
        engine.kinds = kinds
        engine.proto_a, engine.proto_b = a, b
        return engine

    def test_tangent_operator_runs_both_strategies(self, engine):
        a, b = engine.proto_a, engine.proto_b
        s1 = engine.topological(TANGENT, a, b, strategy=1)
        s2 = engine.topological(TANGENT, a, b, strategy=2)
        assert s1 == s2

    def test_tangent_disjoint_overlap_partition(self, engine):
        """Each image lands in exactly one relation bucket."""
        a, b = engine.proto_a, engine.proto_b
        buckets = {rel: engine.topological(rel, a, b, strategy=2)
                   for rel in ("tangent", "overlap", "disjoint", "contain")}
        all_images = set(range(9))
        seen = set()
        for rel, images in buckets.items():
            assert not (images & seen), f"{rel} overlaps earlier bucket"
            seen |= images
        assert seen <= all_images

    def test_tangent_constructor(self, engine):
        node = tangent(engine.proto_a, engine.proto_b)
        result = engine.execute(node)
        assert result == engine.topological(TANGENT, engine.proto_a,
                                            engine.proto_b)
