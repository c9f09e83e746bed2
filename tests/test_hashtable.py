"""Unit tests for the geometric hash table and approximate retriever."""

import numpy as np
import pytest

from repro import Shape, ShapeBase
from repro.hashing import (ApproximateRetriever, GeometricHashTable,
                           HashCurveFamily)
from repro.query import ReferenceExecutor
from tests.conftest import star_shaped_polygon


@pytest.fixture
def family():
    return HashCurveFamily(30)


class TestGeometricHashTable:
    def test_insert_and_candidates(self, family):
        table = GeometricHashTable(family)
        table.insert(1, (3, 7, 12, 20))
        table.insert(2, (3, 8, 11, 20))
        assert 1 in table.candidates((3, 1, 1, 1))
        assert 2 in table.candidates((3, 1, 1, 1))
        assert table.candidates((4, 1, 1, 1)) == set()

    def test_neighbor_radius(self, family):
        table = GeometricHashTable(family)
        table.insert(1, (5, 0, 0, 0))
        assert table.candidates((6, 0, 0, 0)) == set()
        assert table.candidates((6, 0, 0, 0), neighbor_radius=1) == {1}

    def test_empty_quarter_ignored(self, family):
        table = GeometricHashTable(family)
        table.insert(1, (0, 0, 0, 5))
        assert table.candidates((1, 2, 3, 5)) == {1}
        assert len(table) == 1

    def test_remove(self, family):
        table = GeometricHashTable(family)
        table.insert(1, (3, 7, 12, 20))
        table.remove(1)
        assert table.candidates((3, 7, 12, 20)) == set()
        assert table.signature(1) is None
        table.remove(1)        # idempotent

    def test_occupancy(self, family):
        table = GeometricHashTable(family)
        table.insert(1, (3, 0, 0, 0))
        table.insert(2, (3, 0, 0, 0))
        table.insert(3, (4, 0, 0, 0))
        occupancy = table.occupancy()
        assert occupancy[2] == 1
        assert occupancy[1] == 1
        assert table.num_buckets == 2


class TestApproximateRetriever:
    @pytest.fixture
    def setup(self, rng):
        base = ShapeBase(alpha=0.05)
        shapes = []
        for i in range(30):
            shape = star_shaped_polygon(rng, int(rng.integers(8, 16)))
            shapes.append(shape)
            base.add_shape(shape, image_id=i)
        return base, shapes

    def test_exact_copy_retrieved(self, setup):
        base, shapes = setup
        retriever = ApproximateRetriever(base, k_curves=40)
        matches = retriever.query(shapes[7], k=1)
        assert matches
        assert matches[0].shape_id == 7
        assert matches[0].distance == pytest.approx(0.0, abs=1e-9)
        assert matches[0].approximate

    def test_transformed_copy_retrieved(self, setup):
        base, shapes = setup
        retriever = ApproximateRetriever(base, k_curves=40)
        query = shapes[12].rotated(0.9).scaled(4.0).translated(100, -5)
        matches = retriever.query(query, k=1)
        assert matches[0].shape_id == 12

    def test_k_best_sorted(self, setup):
        base, shapes = setup
        retriever = ApproximateRetriever(base, k_curves=40)
        matches = retriever.query(shapes[3], k=5, neighbor_radius=3)
        distances = [m.distance for m in matches]
        assert distances == sorted(distances)

    def test_wider_radius_never_worse(self, setup):
        base, shapes = setup
        retriever = ApproximateRetriever(base, k_curves=40)
        narrow = retriever.query(shapes[5], k=1, neighbor_radius=0)
        wide = retriever.query(shapes[5], k=1, neighbor_radius=4)
        if narrow and wide:
            assert wide[0].distance <= narrow[0].distance + 1e-12

    def test_signature_of(self, setup):
        base, shapes = setup
        retriever = ApproximateRetriever(base, k_curves=40)
        quad = retriever.signature_of(shapes[0])
        assert len(quad) == 4

    def test_more_curves_fewer_per_bucket(self, setup):
        base, _ = setup
        few = ApproximateRetriever(base, k_curves=5)
        many = ApproximateRetriever(base, k_curves=80)

        def mean_occupancy(retriever):
            occupancy = retriever.table.occupancy()
            total = sum(size * count for size, count in occupancy.items())
            return total / max(1, sum(occupancy.values()))

        assert mean_occupancy(many) < mean_occupancy(few)


class TestTiesRankLikeTheReferee:
    def test_duplicated_image(self, rng):
        """One image stored twice: every shape has a twin at exactly its
        distance.  Whenever the hash tier finds the referee's distances
        it must return the referee's ids — a tie goes to the lower shape
        id, not to the iteration order of a candidate set."""
        shapes = [star_shaped_polygon(rng, int(rng.integers(8, 16)))
                  for _ in range(16)]
        base = ShapeBase(alpha=0.05)
        base.add_shapes(shapes, image_ids=[0] * len(shapes))
        base.add_shapes(shapes, image_ids=[1] * len(shapes))
        retriever = ApproximateRetriever(base, k_curves=40)
        referee = ReferenceExecutor(base)
        queries = []
        for shape in shapes:
            noisy = shape.vertices + rng.normal(0, 0.01, shape.vertices.shape)
            queries += [shape, shape.rotated(1.1).scaled(3.0).translated(5, -2),
                        Shape(noisy)]
        compared = 0
        for query in queries:
            got = retriever.query(query, k=3)
            want = referee.top_k(query, 3)
            if [m.distance for m in got] == [m.distance for m in want]:
                compared += 1
                assert [m.shape_id for m in got] == \
                    [m.shape_id for m in want]
        assert compared >= 12
