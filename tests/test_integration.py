"""Cross-module integration tests: full pipelines end to end."""

import numpy as np
import pytest

from repro import GeometricSimilarityMatcher, Shape, ShapeBase
from repro.geosir import GeoSIR
from repro.hashing import HashCurveFamily
from repro.imaging import (generate_workload, make_query_set,
                           rasterize_shapes)
from repro.query import Similar, contain
from repro.storage import ExternalShapeStore, compute_signatures
from tests.conftest import served_engine, star_shaped_polygon


class TestRasterToRetrieval:
    """images -> rasters -> extraction -> base -> retrieval."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        rng = np.random.default_rng(808)
        workload = generate_workload(10, rng, shapes_per_image=2.5,
                                     noise=0.005, num_prototypes=5)
        system = GeoSIR(alpha=0.08, match_threshold=0.08)
        for image in workload.images:
            raster = rasterize_shapes(image.shapes, 150, 150)
            system.add_image(raster=raster, image_id=image.image_id)
        return system, workload, rng

    def test_extraction_populates_base(self, pipeline):
        system, workload, _ = pipeline
        # Extraction can merge overlapping silhouettes, but most shapes
        # should survive as separate boundaries.
        assert system.base.num_shapes >= workload.num_shapes * 0.5

    def test_retrieval_through_extraction_noise(self, pipeline):
        """A vector sketch retrieves its raster-extracted counterpart."""
        system, workload, rng = pipeline
        hits = 0
        total = 0
        for query, label in make_query_set(workload, 5,
                                           np.random.default_rng(3),
                                           noise=0.005):
            result = system.retrieve(query, k=1)
            if result.best is None:
                continue
            total += 1
            # The best match must be geometrically close, whatever
            # extraction did to the exact vertices.
            if result.best.distance < 0.08 or result.method == "hashing":
                hits += 1
        assert total >= 3
        assert hits >= total - 1


class TestStorageRoundTrip:
    """The external store is a faithful, queryable copy of the base."""

    def test_rebuild_base_from_store(self, rng):
        base = ShapeBase(alpha=0.05)
        shapes = []
        for i in range(15):
            shape = star_shaped_polygon(rng, int(rng.integers(8, 14)))
            shapes.append(shape)
            base.add_shape(shape, image_id=i)
        signatures = compute_signatures(base, HashCurveFamily(30))
        store = ExternalShapeStore(base, layout="mean",
                                   signatures=signatures)

        # Rehydrate every entry from disk blocks and rebuild a base.
        rebuilt = ShapeBase(alpha=0.05)
        seen_shapes = {}
        for entry_id in range(base.num_entries):
            record = store.read_entry(entry_id)
            entry = record.to_entry()
            if entry.shape_id not in seen_shapes:
                # Reconstruct the original shape from the inverse
                # transform of the first copy seen.
                original = entry.copy.inverse.apply_shape(entry.shape)
                rebuilt.add_shape(original, image_id=entry.image_id,
                                  shape_id=entry.shape_id)
                seen_shapes[entry.shape_id] = original

        # Retrieval through the rebuilt base agrees with the original.
        query = shapes[4].rotated(0.7)
        original_matches, _ = GeometricSimilarityMatcher(base).query(query)
        rebuilt_matches, _ = GeometricSimilarityMatcher(rebuilt).query(query)
        assert original_matches[0].shape_id == rebuilt_matches[0].shape_id
        assert rebuilt_matches[0].distance < 1e-3   # float32 round trip

    def test_trace_replay_determinism(self, rng):
        base = ShapeBase(alpha=0.05)
        for i in range(12):
            base.add_shape(star_shaped_polygon(rng, 10), image_id=i)
        signatures = compute_signatures(base, HashCurveFamily(30))
        store = ExternalShapeStore(base, layout="median",
                                   buffer_blocks=4, signatures=signatures)
        trace = list(range(0, base.num_entries, 2))
        first = store.replay_trace(trace, reset_buffer=True)
        second = store.replay_trace(trace, reset_buffer=True)
        assert first == second


class TestMatcherQueryEngineConsistency:
    """similar() through the engine == threshold query by hand."""

    def test_consistency(self, rng):
        base = ShapeBase(alpha=0.05)
        shapes = []
        for i in range(20):
            shape = star_shaped_polygon(rng, int(rng.integers(8, 14)))
            shapes.append(shape)
            base.add_shape(shape, image_id=i % 5)
        engine = served_engine(base, 0.05)
        matcher = GeometricSimilarityMatcher(base)
        query = shapes[3]
        via_engine = engine.shape_similar(query)
        matches, _ = matcher.query_threshold(query, 0.05)
        assert via_engine == {m.shape_id for m in matches}

    def test_is_similar_agrees_with_set(self, rng):
        base = ShapeBase(alpha=0.05)
        shapes = []
        for i in range(15):
            shape = star_shaped_polygon(rng, 10)
            shapes.append(shape)
            base.add_shape(shape, image_id=i)
        engine = served_engine(base, 0.05)
        query = shapes[7]
        members = engine.shape_similar(query)
        engine.service.cache.invalidate()   # force direct evaluation
        for shape_id in base.shape_ids():
            assert engine.is_similar(shape_id, query) == \
                (shape_id in members)


class TestSketchToTopology:
    def test_sketch_query_roundtrip(self, rng):
        """A sketch mimicking a stored image retrieves that image."""
        system = GeoSIR(alpha=0.05, similarity_threshold=0.05)
        outer = star_shaped_polygon(rng, 12,
                                    radius_low=0.95, radius_high=1.05)
        inner = star_shaped_polygon(rng, 8,
                                    radius_low=0.9, radius_high=1.1)
        # Image 0: inner inside outer.  Image 1: far apart.
        system.add_image(shapes=[outer.scaled(10).translated(50, 50),
                                 inner.scaled(2).translated(50, 50)],
                         image_id=0)
        system.add_image(shapes=[outer.scaled(10).translated(50, 50),
                                 inner.scaled(2).translated(200, 200)],
                         image_id=1)
        sketch = [outer.scaled(8).translated(30, 30),
                  inner.scaled(1.6).translated(30, 30)]
        node = system.sketch_query(sketch)
        result = system.query(node)
        assert result == {0}

    def test_hand_written_equivalent(self, rng):
        system = GeoSIR(alpha=0.05, similarity_threshold=0.05)
        outer = star_shaped_polygon(rng, 12, 0.95, 1.05)
        inner = star_shaped_polygon(rng, 8, 0.9, 1.1)
        system.add_image(shapes=[outer.scaled(10).translated(50, 50),
                                 inner.scaled(2).translated(50, 50)],
                         image_id=0)
        node = Similar(outer) & contain(outer, inner)
        assert system.query(node) == {0}
