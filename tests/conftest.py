"""Shared fixtures: deterministic RNGs, shape factories, populated bases."""

import numpy as np
import pytest

from repro import Shape, ShapeBase
from repro.imaging.synthesis import (distort, generate_workload,
                                     place_randomly, prototype_pool)


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


def star_shaped_polygon(rng, num_vertices=12, radius_low=0.5,
                        radius_high=1.5):
    """Random simple polygon: sorted angles + random radii (star-shaped)."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, num_vertices))
    # Avoid duplicate angles which can create coincident vertices.
    angles = angles + np.linspace(0.0, 1e-6, num_vertices)
    radii = rng.uniform(radius_low, radius_high, num_vertices)
    points = np.column_stack([radii * np.cos(angles),
                              radii * np.sin(angles)])
    return Shape(points, closed=True)


def assert_same_base(a: ShapeBase, b: ShapeBase):
    """Two bases hold the same shapes, entries and flat index arrays,
    bit for bit — however each was built, loaded or patched."""
    assert list(a.shapes) == list(b.shapes)
    assert a.shape_image == b.shape_image
    assert a.alpha == b.alpha and a.num_entries == b.num_entries
    assert a.image_ids() == b.image_ids()
    for sid in a.shapes:
        assert a.shapes[sid].closed == b.shapes[sid].closed
        assert np.array_equal(a.shapes[sid].vertices, b.shapes[sid].vertices)
        assert a.entries_of_shape(sid) == b.entries_of_shape(sid)
    for ea, eb in zip(a.entries, b.entries):
        assert (ea.entry_id, ea.shape_id, ea.image_id, ea.copy.pair) == \
               (eb.entry_id, eb.shape_id, eb.image_id, eb.copy.pair)
        assert ea.copy.transform.as_tuple() == eb.copy.transform.as_tuple()
        assert np.array_equal(ea.shape.vertices, eb.shape.vertices)
    for base in (a, b):
        base._ensure_arrays()
    for name in ("_vertex_points", "_vertex_owner", "_entry_sizes",
                 "_entry_offsets", "_anchor_at", "_anchor_points"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def benchmark_like_base(seed, images=32):
    """The benchmark corpus recipe: twelve prototypes, four shapes an
    image, 1 % boundary noise, alpha 0.1 (seed 1 is its 1 290 copies)."""
    pool = prototype_pool(np.random.default_rng(2002), 12)
    rng = np.random.default_rng([seed, 0])
    labels = rng.permutation(np.arange(4 * images) % 12)
    base = ShapeBase(alpha=0.1)
    for image in range(images):
        base.add_shapes([place_randomly(distort(pool[label], 0.01, rng), rng)
                         for label in labels[4 * image:4 * image + 4]],
                        image_ids=[image] * 4)
    return base


def served_engine(base, similarity_threshold=0.05, angle_tolerance=0.15,
                  *, planner=True, cache_capacity=256):
    """A ``QueryEngine`` over ``base`` served by a one-shard, one-worker
    ``RetrievalService`` (runs inline, needs no ``close()``).

    The service shards a copy of ``base``: mutate the corpus through
    ``engine.service.ingest`` / ``.remove``, not through ``base``.
    """
    from repro.query import QueryEngine
    from repro.service import RetrievalService, ServiceConfig
    service = RetrievalService.from_base(base, ServiceConfig(
        num_shards=1, workers=1, cache_capacity=cache_capacity))
    return QueryEngine(service, similarity_threshold, angle_tolerance,
                       planner=planner)


@pytest.fixture
def shape_factory(rng):
    """Callable producing random simple polygons."""
    def factory(num_vertices=12):
        return star_shaped_polygon(rng, num_vertices)
    return factory


@pytest.fixture
def square():
    return Shape.rectangle(0.0, 0.0, 1.0, 1.0)


@pytest.fixture
def triangle():
    return Shape([(0.0, 0.0), (4.0, 0.0), (2.0, 3.0)])


@pytest.fixture
def open_polyline():
    return Shape([(0.0, 0.0), (1.0, 0.5), (2.0, 0.0), (3.0, 1.0)],
                 closed=False)


@pytest.fixture
def small_base(rng):
    """A ShapeBase with 30 random shapes across 10 images."""
    base = ShapeBase(alpha=0.05)
    shapes = []
    for i in range(30):
        shape = star_shaped_polygon(rng, int(rng.integers(8, 16)))
        shapes.append(shape)
        base.add_shape(shape, image_id=i % 10)
    base.source_shapes = shapes        # test-only convenience attribute
    return base


@pytest.fixture
def tiny_workload(rng):
    """A small synthetic workload (12 images)."""
    return generate_workload(12, rng, shapes_per_image=3.0, noise=0.008,
                             num_prototypes=6)
