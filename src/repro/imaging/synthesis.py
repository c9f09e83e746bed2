"""Synthetic image/shape workload generation.

The paper's experiments run on a base of 10,000 images averaging 5.5
shapes per image and ~20 vertices per shape, extracted from real images
we do not have.  This module synthesizes workloads with the same
statistical profile (see DESIGN.md, substitutions):

* a pool of *prototype* shapes from several parametric families
  (blobs, stars, notched boxes, zigzag polylines, regular polygons);
* per image, a handful of prototypes re-instanced with vertex-level
  distortion and a random similarity placement — the same artefacts
  automated boundary extraction introduces and the criterion is built
  to tolerate;
* ground-truth prototype labels, so retrieval accuracy is measurable.

Everything is driven by an explicit ``numpy.random.Generator``; the
same seed reproduces the same base bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..geometry.polyline import Shape


# ----------------------------------------------------------------------
# Prototype families
# ----------------------------------------------------------------------
def random_blob(rng: np.random.Generator, num_vertices: int = 20,
                irregularity: float = 0.35) -> Shape:
    """Star-shaped random polygon (guaranteed simple).

    Radii are a smoothed random walk around a unit circle; higher
    ``irregularity`` gives craggier outlines.
    """
    if num_vertices < 3:
        raise ValueError("need at least three vertices")
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, num_vertices))
    radii = 1.0 + irregularity * rng.standard_normal(num_vertices)
    # Light smoothing keeps the outline blob-like rather than spiky.
    radii = np.convolve(np.concatenate([radii[-1:], radii, radii[:1]]),
                        [0.25, 0.5, 0.25], mode="valid")
    radii = np.clip(radii, 0.2, None)
    return Shape(np.column_stack([radii * np.cos(angles),
                                  radii * np.sin(angles)]), closed=True)


def star_polygon(points: int = 5, inner: float = 0.45,
                 outer: float = 1.0, phase: float = 0.0) -> Shape:
    """A classic star with ``points`` spikes."""
    if points < 3:
        raise ValueError("a star needs at least three points")
    angles = phase + math.pi * np.arange(2 * points) / points
    radii = np.where(np.arange(2 * points) % 2 == 0, outer, inner)
    return Shape(np.column_stack([radii * np.cos(angles),
                                  radii * np.sin(angles)]), closed=True)


def notched_box(notch: float = 0.4) -> Shape:
    """A rectangle with a rectangular notch (an "L/C" CAD-like part)."""
    if not 0.0 < notch < 1.0:
        raise ValueError("notch must be in (0, 1)")
    return Shape([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (notch, 1.0),
                  (notch, notch), (0.0, notch)], closed=True)


def zigzag_polyline(rng: np.random.Generator, num_vertices: int = 12,
                    amplitude: float = 0.3) -> Shape:
    """An open polyline: a jittered zigzag (river/road-like boundary)."""
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    x = np.linspace(0.0, 2.0, num_vertices)
    y = amplitude * np.where(np.arange(num_vertices) % 2 == 0, 1.0, -1.0)
    y = y + 0.3 * amplitude * rng.standard_normal(num_vertices)
    return Shape(np.column_stack([x, y]), closed=False)


def prototype_pool(rng: np.random.Generator, count: int = 12,
                   vertices_mean: float = 20.0) -> List[Shape]:
    """A mixed pool of prototypes with ~``vertices_mean`` vertices each."""
    pool: List[Shape] = []
    for index in range(count):
        kind = index % 5
        nv = max(6, int(rng.normal(vertices_mean, vertices_mean / 5)))
        if kind == 0:
            pool.append(random_blob(rng, nv, irregularity=0.3))
        elif kind == 1:
            pool.append(star_polygon(points=max(3, nv // 4),
                                     inner=float(rng.uniform(0.35, 0.6)),
                                     phase=float(rng.uniform(0, math.pi))))
        elif kind == 2:
            pool.append(notched_box(float(rng.uniform(0.25, 0.6))))
        elif kind == 3:
            pool.append(zigzag_polyline(rng, max(5, nv // 2),
                                        amplitude=float(rng.uniform(0.2, 0.4))))
        else:
            # Distinct side counts per pool slot: two regular polygons
            # with the same side count are identical after
            # normalization, which would make ground truth ambiguous.
            pool.append(Shape.regular_polygon(3 + (index % 11),
                                              phase=float(rng.uniform(0, 1))))
    return pool


# ----------------------------------------------------------------------
# Distortion and placement
# ----------------------------------------------------------------------
def distort(shape: Shape, noise: float, rng: np.random.Generator) -> Shape:
    """Jitter each vertex by gaussian noise relative to the diameter.

    ``noise`` is the standard deviation as a fraction of the shape's
    diameter — the scale-free way to say "2% boundary noise".
    """
    if noise < 0:
        raise ValueError("noise must be non-negative")
    from ..geometry.diameter import diameter
    _, diam = diameter(shape.vertices)
    jitter = rng.normal(0.0, noise * diam, shape.vertices.shape)
    return Shape(shape.vertices + jitter, closed=shape.closed)


def place_randomly(shape: Shape, rng: np.random.Generator,
                   canvas: float = 100.0,
                   scale_range=(2.0, 8.0)) -> Shape:
    """Random rotation, scale and translation into a canvas."""
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    scale = float(rng.uniform(*scale_range))
    placed = shape.rotated(angle).scaled(scale)
    xmin, ymin, xmax, ymax = placed.bbox()
    dx = float(rng.uniform(-xmin, max(canvas - xmax, -xmin + 1e-9)))
    dy = float(rng.uniform(-ymin, max(canvas - ymax, -ymin + 1e-9)))
    return placed.translated(dx, dy)


# ----------------------------------------------------------------------
# Whole-base generation
# ----------------------------------------------------------------------
@dataclass
class GeneratedImage:
    """One synthetic image: its shapes plus prototype ground truth."""

    image_id: int
    shapes: List[Shape] = field(default_factory=list)
    labels: List[int] = field(default_factory=list)    # prototype index


@dataclass
class SyntheticWorkload:
    """A full generated base plus the prototype pool it came from."""

    prototypes: List[Shape]
    images: List[GeneratedImage]

    @property
    def num_shapes(self) -> int:
        return sum(len(image.shapes) for image in self.images)

    def all_shapes(self) -> List[Shape]:
        return [s for image in self.images for s in image.shapes]

    def add_to(self, base) -> List[int]:
        """Bulk-ingest every shape into ``base`` (a ``ShapeBase`` or
        anything with its ``add_shapes``), each under its image's id;
        returns the assigned shape ids."""
        return base.add_shapes(
            self.all_shapes(),
            image_ids=[image.image_id for image in self.images
                       for _ in image.shapes])


def generate_workload(num_images: int, rng: np.random.Generator,
                      shapes_per_image: float = 5.5,
                      vertices_mean: float = 20.0,
                      noise: float = 0.01,
                      num_prototypes: int = 12,
                      prototypes: Optional[Sequence[Shape]] = None,
                      canvas: float = 100.0) -> SyntheticWorkload:
    """Generate a base with the paper's statistical profile.

    Shape counts per image are Poisson around ``shapes_per_image``
    (min 1); each instance is a distorted, randomly placed prototype.
    """
    if num_images < 0:
        raise ValueError("num_images must be non-negative")
    pool = list(prototypes) if prototypes is not None else \
        prototype_pool(rng, num_prototypes, vertices_mean)
    images: List[GeneratedImage] = []
    for image_id in range(num_images):
        count = max(1, int(rng.poisson(shapes_per_image)))
        image = GeneratedImage(image_id)
        for _ in range(count):
            proto_index = int(rng.integers(len(pool)))
            instance = distort(pool[proto_index], noise, rng)
            instance = place_randomly(instance, rng, canvas)
            image.shapes.append(instance)
            image.labels.append(proto_index)
        images.append(image)
    return SyntheticWorkload(prototypes=pool, images=images)


def make_query_set(workload: SyntheticWorkload, count: int,
                   rng: np.random.Generator,
                   noise: float = 0.015) -> List[tuple]:
    """Seeded query set: (query shape, true prototype index) pairs.

    Mirrors the paper's "representative experiment set of 15 similarity
    queries": each query is a freshly distorted, freshly placed
    prototype instance, so the correct answers are known.
    """
    queries = []
    for _ in range(count):
        proto_index = int(rng.integers(len(workload.prototypes)))
        query = distort(workload.prototypes[proto_index], noise, rng)
        query = place_randomly(query, rng)
        queries.append((query, proto_index))
    return queries
