"""Common interface for the simplex-range-search backends.

The matcher (Section 2.5) needs two operations over the static set of
all shape-base vertices:

* ``report_triangle(a, b, c)`` — indices of the vertices inside a query
  triangle (simplex range *reporting*, the per-iteration workhorse), and
* ``count_triangle(a, b, c)`` — their number (simplex range *counting*,
  used while calibrating the initial envelope width in step 1).

Each envelope iteration asks about O(m) cover triangles at once, so
every backend also answers the *batch* forms:

* ``report_triangles(triangles)`` — the deduplicated union of the
  per-triangle reports, and
* ``count_triangles(triangles)`` — the per-triangle counts, and
* ``candidates(triangles)`` — unique ids that include every reported
  one, at whatever granularity (``resolution``) the backend resolves
  without testing single points; the matcher refines them itself.

The defaults here loop over the scalar methods (exact by construction);
backends with a fused traversal (the kd-tree, the brute scan) override
them.  Batched answers are required to match the per-triangle loop
bit-for-bit — that equivalence is property-tested across all backends.

The paper cites near-quadratic-space structures with
``O(log^3 n + kappa)`` query time [17]; see DESIGN.md for why we
substitute a kd-tree and a fractional-cascading range tree.  All
backends are exact and interchangeable — equivalence against the brute
oracle is property-tested.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..geometry.primitives import as_points

Point = Sequence[float]


def as_triangle_array(triangles) -> np.ndarray:
    """Normalize a batch of triangles to a float64 ``(m, 3, 2)`` array.

    Accepts a sequence of ``(3, 2)`` array-likes or an already stacked
    ``(m, 3, 2)`` array (the output of
    :func:`repro.geometry.envelope.band_cover_triangles`); zero-copy
    for the latter.
    """
    if isinstance(triangles, np.ndarray) and triangles.ndim == 3 and \
            triangles.shape[1:] == (3, 2) and triangles.dtype == np.float64:
        return triangles
    array = np.asarray(triangles, dtype=np.float64)
    if array.size == 0:
        return np.zeros((0, 3, 2))
    if array.ndim == 2 and array.shape == (3, 2):
        array = array[None, :, :]
    if array.ndim != 3 or array.shape[1:] != (3, 2):
        raise ValueError(f"expected (m, 3, 2) triangles, got array of "
                         f"shape {array.shape}")
    return array


class TriangleRangeIndex:
    """Abstract base: a static point set queryable by triangle."""

    def __init__(self, points: np.ndarray):
        self.points = as_points(points)
        self.points.setflags(write=False)

    def __len__(self) -> int:
        return len(self.points)

    def report_triangle(self, a: Point, b: Point, c: Point) -> np.ndarray:
        """Sorted indices of the points inside (or on) triangle ``abc``."""
        raise NotImplementedError

    def count_triangle(self, a: Point, b: Point, c: Point) -> int:
        """Number of points inside (or on) triangle ``abc``."""
        return len(self.report_triangle(a, b, c))

    def report_triangles(self, triangles) -> np.ndarray:
        """Sorted unique indices of the points inside *any* triangle.

        Equals ``unique(concat(report_triangle(t) for t in triangles))``
        — the contract the batch-vs-scalar equivalence tests enforce.
        """
        tris = as_triangle_array(triangles)
        chunks = [self.report_triangle(t[0], t[1], t[2]) for t in tris]
        chunks = [c for c in chunks if len(c)]
        if not chunks:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate(chunks))

    @property
    def resolution(self) -> float:
        """Width below which :meth:`candidates` stops discriminating.

        A band thinner than this costs the same :meth:`candidates` call
        as one this wide, so a caller growing a region step by step may
        as well ask for this much at once.  ``0.0`` (the default) means
        candidates are exact reports; a property of the built structure,
        never a setting, and never something correctness depends on.
        """
        return 0.0

    def candidates(self, triangles) -> np.ndarray:
        """Unique indices, a superset of :meth:`report_triangles`.

        The filter half of filter-and-refine: the index answers at the
        granularity it resolves cheaply and the caller refines with its
        own exact predicate.  The default is the exact report.
        """
        return self.report_triangles(triangles)

    def count_triangles(self, triangles) -> np.ndarray:
        """Per-triangle point counts, as an ``(m,)`` int64 array.

        A point inside several (overlapping) triangles contributes to
        each of their counts, exactly like the per-triangle loop.
        """
        tris = as_triangle_array(triangles)
        return np.array([self.count_triangle(t[0], t[1], t[2])
                         for t in tris], dtype=np.int64)

    def report_box(self, xmin: float, ymin: float, xmax: float,
                   ymax: float) -> np.ndarray:
        """Sorted indices of the points inside the closed AABB."""
        raise NotImplementedError

    def count_box(self, xmin: float, ymin: float, xmax: float,
                  ymax: float) -> int:
        return len(self.report_box(xmin, ymin, xmax, ymax))

    def removed(self, keep_mask: np.ndarray) -> "TriangleRangeIndex":
        """A new index over ``points[keep_mask]`` (ids renumbered densely).

        The default rebuilds from scratch; backends with a patchable
        layout (the kd-tree) override this with a structural O(n)
        shrink.  The returned index is always a *new* object — callers
        rely on identity change to invalidate derived caches.
        """
        keep = np.asarray(keep_mask, dtype=bool)
        if keep.shape != (len(self.points),):
            raise ValueError("keep_mask must have one flag per point")
        return type(self)(self.points[keep])


def make_index(points: np.ndarray, backend: str = "kdtree",
               **kwargs) -> TriangleRangeIndex:
    """Factory for the configured range-search backend.

    ``backend`` is one of ``"kdtree"``, ``"rangetree"`` or ``"brute"``.
    """
    from .brute import BruteForceIndex
    from .external import ExternalSpatialIndex
    from .kdtree import KdTreeIndex
    from .layered_range_tree import LayeredRangeTreeIndex

    backends = {
        "kdtree": KdTreeIndex,
        "rangetree": LayeredRangeTreeIndex,
        "brute": BruteForceIndex,
        "external": ExternalSpatialIndex,
    }
    try:
        cls = backends[backend]
    except KeyError:
        raise ValueError(f"unknown range-search backend {backend!r}; "
                         f"expected one of {sorted(backends)}") from None
    return cls(points, **kwargs)
