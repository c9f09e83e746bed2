"""Brute-force range search: the correctness oracle.

O(n) per query; used in tests to validate the tree backends and as a
sane default for tiny bases where building an index is not worth it.
"""

from __future__ import annotations

import numpy as np

from ..geometry.predicates import points_in_triangle
from .base import Point, TriangleRangeIndex, as_triangle_array


class BruteForceIndex(TriangleRangeIndex):
    """Linear-scan implementation of :class:`TriangleRangeIndex`."""

    def report_triangle(self, a: Point, b: Point, c: Point) -> np.ndarray:
        mask = points_in_triangle(self.points, a, b, c)
        return np.nonzero(mask)[0]

    def count_triangle(self, a: Point, b: Point, c: Point) -> int:
        return int(points_in_triangle(self.points, a, b, c).sum())

    def report_triangles(self, triangles) -> np.ndarray:
        # Accumulate one membership mask; nonzero of the union equals
        # the deduplicated concatenation of the per-triangle reports.
        tris = as_triangle_array(triangles)
        if len(self.points) == 0 or len(tris) == 0:
            return np.zeros(0, dtype=np.int64)
        mask = np.zeros(len(self.points), dtype=bool)
        for t in tris:
            mask |= points_in_triangle(self.points, t[0], t[1], t[2])
        return np.nonzero(mask)[0]

    @property
    def resolution(self) -> float:
        return float("inf")

    def candidates(self, triangles) -> np.ndarray:
        """Every id: a scan resolves nothing without testing points."""
        return np.arange(len(self.points))

    def report_box(self, xmin: float, ymin: float, xmax: float,
                   ymax: float) -> np.ndarray:
        p = self.points
        mask = ((p[:, 0] >= xmin) & (p[:, 0] <= xmax) &
                (p[:, 1] >= ymin) & (p[:, 1] <= ymax))
        return np.nonzero(mask)[0]
