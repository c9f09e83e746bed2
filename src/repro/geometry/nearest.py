"""Nearest-boundary-distance engine for a fixed query shape.

Section 2.5 of the paper answers point-to-boundary distance queries
with "the Voronoi diagram of the query shape Q" (a segment Voronoi
diagram, O(m log m) to build, O(log m) per point location).  This
module scans all m edges instead, in the chunked per-coordinate pass of
:func:`~repro.geometry.primitives.points_segments_distance`:

* the paper's analysis treats m as a constant, and the query's m edges
  are few (tens), so a scan is O(m) per point with no Python per point;
* the matcher asks about points across the whole normalized copy — its
  widest envelope reaches 1.4 on a unit-diameter copy — so a point
  location structure prunes no edges there (a uniform grid bucketing
  edges by proximity measured 1.6x slower than this scan at that reach
  on the benchmark corpus);
* the scan is exact, and each distance is the same float whatever the
  batch it arrives in, which the matcher's per-query distance memo and
  the bitwise agreement of every scoring tier rely on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .polyline import Shape
from .primitives import (as_points, point_segment_distance,
                         points_segments_distance)


class BoundaryDistance:
    """Exact minimum distance from points to the boundary of one shape."""

    def __init__(self, shape: Shape):
        self.shape = shape
        starts, ends = shape.edges()
        self._starts = starts
        self._ends = ends

    def distances(self, points: np.ndarray) -> np.ndarray:
        """Min distance from each point to the shape boundary."""
        return points_segments_distance(as_points(points),
                                        self._starts, self._ends)

    def distance(self, point: Sequence[float]) -> float:
        return float(min(point_segment_distance(point, a, b)
                         for a, b in zip(self._starts, self._ends)))
