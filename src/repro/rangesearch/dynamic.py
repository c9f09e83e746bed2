"""Incremental point insertion over the static range-search backends.

The tree backends are built once over a static point set — ideal for
bulk ingest and snapshot loads, wasteful when single shapes trickle in
and each insert triggers a full O(n log n) rebuild.
:class:`IncrementalIndex` is the standard static-to-dynamic bridge: a
frozen *core* index plus a small brute-force *tail* holding the points
added since the last build.  Queries answer from both parts (tail ids
are offset past the core, so the combined answer is exactly what a
fresh index over the concatenated points would report), and the tail is
folded into a new core build once it grows past a fraction of the core.

``IncrementalIndex.extended`` is the single entry point: give it any
index plus new points and it either grows the tail or re-builds,
whichever is cheaper.
"""

from __future__ import annotations

import numpy as np

from ..geometry.primitives import as_points
from .base import Point, TriangleRangeIndex, make_index
from .brute import BruteForceIndex

#: The tail is folded into a fresh core build when it exceeds
#: ``max(_TAIL_MIN, _TAIL_FRACTION * len(core))`` points.
_TAIL_MIN = 64
_TAIL_FRACTION = 0.25


def fold_threshold(core_size: int) -> float:
    """Tail size past which folding beats brute-force scans."""
    return max(_TAIL_MIN, _TAIL_FRACTION * core_size)


class IncrementalIndex(TriangleRangeIndex):
    """A static core index plus a brute-force tail of recent inserts.

    Point ids are positions in ``concat(core.points, tail_points)``:
    core points keep their ids, tail points get ids past the core.
    Since every backend reports sorted ids and all tail ids exceed all
    core ids, concatenating the two sorted answers is already sorted.
    """

    def __init__(self, core: TriangleRangeIndex, tail_points: np.ndarray):
        tail = as_points(tail_points)
        super().__init__(np.concatenate([core.points, tail], axis=0)
                         if len(tail) else core.points)
        self._core = core
        self._tail = BruteForceIndex(tail)
        self._offset = len(core.points)

    # -- growth / shrinkage --------------------------------------------
    @classmethod
    def extended(cls, index: TriangleRangeIndex, new_points: np.ndarray,
                 backend: str = "kdtree", fold: bool = True,
                 **kwargs) -> TriangleRangeIndex:
        """``index`` grown by ``new_points`` (appended, ids past the end).

        Wraps (or extends the wrap of) ``index`` with a brute tail while
        the tail stays small, otherwise folds everything into one fresh
        ``make_index`` build.  Always returns a new object.

        With ``fold=False`` the tail grows without bound and the fold
        decision moves to the caller (:meth:`fold`).
        """
        added = as_points(new_points)
        if isinstance(index, IncrementalIndex):
            core = index._core
            tail = np.concatenate([index._tail.points, added], axis=0) \
                if len(added) else index._tail.points
        else:
            core = index
            tail = added
        if fold and len(tail) > fold_threshold(len(core.points)):
            return make_index(np.concatenate([core.points, tail], axis=0),
                              backend, **kwargs)
        return cls(core, tail)

    @property
    def tail_size(self) -> int:
        """Points in the brute-force tail (the unfolded delta)."""
        return len(self._tail.points)

    @property
    def core_size(self) -> int:
        return self._offset

    def needs_fold(self) -> bool:
        """True once the tail has outgrown the core's fold threshold."""
        return self.tail_size > fold_threshold(self.core_size)

    def fold(self, backend: str = "kdtree", **kwargs) -> TriangleRangeIndex:
        """A fresh static build over all points (core + tail).

        Pure: ``self`` is untouched, so a caller can build the fold
        without a lock and swap the result in atomically afterwards.
        """
        return make_index(self.points, backend, **kwargs)

    def removed(self, keep_mask: np.ndarray) -> TriangleRangeIndex:
        keep = np.asarray(keep_mask, dtype=bool)
        if keep.shape != (len(self.points),):
            raise ValueError("keep_mask must have one flag per point")
        core_keep = keep[:self._offset]
        tail_keep = keep[self._offset:]
        new_core = self._core.removed(core_keep)
        new_tail = self._tail.points[tail_keep]
        if len(new_tail) == 0:
            return new_core
        return IncrementalIndex(new_core, new_tail)

    # -- queries --------------------------------------------------------
    def report_triangle(self, a: Point, b: Point, c: Point) -> np.ndarray:
        core_hits = self._core.report_triangle(a, b, c)
        tail_hits = self._tail.report_triangle(a, b, c)
        if not len(tail_hits):
            return core_hits
        return np.concatenate([core_hits, tail_hits + self._offset])

    def count_triangle(self, a: Point, b: Point, c: Point) -> int:
        return (self._core.count_triangle(a, b, c) +
                self._tail.count_triangle(a, b, c))

    def report_triangles(self, triangles) -> np.ndarray:
        core_hits = self._core.report_triangles(triangles)
        tail_hits = self._tail.report_triangles(triangles)
        if not len(tail_hits):
            return core_hits
        return np.concatenate([core_hits, tail_hits + self._offset])

    @property
    def resolution(self) -> float:
        return self._core.resolution

    def candidates(self, triangles) -> np.ndarray:
        return np.concatenate([self._core.candidates(triangles),
                               self._tail.candidates(triangles) +
                               self._offset])

    def count_triangles(self, triangles) -> np.ndarray:
        return (self._core.count_triangles(triangles) +
                self._tail.count_triangles(triangles))

    def report_box(self, xmin: float, ymin: float, xmax: float,
                   ymax: float) -> np.ndarray:
        core_hits = self._core.report_box(xmin, ymin, xmax, ymax)
        tail_hits = self._tail.report_box(xmin, ymin, xmax, ymax)
        if not len(tail_hits):
            return core_hits
        return np.concatenate([core_hits, tail_hits + self._offset])

    def count_box(self, xmin: float, ymin: float, xmax: float,
                  ymax: float) -> int:
        return (self._core.count_box(xmin, ymin, xmax, ymax) +
                self._tail.count_box(xmin, ymin, xmax, ymax))
