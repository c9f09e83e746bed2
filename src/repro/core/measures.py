"""Shape similarity measures (paper Sections 2.1-2.2).

Implements the full ladder the paper walks through:

* directed and symmetric Hausdorff distance,
* the generalized (k-th ranked) Hausdorff distance of Huttenlocher and
  Rucklidge,
* the paper's contribution, the *average minimum point distance*
  ``h_avg(A, B) = average_{a in A} min_{b in B} d(a, b)`` — in a
  discrete (vertex) form and in the continuous form the paper actually
  defines, where the average runs over all points of the boundary of A
  (approximated by arc-length quadrature).

All functions accept :class:`~repro.geometry.Shape` instances; a
precomputed :class:`~repro.geometry.BoundaryDistance` for the target
can be supplied to amortize work across many sources (the matcher does
this with the query shape, standing in for the paper's "Voronoi diagram
of Q").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.nearest import BoundaryDistance
from ..geometry.polyline import Shape


def _target_engine(target: Shape,
                   engine: Optional[BoundaryDistance]) -> BoundaryDistance:
    if engine is not None:
        if engine.shape is not target and engine.shape != target:
            raise ValueError("distance engine was built for a different shape")
        return engine
    return BoundaryDistance(target)


def directed_hausdorff(source: Shape, target: Shape,
                       engine: Optional[BoundaryDistance] = None) -> float:
    """``h(A, B) = max_{a in A} min_{b in B} d(a, b)`` over A's vertices.

    The max runs over the source's vertices while min-distances are
    measured to the target's *continuous* boundary.
    """
    distances = _target_engine(target, engine).distances(source.vertices)
    return float(distances.max())


def hausdorff(a: Shape, b: Shape) -> float:
    """Symmetric Hausdorff distance ``H(A, B) = max(h(A,B), h(B,A))``."""
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def directed_kth_hausdorff(source: Shape, target: Shape, k: Optional[int] = None,
                           engine: Optional[BoundaryDistance] = None) -> float:
    """Generalized Hausdorff ``h_k``: the k-th *largest* min-distance.

    ``k = 1`` recovers the directed Hausdorff distance; the literature
    default (and ours, when ``k`` is omitted) is ``k = m/2``, the
    median.  Used as a baseline; the paper notes it only applies to
    finite point sets and fails the metric axioms.
    """
    distances = _target_engine(target, engine).distances(source.vertices)
    m = len(distances)
    if k is None:
        k = max(1, m // 2)
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    return float(np.sort(distances)[m - k])


def kth_hausdorff(a: Shape, b: Shape, k: Optional[int] = None) -> float:
    """Symmetric generalized Hausdorff distance."""
    return max(directed_kth_hausdorff(a, b, k), directed_kth_hausdorff(b, a, k))


def directed_average_distance(source: Shape, target: Shape,
                              engine: Optional[BoundaryDistance] = None
                              ) -> float:
    """Discrete ``h_avg``: average over the source's *vertices*.

    This is the variant the matcher's early-termination bound speaks
    about: a shape with a fraction ``beta`` of its vertices outside the
    ``epsilon``-envelope has discrete ``h_avg > beta * epsilon``.
    """
    distances = _target_engine(target, engine).distances(source.vertices)
    return float(distances.mean())


def slice_means(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``values[offsets[i]:offsets[i + 1]].mean()`` for every ``i``,
    bitwise: the slices of each exact length are gathered into one
    ``(g, length)`` block and averaged with ``.mean(axis=-1)``, which
    sums each row in a 1-D ``.mean()``'s pairwise order (padding and
    ``np.add.reduceat`` do not)."""
    starts = offsets[:-1]
    lengths = offsets[1:] - starts
    means = np.empty(len(lengths))
    for length in np.unique(lengths).tolist():
        group = np.flatnonzero(lengths == length)
        means[group] = values[starts[group, None] +
                              np.arange(length)].mean(axis=-1)
    return means


class DistanceMemo:
    """One query's boundary distances over the indexed vertices of a
    :meth:`ShapeBase.reader_view`: ``distance[i]`` is ``points[i]``'s
    once ``measured[i]``, and no vertex is measured twice."""

    __slots__ = ("distance", "measured", "points", "offsets")

    def __init__(self, num_points: int):
        self.distance = np.empty(num_points)
        self.measured = np.zeros(num_points, dtype=bool)
        self.points = self.offsets = None

    def reset(self) -> None:
        self.measured[:] = False

    def lookup(self, engine: BoundaryDistance, ids: np.ndarray,
               extra: np.ndarray = np.zeros((0, 2))) -> np.ndarray:
        """Distances of the distinct indexed ``ids``, then of the
        ``extra`` points, from at most one engine call."""
        new = ids[~self.measured[ids]]
        computed = (engine.distances(np.concatenate([self.points[new], extra]))
                    if len(new) or len(extra) else np.zeros(0))
        self.distance[new] = computed[:len(new)]
        self.measured[new] = True
        return np.concatenate([self.distance[ids], computed[len(new):]])

    def entry_rows(self, engine: BoundaryDistance, base,
                   entry_ids: Sequence[int]) -> Tuple[np.ndarray,
                                                      np.ndarray]:
        """The vertex distances of the distinct ``entry_ids`` laid out
        as :meth:`ShapeBase.entry_vertices_batch` lays out the vertices:
        indexed ones through :meth:`lookup`, with each copy's own two
        anchors (at ``copy.pair``; not exactly (0, 0) and (1, 0))."""
        stacked, offsets = base.entry_vertices_batch(entry_ids)
        at = (offsets[:-1, None] + np.array(
            [base.entry(e).copy.pair for e in entry_ids],
            dtype=np.int64).reshape(-1, 2)).ravel()
        first = self.offsets[entry_ids]
        sizes = self.offsets[np.asarray(entry_ids) + 1] - first
        indexed = np.arange(sizes.sum()) + np.repeat(
            first - (np.cumsum(sizes) - sizes), sizes)
        found = self.lookup(engine, indexed, stacked[at])
        rows = np.empty(offsets[-1])
        placed = np.ones(len(rows), dtype=bool)
        placed[at] = False
        rows[placed] = found[:len(indexed)]
        rows[at] = found[len(indexed):]
        return rows, offsets


def entry_measures(engine: BoundaryDistance, base,
                   entry_ids: Sequence[int],
                   memo: Optional[DistanceMemo] = None) -> List[float]:
    """Discrete ``h_avg`` of base entries against ``engine``'s shape: one
    engine call over their stacked vertices, then :func:`slice_means`
    over the entry slices — bitwise :func:`directed_average_distance`
    per entry, since a row's distance ignores the other rows.  With a
    ``memo`` of the same query (and distinct ``entry_ids``) only the
    vertices it does not know yet reach the engine."""
    if len(entry_ids) == 0:
        return []
    if memo is None:
        stacked, offsets = base.entry_vertices_batch(entry_ids)
        rows = engine.distances(stacked)
    else:
        rows, offsets = memo.entry_rows(engine, base, entry_ids)
    return slice_means(rows, offsets).tolist()


def continuous_average_distance(source: Shape, target: Shape,
                                engine: Optional[BoundaryDistance] = None,
                                samples_per_edge: int = 8) -> float:
    """Continuous ``h_avg``: boundary-length-weighted average distance.

    The paper's definition (Section 2.2, "we compute the average over
    all points of the continuous shape A").  The boundary integral
    ``(1 / |A|) * \\int_A dist(a, B) da`` is evaluated with a midpoint
    rule of ``samples_per_edge`` nodes per edge; the error is
    O(spacing^2) because the integrand is piecewise smooth.
    """
    points, weights = source.boundary_quadrature(samples_per_edge)
    distances = _target_engine(target, engine).distances(points)
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("source shape has zero-length boundary")
    return float((distances * weights).sum() / total)


def average_distance(a: Shape, b: Shape, continuous: bool = True,
                     samples_per_edge: int = 8) -> float:
    """Symmetric average-distance measure ``max(h_avg(A,B), h_avg(B,A))``.

    Symmetrized the same way the Hausdorff family is; the paper ranks
    matches by the directed value but the symmetric form is what the
    ``g_similar`` predicate of Section 5.1 evaluates between two
    database shapes.
    """
    if continuous:
        return max(continuous_average_distance(a, b, samples_per_edge=samples_per_edge),
                   continuous_average_distance(b, a, samples_per_edge=samples_per_edge))
    return max(directed_average_distance(a, b), directed_average_distance(b, a))


def similarity_score(a: Shape, b: Shape, continuous: bool = True) -> float:
    """Convenience ``1 / (1 + h_avg)`` score in ``(0, 1]`` (1 = identical)."""
    return 1.0 / (1.0 + average_distance(a, b, continuous=continuous))
