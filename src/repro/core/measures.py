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

from typing import List, Optional, Sequence

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


def entry_measures(engine: BoundaryDistance, base,
                   entry_ids: Sequence[int]) -> List[float]:
    """Discrete ``h_avg`` of base entries against ``engine``'s shape: one
    engine call over their stacked vertices, then a ``.mean()`` per entry
    slice — bitwise :func:`directed_average_distance` per entry, since a
    row's distance ignores the other rows and each slice sums in the
    same order (``np.add.reduceat`` does not)."""
    if len(entry_ids) == 0:
        return []
    stacked, offsets = base.entry_vertices_batch(entry_ids)
    distances = engine.distances(stacked)
    return [float(distances[offsets[i]:offsets[i + 1]].mean())
            for i in range(len(entry_ids))]


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
