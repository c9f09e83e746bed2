"""Epsilon-envelopes of a query shape (paper Sections 2.3 and 2.5).

The ``epsilon``-envelope of a shape Q is the set of points at boundary
distance at most ``epsilon`` — the "fattened" query shape of Figure 3.
The matcher grows a sequence of envelopes and, at each step, must find
the shape-base vertices inside the *difference* of two consecutive
envelopes.  The paper decomposes that difference into O(m) trapezoids
(two per edge) and hands the resulting triangles to a simplex
range-search structure.

We reproduce exactly that decomposition:

* per edge, one strip on each side between the ``eps_inner`` and
  ``eps_outer`` offset lines (a trapezoid -> two triangles), and
* per vertex, a fan of triangles circumscribing the part of the vertex
  disk of radius ``eps_outer`` that the straight strips miss: the
  vertex's normal cone, on the convex side of the turn.

The triangle set is a *conservative cover*: its union contains the
envelope difference and may slightly overshoot near joints, so vertices
reported by the range structure are always re-checked with the exact
distance predicate.  Overshoot only costs extra reported candidates
(the output-sensitive ``kappa`` term), never correctness.
"""

from __future__ import annotations

import math

import numpy as np

from .nearest import BoundaryDistance
from .polyline import Shape
from .primitives import EPSILON, as_points

#: Angular margin (radians) added on both sides of every vertex's normal
#: cone, so rounding in the edge directions cannot open a gap between a
#: cone and the strips of the two adjacent edges.
_CONE_MARGIN = 1e-3


def band_cover_triangles(shape: Shape, eps_inner: float, eps_outer: float,
                         cap_sectors: int = 8) -> np.ndarray:
    """Conservative triangle cover of the envelope difference.

    The union of the returned ``(T, 3, 2)`` float64 triangles contains
    every point ``p`` with ``eps_inner <= dist(p, boundary(shape)) <=
    eps_outer``:

    * a point whose nearest boundary point lies inside an edge is in one
      of that edge's two side strips (foot on the edge, perpendicular
      distance in ``[eps_inner, eps_outer]``; a trapezoid -> two
      triangles per side);
    * a point whose nearest boundary point is the vertex ``v`` satisfies
      ``(p - v) . d_in >= 0`` and ``(p - v) . d_out <= 0`` for the unit
      directions of the edges into and out of ``v`` — the *normal cone*
      of ``v``: the arc of width ``|turning angle|`` between the two
      edge normals on the convex side of the turn, a half disk at each
      end of an open polyline.  The cone is covered out to ``eps_outer``
      by circumscribed sectors of at most ``2 pi / cap_sectors`` each
      (``cap_sectors`` is the number of sectors per full turn); a vertex
      next to a zero-length edge has no cone and gets the full disk.

    ``T <= 4 * num_edges + cap_sectors * num_vertices`` = O(m), the
    paper's per-iteration triangle budget.  Sectors start at the vertex
    (not at ``eps_inner``), so points inside the inner envelope may be
    covered too; callers filter them with the exact distance.
    """
    if eps_outer < eps_inner:
        raise ValueError("eps_outer must be >= eps_inner")
    if cap_sectors < 3:
        raise ValueError("cap_sectors must be >= 3")
    if eps_outer <= 0:
        return np.zeros((0, 3, 2))
    starts, ends = shape.edges()
    delta = ends - starts
    length = np.hypot(delta[:, 0], delta[:, 1])
    solid = length >= EPSILON
    unit = np.zeros_like(delta)
    unit[solid] = delta[solid] / length[solid, None]

    # Edge strips: quad (lo_a, lo_b, hi_b, hi_a) on each side, split
    # along the lo_a - hi_b diagonal.
    a, b = starts[solid], ends[solid]
    normal = np.column_stack([-unit[solid, 1], unit[solid, 0]])
    side = np.array([1.0, -1.0])[:, None, None] * normal       # (2, e, 2)
    lo_a, lo_b = a + eps_inner * side, b + eps_inner * side
    hi_a, hi_b = a + eps_outer * side, b + eps_outer * side
    strips = np.stack([np.stack([lo_a, lo_b, hi_b], axis=2),
                       np.stack([lo_a, hi_b, hi_a], axis=2)],
                      axis=2).reshape(-1, 3, 2)

    # Vertex cones.  Edge i leaves vertex i; the edge into vertex i is
    # edge i - 1.  The missing neighbour at an open end is the reversed
    # other edge, which turns the cone into the end's half disk.
    vertices = shape.vertices
    if shape.closed:
        d_in, d_out = np.roll(unit, 1, axis=0), unit
        has_cone = np.roll(solid, 1) & solid
    else:
        d_in = np.concatenate([-unit[:1], unit])
        d_out = np.concatenate([unit, -unit[-1:]])
        has_cone = np.concatenate([solid[:1], solid]) & \
            np.concatenate([solid, solid[-1:]])
    turn = np.arctan2(d_in[:, 0] * d_out[:, 1] - d_in[:, 1] * d_out[:, 0],
                      d_in[:, 0] * d_out[:, 0] + d_in[:, 1] * d_out[:, 1])
    # Counter-clockwise, a left turn's cone runs from the right normal
    # of d_in to the right normal of d_out, a right turn's from the left
    # normal of d_out to the left normal of d_in.
    first = np.where(turn >= 0.0,
                     np.arctan2(d_in[:, 1], d_in[:, 0]) - 0.5 * math.pi,
                     np.arctan2(d_out[:, 1], d_out[:, 0]) + 0.5 * math.pi)
    width = np.abs(turn)
    sector = 2.0 * math.pi / cap_sectors
    count = np.maximum(1, np.ceil(width / sector)).astype(np.int64)
    first = np.where(has_cone, first - _CONE_MARGIN, 0.0)
    span = np.where(has_cone, width + 2.0 * _CONE_MARGIN, 2.0 * math.pi)
    count = np.where(has_cone, count, cap_sectors)
    step = span / count
    owner = np.repeat(np.arange(len(vertices)), count)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    angle = first[owner] + rank * step[owner]
    reach = (eps_outer / np.cos(0.5 * step))[owner, None]
    center = vertices[owner]

    def rim(theta: np.ndarray) -> np.ndarray:
        return center + reach * np.column_stack([np.cos(theta),
                                                 np.sin(theta)])

    fans = np.stack([center, rim(angle), rim(angle + step[owner])], axis=1)
    return np.concatenate([strips, fans])


class EpsilonEnvelope:
    """The fattened query shape at a fixed width ``epsilon``."""

    def __init__(self, shape: Shape, epsilon: float):
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.shape = shape
        self.epsilon = float(epsilon)
        self._distance = BoundaryDistance(shape)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask: which points lie inside the envelope."""
        pts = as_points(points)
        if len(pts) == 0:
            return np.zeros(0, dtype=bool)
        return self._distance.distances(pts) <= self.epsilon + EPSILON

    def contains_point(self, point) -> bool:
        return self._distance.distance(point) <= self.epsilon + EPSILON

    def cover_triangles(self, cap_sectors: int = 8) -> np.ndarray:
        """Conservative triangle cover of the whole envelope."""
        return band_cover_triangles(self.shape, 0.0, self.epsilon,
                                    cap_sectors)

    def area_estimate(self) -> float:
        """First-order envelope area ``~ 2 * epsilon * perimeter``.

        This is the density estimate behind the paper's initial-epsilon
        choice and its termination threshold (Section 2.5, step 5).
        """
        return 2.0 * self.epsilon * self.shape.perimeter


def difference_mask(shape: Shape, eps_prev: float, eps_new: float,
                    points: np.ndarray) -> np.ndarray:
    """Exact mask of points in the envelope difference.

    ``True`` where ``eps_prev < dist(p, boundary) <= eps_new``.  This is
    the filter applied to range-search output; together with the
    matcher's per-vertex visited set it guarantees each shape-base
    vertex is processed exactly once (Section 2.5, step 2).
    """
    if eps_new < eps_prev:
        raise ValueError("eps_new must be >= eps_prev")
    pts = as_points(points)
    if len(pts) == 0:
        return np.zeros(0, dtype=bool)
    distances = BoundaryDistance(shape).distances(pts)
    return (distances > eps_prev + EPSILON) & (distances <= eps_new + EPSILON)
