"""Low-level geometric primitives.

All heavy-weight routines operate on numpy arrays of shape ``(n, 2)``
(one row per point).  Scalars are plain Python floats; nothing in this
module allocates per-point Python objects, which keeps the shape-base
pipelines (hundreds of thousands of vertices) tractable in pure Python.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

import numpy as np

Point = Tuple[float, float]

#: Tolerance used by the exact-ish predicates throughout the package.
EPSILON = 1e-9


def as_points(points: Iterable[Sequence[float]]) -> np.ndarray:
    """Return ``points`` as a float64 array of shape ``(n, 2)``.

    Accepts any iterable of pairs (lists, tuples, arrays).  Raises
    ``ValueError`` when the input cannot be interpreted as 2-D points.
    Already-conforming float64 ``(n, 2)`` arrays pass through without a
    copy — this sits under every distance call in the matcher hot path.
    """
    if isinstance(points, np.ndarray):
        if points.ndim == 2 and points.shape[1] == 2 and \
                points.dtype == np.float64:
            return points
        array = np.asarray(points, dtype=np.float64)
    else:
        array = np.asarray(list(points), dtype=np.float64)
    if array.ndim == 1 and array.size == 2:
        array = array.reshape(1, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got array of shape {array.shape}")
    return array


def distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def squared_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Squared Euclidean distance between two points."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    return dx * dx + dy * dy


def cross(o: Sequence[float], a: Sequence[float], b: Sequence[float]) -> float:
    """Z-component of the cross product of vectors ``o->a`` and ``o->b``.

    Positive when ``o, a, b`` make a left (counter-clockwise) turn.
    """
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def dot(o: Sequence[float], a: Sequence[float], b: Sequence[float]) -> float:
    """Dot product of vectors ``o->a`` and ``o->b``."""
    return (a[0] - o[0]) * (b[0] - o[0]) + (a[1] - o[1]) * (b[1] - o[1])


def interior_angle(prev: Sequence[float], vertex: Sequence[float],
                   nxt: Sequence[float]) -> float:
    """Positive angle in ``[0, pi]`` formed at ``vertex`` by its neighbours.

    This is the *acute/obtuse magnitude* of the turn the paper's
    "significant vertices" statistic uses (Section 5.2): degenerate
    straight-through vertices yield ``pi`` and spikes yield values
    near ``0``.
    """
    ux, uy = prev[0] - vertex[0], prev[1] - vertex[1]
    vx, vy = nxt[0] - vertex[0], nxt[1] - vertex[1]
    nu = math.hypot(ux, uy)
    nv = math.hypot(vx, vy)
    if nu < EPSILON or nv < EPSILON:
        return 0.0
    cosine = (ux * vx + uy * vy) / (nu * nv)
    cosine = max(-1.0, min(1.0, cosine))
    return math.acos(cosine)


def signed_angle(u: Sequence[float], v: Sequence[float]) -> float:
    """Signed angle in ``(-pi, pi]`` rotating vector ``u`` onto vector ``v``.

    Used by the topological predicates of Section 5.1, which compare the
    *signed* angle between the inverse-normalized diameters of two shapes.
    """
    angle = math.atan2(v[1], v[0]) - math.atan2(u[1], u[0])
    if angle <= -math.pi:
        angle += 2.0 * math.pi
    elif angle > math.pi:
        angle -= 2.0 * math.pi
    return angle


def point_segment_distance(p: Sequence[float], a: Sequence[float],
                           b: Sequence[float]) -> float:
    """Distance from point ``p`` to the closed segment ``ab``."""
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    px, py = p[0], p[1]
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq < EPSILON * EPSILON:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / length_sq
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def points_segment_distance(points: np.ndarray, a: Sequence[float],
                            b: Sequence[float]) -> np.ndarray:
    """Vectorized distance from each row of ``points`` to segment ``ab``."""
    points = np.asarray(points, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = b - a
    length_sq = float(d @ d)
    if length_sq < EPSILON * EPSILON:
        return np.hypot(points[:, 0] - a[0], points[:, 1] - a[1])
    t = ((points - a) @ d) / length_sq
    np.clip(t, 0.0, 1.0, out=t)
    proj = a + t[:, None] * d
    delta = points - proj
    return np.hypot(delta[:, 0], delta[:, 1])


#: Points per pass of :func:`points_segments_distance`: its two
#: ``(m, CHUNK_ROWS)`` work arrays stay cache-sized whatever ``n`` is.
CHUNK_ROWS = 4096


def points_segments_distance(points: np.ndarray, starts: np.ndarray,
                             ends: np.ndarray) -> np.ndarray:
    """Min distance from each point to a set of segments.

    ``starts`` and ``ends`` are ``(m, 2)`` arrays defining ``m`` segments.
    Returns an ``(n,)`` array with, for each point, the minimum distance
    over all segments.  This is the workhorse behind every ``h_avg``
    measure and the epsilon-envelope membership test; it is O(n * m),
    evaluated one coordinate at a time in two reused ``(m, chunk)``
    arrays.  Every in-place step keeps the operation order of
    ``hypot(px - (sx + t dx), py - (sy + t dy))`` with ``t = clip(((px -
    sx) dx + (py - sy) dy) / |d|^2, 0, 1)``, so a distance is the same
    float whatever chunk or batch it arrives in.
    """
    points = np.asarray(points, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    if len(points) == 0:
        return np.zeros(0)
    if len(starts) == 0:
        raise ValueError("need at least one segment")
    d = ends - starts                                    # (m, 2)
    length_sq = np.einsum("ij,ij->i", d, d)              # (m,)
    degenerate = length_sq < EPSILON * EPSILON
    safe_length_sq = np.where(degenerate, 1.0, length_sq)[:, None]
    sx, sy = starts[:, 0:1], starts[:, 1:2]              # (m, 1) columns
    dx, dy = d[:, 0:1], d[:, 1:2]
    out = np.empty(len(points))
    t_work = np.empty((len(starts), min(len(points), CHUNK_ROWS)))
    u_work = np.empty_like(t_work)
    for lo in range(0, len(points), CHUNK_ROWS):
        px = points[lo:lo + CHUNK_ROWS, 0]
        py = points[lo:lo + CHUNK_ROWS, 1]
        t, u = t_work[:, :len(px)], u_work[:, :len(px)]
        np.subtract(px, sx, out=t)
        t *= dx
        np.subtract(py, sy, out=u)
        u *= dy
        t += u
        t /= safe_length_sq                              # t[j, i]
        t[degenerate] = 0.0
        np.clip(t, 0.0, 1.0, out=t)
        np.multiply(t, dx, out=u)
        u += sx
        np.subtract(px, u, out=u)                        # px - (sx + t dx)
        t *= dy
        t += sy
        np.subtract(py, t, out=t)                        # py - (sy + t dy)
        np.hypot(u, t, out=u)
        u.min(axis=0, out=out[lo:lo + CHUNK_ROWS])
    return out


def segment_length(a: Sequence[float], b: Sequence[float]) -> float:
    """Length of segment ``ab``."""
    return distance(a, b)


def polygon_signed_area(vertices: np.ndarray) -> float:
    """Signed area of a closed polygon (positive when counter-clockwise)."""
    v = as_points(vertices)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def bounding_box(points: np.ndarray) -> Tuple[float, float, float, float]:
    """Axis-aligned bounding box ``(xmin, ymin, xmax, ymax)``."""
    p = as_points(points)
    return (float(p[:, 0].min()), float(p[:, 1].min()),
            float(p[:, 0].max()), float(p[:, 1].max()))
