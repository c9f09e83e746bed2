"""The equal-area hash-curve family over the lune (paper Section 3).

For the upper-left quarter ``q1`` the family consists of ``k`` arcs of
unit circles through (0, 0) whose centers ``(x, -sqrt(1 - x^2))`` lie on
the unit circle below the x-axis.  The *i*-th arc parameter ``x_i``
solves the paper's equal-area equation

    E(x) = integral_0^{min(2x, 1/2)} ( sqrt(1 - (t - x)^2)
                                       - sqrt(1 - x^2) ) dt
         = (A_0 / 4) * (i / k)

where ``A_0`` is the lune area.  ``E`` has the closed form used below
(antiderivative of ``sqrt(1 - u^2)``), is continuous and strictly
increasing on [0, 1] with ``E(0) = 0`` and ``E(1) = A_0 / 4``, so a
bracketed root-finder pins each ``x_i`` quickly — the "fast
gradient-based numerical methods" of the paper.  The root-finder is
:func:`brentq`, Brent's method ported operation for operation from
scipy's ``brentq.c``, so the family is bitwise what
``scipy.optimize.brentq`` gives while a serving process never has to
import scipy.

The other quarters are mirror images: ``q2`` mirrors ``q1`` about the
vertical line ``x = 1/2`` (circles through (1, 0)), ``q3``/``q4``
mirror ``q1``/``q2`` about the x-axis.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Tuple

import numpy as np

from ..geometry.lune import LUNE_AREA

#: Area of one lune quarter (the right-hand side scale of E).
QUARTER_AREA = LUNE_AREA / 4.0

#: scipy's smallest (and default) relative tolerance for :func:`brentq`.
_RTOL = 4 * float(np.finfo(float).eps)


def brentq(f: Callable[[float], float], xa: float, xb: float,
           xtol: float = 2e-12, rtol: float = _RTOL,
           maxiter: int = 100) -> float:
    """A root of ``f`` in the sign-changing bracket ``[xa, xb]``.

    Brent's method as scipy's ``brentq.c`` implements it, one IEEE
    operation for each of the C code's, in its order, so every root is
    bitwise ``scipy.optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol,
    maxiter=maxiter)`` (``tests/test_hashing_curves.py`` compares them
    with ``==``).  Like scipy it raises ``ValueError`` on a bad tolerance, a
    NaN value or a same-sign bracket, and ``RuntimeError`` when
    ``maxiter`` steps do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur:f}")


def _circle_antiderivative(u: float) -> float:
    """Antiderivative of ``sqrt(1 - u^2)`` at ``u`` (|u| <= 1)."""
    u = max(-1.0, min(1.0, u))
    return 0.5 * (u * math.sqrt(max(0.0, 1.0 - u * u)) + math.asin(u))


def curve_area(x: float) -> float:
    """The paper's ``E(x)`` — area carved below the arc with parameter x."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1]")
    upper = min(2.0 * x, 0.5)
    # integral of sqrt(1 - (t - x)^2) dt from 0 to upper
    arc_part = _circle_antiderivative(upper - x) - _circle_antiderivative(-x)
    flat_part = upper * math.sqrt(max(0.0, 1.0 - x * x))
    return arc_part - flat_part


def curve_area_derivative(x: float, step: float = 1e-6) -> float:
    """``dE/dx`` by central difference (continuous per the paper, Fig. 5)."""
    lo = max(0.0, x - step)
    hi = min(1.0, x + step)
    if hi <= lo:
        return 0.0
    return (curve_area(hi) - curve_area(lo)) / (hi - lo)


@functools.lru_cache(maxsize=None)
def solve_curve_parameters(k: int) -> np.ndarray:
    """The ``x_i`` (i = 1..k) splitting a quarter into k equal areas.

    ``x_k`` is exactly 1 (E(1) = A_0 / 4); the rest come from
    :func:`brentq` on the monotone ``E``, bitwise the roots
    ``scipy.optimize.brentq`` finds.  Solved once per ``k`` per process
    (k - 1 root finds, a few ms) and shared by every family of that
    size, so the array is returned read-only.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    xs = np.empty(k)
    for i in range(1, k + 1):
        target = QUARTER_AREA * i / k
        if i == k:
            xs[i - 1] = 1.0
            continue
        xs[i - 1] = brentq(lambda x: curve_area(x) - target, 0.0, 1.0,
                           xtol=1e-12)
    xs.setflags(write=False)
    return xs


class HashCurveFamily:
    """The full four-quarter family of ``k`` hash curves each.

    Curves are identified by ``(quarter, index)`` with quarter in 1..4
    and index in 1..k.  All circles have radius 1; only the center
    differs.  The distance from a point to curve ``(q, i)`` is
    ``| dist(point, center_{q,i}) - 1 |``.
    """

    def __init__(self, k: int = 50):
        self.k = int(k)
        self.xs = solve_curve_parameters(self.k)
        # Centers for q1; other quarters by mirroring.
        y = -np.sqrt(np.maximum(0.0, 1.0 - self.xs ** 2))
        self._centers = {
            1: np.column_stack([self.xs, y]),
            2: np.column_stack([1.0 - self.xs, y]),
            3: np.column_stack([self.xs, -y]),
            4: np.column_stack([1.0 - self.xs, -y]),
        }

    def center(self, quarter: int, index: int) -> Tuple[float, float]:
        """Center of curve ``index`` (1-based) in ``quarter``."""
        self._check(quarter, index)
        c = self._centers[quarter][index - 1]
        return (float(c[0]), float(c[1]))

    def _check(self, quarter: int, index: int) -> None:
        if quarter not in (1, 2, 3, 4):
            raise ValueError("quarter must be 1..4")
        if not 1 <= index <= self.k:
            raise ValueError(f"curve index must be in 1..{self.k}")

    def distance_to_curve(self, points: np.ndarray, quarter: int,
                          index: int) -> np.ndarray:
        """|dist(p, center) - 1| for each point."""
        self._check(quarter, index)
        c = self._centers[quarter][index - 1]
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        return np.abs(np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]) - 1.0)

    def average_distance(self, points: np.ndarray, quarter: int,
                         index: int) -> float:
        """Average vertex distance to one curve (the hashing objective)."""
        return float(self.distance_to_curve(points, quarter, index).mean())

    # ------------------------------------------------------------------
    def closest_curve_exhaustive(self, points: np.ndarray,
                                 quarter: int) -> int:
        """Arg-min curve index by scanning all k curves (the oracle)."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        centers = self._centers[quarter]
        d = np.abs(np.hypot(pts[:, None, 0] - centers[None, :, 0],
                            pts[:, None, 1] - centers[None, :, 1]) - 1.0)
        return int(np.argmin(d.mean(axis=0))) + 1

    def closest_curve(self, points: np.ndarray, quarter: int) -> int:
        """Closest curve by ternary search over the discrete family.

        The paper observes the average distance has a single local
        minimum along the continuous family, so a logarithmic-time
        search suffices ("perform a binary search in the discrete space
        of curves").  A final local scan over the neighbours guards the
        discretization boundary.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        lo, hi = 1, self.k
        while hi - lo > 2:
            m1 = lo + (hi - lo) // 3
            m2 = hi - (hi - lo) // 3
            if self.average_distance(pts, quarter, m1) <= \
                    self.average_distance(pts, quarter, m2):
                hi = m2
            else:
                lo = m1
        best = min(range(lo, hi + 1),
                   key=lambda i: self.average_distance(pts, quarter, i))
        neighbours = [i for i in (best - 1, best, best + 1)
                      if 1 <= i <= self.k]
        return min(neighbours,
                   key=lambda i: self.average_distance(pts, quarter, i))

    def mean_distances(self, points: np.ndarray, quarter: int) -> np.ndarray:
        """:meth:`average_distance` of ``g`` equal-sized point groups to
        every curve of ``quarter``: ``(g, n, 2)`` points, ``(g, k)`` means.

        One ``(g, k, n)`` tensor of :meth:`distance_to_curve` values;
        each row's ``.mean()`` sums the same ``n`` values in the same
        order as the scalar call, so the table is bit-identical to it.
        """
        pts = np.asarray(points, dtype=np.float64)
        centers = self._centers[quarter]
        d = np.hypot(pts[:, None, :, 0] - centers[None, :, None, 0],
                     pts[:, None, :, 1] - centers[None, :, None, 1])
        d -= 1.0
        return np.abs(d, out=d).mean(axis=-1)

    def closest_curves(self, points: np.ndarray, quarter: int) -> np.ndarray:
        """:meth:`closest_curve` of ``g`` equal-sized point groups at once.

        ``points`` is ``(g, n, 2)``; returns the ``(g,)`` curve indices.
        The ternary search runs over the :meth:`mean_distances` table
        for all groups together: both branches shrink the bracket width
        ``w`` to ``w - w // 3``, so every group walks the same widths
        and only its ``lo`` differs.  The final bracket scan and
        neighbour scan keep ``min``'s first-minimum tie-breaking
        (``np.argmin``).
        """
        means = self.mean_distances(points, quarter)
        rows = np.arange(len(means))
        lo = np.zeros(len(means), dtype=np.intp)
        width = self.k - 1
        while width > 2:
            third = width // 3
            keep = means[rows, lo + third] <= means[rows, lo + width - third]
            lo = np.where(keep, lo, lo + third)
            width -= third
        rows = rows[:, None]
        best = lo + np.argmin(
            means[rows, lo[:, None] + np.arange(width + 1)], axis=1)
        around = best[:, None] + np.arange(-1, 2)
        scores = np.where((around >= 0) & (around < self.k),
                          means[rows, np.clip(around, 0, self.k - 1)],
                          np.inf)
        return best + np.argmin(scores, axis=1)

    def arc_polyline(self, quarter: int, index: int,
                     samples: int = 64) -> np.ndarray:
        """Sample the arc of one hash curve clipped to the lune.

        Returns an ``(s, 2)`` array of points on the unit circle around
        the curve's center that lie inside the lune — what Figure 4
        (right) plots.  May be empty for curves whose arc barely grazes
        the lune.
        """
        self._check(quarter, index)
        if samples < 2:
            raise ValueError("need at least two samples")
        from ..geometry.lune import in_lune
        cx, cy = self.center(quarter, index)
        theta = np.linspace(0.0, 2.0 * np.pi, samples * 4, endpoint=False)
        circle = np.column_stack([cx + np.cos(theta), cy + np.sin(theta)])
        inside = circle[in_lune(circle, tolerance=1e-9)]
        if len(inside) <= samples:
            return inside
        step = max(1, len(inside) // samples)
        return inside[::step]

    def __repr__(self) -> str:
        return f"HashCurveFamily(k={self.k})"
