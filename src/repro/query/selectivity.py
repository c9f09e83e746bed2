"""Selectivity estimation via significant vertices (paper Section 5.2).

The paper observes that the result size of a similarity query on Q is
inversely proportional to the number of *significant* vertices

    V_S(Q) = sum_i 1/2 * [ (pi - a_i) * a_i * 4 / pi^2
                           + (l_{i-1} + l_i) / 2 ]

computed on the diameter-normalized shape, where ``a_i`` is the positive
angle at vertex i and ``l_i`` the length of edge i.  Each vertex
contributes a term in [0, 1] — 1 exactly when its angle is pi/2 and both
adjacent edges have the diameter's length — so ``0 <= V_S(Q) <= V(Q)``.

The estimator is ``selectivity(Q) = c / V_S(Q)`` with the constant ``c``
adapted statistically every time a query executes (the paper re-fits it
online); :class:`SelectivityModel` keeps a running geometric-mean fit.

Note: the formula as typeset in the paper is ambiguous about grouping;
the worked example (Figure 9: a vertex with angle pi/2 and adjacent
edges sqrt(10)/5 contributes ``1/2 + sqrt(10)/10``) pins the form used
here, ``1/2 * (angle_term + edge_term)`` per vertex.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ..geometry.polyline import Shape
from ..geometry.transform import normalize_about_diameter


def vertex_significance(shape: Shape, normalize: bool = True) -> np.ndarray:
    """Per-vertex significance terms (the summands of V_S(Q)).

    Each vertex contributes ``1/2 * [(pi - a) * a * 4/pi^2
    + (l_prev + l_next)/2]`` — a value in [0, 1] after diameter
    normalization, 1 exactly for a right angle flanked by
    diameter-length edges.  The paper's Figure 9 worked example pins
    this grouping (see the module docstring for the one inconsistent
    value in the paper's own arithmetic).
    """
    if normalize:
        shape = normalize_about_diameter(shape).shape
    angles = shape.interior_angles()
    lengths = shape.edge_lengths()
    n = shape.num_vertices
    out = np.zeros(n)
    for i in range(n):
        if shape.closed:
            l_prev = lengths[(i - 1) % n]
            l_next = lengths[i]
        else:
            l_prev = lengths[i - 1] if i > 0 else 0.0
            l_next = lengths[i] if i < n - 1 else 0.0
        angle_term = (math.pi - angles[i]) * angles[i] * 4.0 / math.pi ** 2
        edge_term = (min(l_prev, 1.0) + min(l_next, 1.0)) / 2.0
        out[i] = 0.5 * (angle_term + edge_term)
    return out


def significant_vertices(shape: Shape, normalize: bool = True) -> float:
    """The paper's V_S(Q) statistic.

    ``normalize`` first maps the shape's diameter onto ((0,0), (1,0)) so
    edge lengths are measured relative to the diameter, as the paper's
    example does.  Degenerate vertices (angle ~0 or ~pi, or tiny edges)
    contribute little; crisp right angles with long edges contribute
    most.
    """
    return float(vertex_significance(shape, normalize).sum())


#: Shapes whose V_S one :class:`SelectivityModel` remembers.
_VS_MEMO_SIZE = 1024


class SelectivityModel:
    """Online estimator ``selectivity(Q) ~ c / V_S(Q)``.

    ``c`` depends on the base size and the application domain; following
    the paper it "is adapted statistically every time a query is
    performed": :meth:`observe` folds the product ``observed * V_S`` into
    a running geometric mean (robust to the heavy-tailed result sizes).

    ``V_S`` is computed once per shape (keyed by its exact vertices; the
    last ``_VS_MEMO_SIZE`` shapes computed are kept): a planner
    estimates each literal several times per term.
    """

    def __init__(self, initial_c: Optional[float] = None):
        self._vs: Dict[Tuple[bool, bytes], float] = {}
        self._log_c_sum = 0.0
        self._count = 0
        self._log_t_sum = 0.0
        self._t_count = 0
        self._lock = threading.Lock()
        if initial_c is not None:
            if initial_c <= 0:
                raise ValueError("initial_c must be positive")
            self._log_c_sum = math.log(initial_c)
            self._count = 1

    @property
    def c(self) -> float:
        """Current constant; 1.0 before any observation."""
        with self._lock:
            if self._count == 0:
                return 1.0
            return math.exp(self._log_c_sum / self._count)

    @property
    def num_observations(self) -> int:
        return self._count

    def significant_vertices(self, shape: Shape) -> float:
        """:func:`significant_vertices` of ``shape``, memoized."""
        key = (shape.closed, shape.vertices.tobytes())
        with self._lock:
            vs = self._vs.get(key)
        if vs is None:
            vs = significant_vertices(shape)
            with self._lock:
                self._vs[key] = vs
                if len(self._vs) > _VS_MEMO_SIZE:
                    del self._vs[next(iter(self._vs))]
        return vs

    def observe(self, shape: Shape, observed_result_size: int,
                threshold: Optional[float] = None) -> None:
        """Fold one executed query's actual result size into the fit.

        Thread-safe: the query engine observes from concurrent
        executions.  ``threshold`` (when given) additionally feeds the
        reference similarity threshold the threshold-scaled
        :meth:`estimate` normalizes against.
        """
        vs = self.significant_vertices(shape)
        if vs <= 0:
            return
        implied_c = max(observed_result_size, 0.5) * vs
        with self._lock:
            self._log_c_sum += math.log(implied_c)
            self._count += 1
            if threshold is not None and threshold > 0:
                self._log_t_sum += math.log(threshold)
                self._t_count += 1

    def reference_threshold(self) -> Optional[float]:
        """Geometric mean of the observed thresholds (None if unseen)."""
        with self._lock:
            if self._t_count == 0:
                return None
            return math.exp(self._log_t_sum / self._t_count)

    def estimate(self, shape: Shape,
                 threshold: Optional[float] = None) -> float:
        """``selectivity_shape_similar(Q)`` — expected result size.

        With a ``threshold``, the base ``c / V_S`` estimate (fit at the
        observed thresholds) is scaled linearly by the ratio to the
        reference threshold: a wider similarity ball admits
        proportionally more shapes.  Monotone non-decreasing in
        ``threshold`` by construction; without observed thresholds the
        scaling is a no-op.
        """
        vs = self.significant_vertices(shape)
        if vs <= 0:
            return float("inf")
        estimate = self.c / vs
        if threshold is not None:
            reference = self.reference_threshold()
            if reference is not None and reference > 0:
                estimate *= max(0.0, threshold) / reference
        return estimate

    def __repr__(self) -> str:
        return (f"SelectivityModel(c={self.c:.4g}, "
                f"observations={self._count})")


def fit_hyperbola(vs_values: np.ndarray,
                  result_sizes: np.ndarray) -> float:
    """Least-squares fit of ``size = c / V_S``; returns c.

    Used by the Figure 10 benchmark to validate the hyperbolic
    relationship: it fits ``c`` and reports the fit, letting the
    harness check that doubling the base roughly doubles ``c``.
    """
    vs_values = np.asarray(vs_values, dtype=np.float64)
    result_sizes = np.asarray(result_sizes, dtype=np.float64)
    if len(vs_values) != len(result_sizes) or len(vs_values) == 0:
        raise ValueError("need matching, non-empty samples")
    inverse = 1.0 / vs_values
    return float((inverse * result_sizes).sum() / (inverse * inverse).sum())
