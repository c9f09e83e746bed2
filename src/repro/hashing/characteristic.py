"""Characteristic hash curves of a normalized shape (paper Section 3).

A normalized shape's vertices are partitioned over the four lune
quarters; for each non-empty quarter the *characteristic curve* is the
family member minimizing the average vertex distance (Figure 6).  The
resulting quadruple ``(c1, c2, c3, c4)`` is the shape's hash signature
and also the sort key of the external storage layouts of Section 4.1.

Vertices falling outside the lune (alpha-diameter copies) are treated
as lying on the lune boundary, per the paper.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.lune import clamp_to_lune, quarters_of
from ..geometry.polyline import Shape
from .curves import HashCurveFamily

#: Sentinel for "no vertices in this quarter".
EMPTY_QUARTER = 0

#: Largest ``(groups, curves, vertices)`` distance tensor one
#: :meth:`HashCurveFamily.closest_curves` call may build (4 MB of
#: float64).  A block is signed in chunks of at most this many elements
#: divided by ``k`` vertices, so memory stays flat whatever the block
#: size — unchunked it grows with the block: the 1 290-copy benchmark
#: corpus already peaks at ~2.3 MB traced, a 100 k-copy base would need
#: ~0.2 GB.  Smaller chunks cost time: at 2**16 elements the benchmark
#: corpus signs ~2x slower than unchunked, at this size ~10 %.
TENSOR_ELEMENTS = 1 << 19

Quadruple = Tuple[int, int, int, int]


def characteristic_quadruples(shapes: Sequence[Shape],
                              family: HashCurveFamily) -> np.ndarray:
    """Hash signatures of a block of *normalized* shapes, ``(E, 4)`` int.

    Row for row bit-identical to the per-quarter ternary search
    :meth:`HashCurveFamily.closest_curve` (the paper-§3 reference):
    the block's vertices are clamped to the lune and split into quarters
    in one pass; per quarter, each shape's vertices — in their original
    order — form one group, and the groups of one exact size share one
    :meth:`HashCurveFamily.closest_curves` tensor.  Groups are never
    padded to a common size: numpy's pairwise summation splits a row by
    its length, so a padded row's mean is not the unpadded row's
    ``.mean()``.  Quarters without vertices yield :data:`EMPTY_QUARTER`.
    """
    shapes = list(shapes)
    out = np.full((len(shapes), 4), EMPTY_QUARTER, dtype=np.int64)
    if not shapes:
        return out
    sizes = np.array([shape.num_vertices for shape in shapes])
    points = clamp_to_lune(np.concatenate([s.vertices for s in shapes]))
    quarters = quarters_of(points)
    ends = np.cumsum(sizes)
    budget = max(1, TENSOR_ELEMENTS // family.k)
    first = 0
    while first < len(shapes):
        # A shape larger than the budget is a chunk of its own.
        lo = ends[first] - sizes[first]
        stop = max(first + 1, int(np.searchsorted(ends, lo + budget,
                                                  side="right")))
        rows = slice(lo, ends[stop - 1])
        _sign_chunk(points[rows], quarters[rows], sizes[first:stop],
                    family, out[first:stop])
        first = stop
    return out


def _sign_chunk(points: np.ndarray, quarters: np.ndarray,
                sizes: np.ndarray, family: HashCurveFamily,
                out: np.ndarray) -> None:
    owner = np.repeat(np.arange(len(sizes)), sizes)
    for quarter in (1, 2, 3, 4):
        mask = quarters == quarter
        counts = np.bincount(owner[mask], minlength=len(sizes))
        starts = np.cumsum(counts) - counts
        subset = points[mask]
        for n in np.unique(counts[counts > 0]):
            groups = np.flatnonzero(counts == n)
            out[groups, quarter - 1] = family.closest_curves(
                subset[starts[groups, None] + np.arange(n)], quarter)


def characteristic_quadruple(shape: Shape, family: HashCurveFamily,
                             exhaustive: bool = False) -> Quadruple:
    """Hash signature of one *normalized* shape — a block of one.

    ``exhaustive`` switches the per-quarter curve search from the
    logarithmic ternary search to the linear oracle (tests compare the
    two).  Quarters containing no vertices yield :data:`EMPTY_QUARTER`.
    """
    if not exhaustive:
        return tuple(characteristic_quadruples([shape], family)[0].tolist())
    points = clamp_to_lune(shape.vertices)
    quarters = quarters_of(points)
    return tuple(family.closest_curve_exhaustive(points[quarters == q], q)
                 if np.any(quarters == q) else EMPTY_QUARTER
                 for q in (1, 2, 3, 4))


def compute_signatures(base, family: HashCurveFamily,
                       entry_ids: Optional[Sequence[int]] = None
                       ) -> List[Quadruple]:
    """Characteristic quadruples of a base's entries: all of them in
    entry-id order, or those of ``entry_ids``.

    Answers from the base's signature cache when it covers ``family``;
    otherwise signs the entries as one :func:`characteristic_quadruples`
    block and, for a whole-base request, fills the cache — so hash-table
    builds, layout sorts, snapshot saves and ingest share one
    computation.
    """
    cached = base.cached_signatures(family.k)
    if cached is not None:
        rows = cached if entry_ids is None else \
            cached[np.asarray(entry_ids, dtype=np.int64)]
    else:
        ids = range(len(base)) if entry_ids is None else entry_ids
        rows = characteristic_quadruples(
            [base.entry(int(i)).shape for i in ids], family)
        if entry_ids is None and len(base):
            base.set_signature_cache(family.k, rows)
    return [tuple(row) for row in rows.tolist()]


def quadruple_mean_curve(quadruple: Quadruple) -> int:
    """Sort key (i) of Section 4.1: round of the mean over the quadruple.

    Empty-quarter sentinels are excluded from the mean (a zero would
    drag shapes with sparse quarters towards the low curves for no
    geometric reason).
    """
    values = [c for c in quadruple if c != EMPTY_QUARTER]
    if not values:
        return EMPTY_QUARTER
    return int(round(sum(values) / len(values)))


def quadruple_median_curve(quadruple: Quadruple) -> int:
    """Sort key (iii) of Section 4.1.

    Sort the four elements, take the two medians, and of those return
    the one closest to the mean of all four.
    """
    values = sorted(c for c in quadruple if c != EMPTY_QUARTER)
    if not values:
        return EMPTY_QUARTER
    if len(values) <= 2:
        return values[0]
    mid_low = values[(len(values) - 1) // 2]
    mid_high = values[len(values) // 2]
    mean = sum(values) / len(values)
    if abs(mid_low - mean) <= abs(mid_high - mean):
        return mid_low
    return mid_high


def quadruple_distance(a: Quadruple, b: Quadruple) -> float:
    """L1 distance between signatures over the shared non-empty quarters.

    Used by tests and diagnostics: similar shapes should land on the
    same or neighbouring curves, i.e. small quadruple distance.
    """
    total = 0.0
    counted = 0
    for ca, cb in zip(a, b):
        if ca == EMPTY_QUARTER or cb == EMPTY_QUARTER:
            continue
        total += abs(ca - cb)
        counted += 1
    if counted == 0:
        return float("inf")
    return total / counted
