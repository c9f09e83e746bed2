"""External storage layout policies (paper Section 4).

The retrieval algorithm preserves locality — shapes processed in
succession are usually similar — so the goal is to place similar shapes
in adjacent disk blocks.  The paper evaluates:

* three sorts by the characteristic hash-curve quadruple (Section 4.1):

  (i)   by the curve closest to the quadruple mean,
  (ii)  lexicographically by the quadruple,
  (iii) by the better of the two median curves;

* a greedy *local optimization* of the average similarity measure
  within each block (Section 4.2), reported ~30% better in I/O but with
  an O(N^1.5 log N) rehash instead of O(N log N).

Each policy returns a permutation of entry ids; the
:class:`~repro.storage.shapestore.ExternalShapeStore` packs records
into blocks in that order.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence

import numpy as np

from ..core.shapebase import ShapeBase
# ``compute_signatures`` lives in ``repro.hashing``; re-exported here
# (and by ``repro.storage``) for the callers that sign a base to lay it out.
from ..hashing.characteristic import (Quadruple, compute_signatures,
                                      quadruple_mean_curve,
                                      quadruple_median_curve)

LayoutFn = Callable[..., List[int]]

LAYOUTS: Dict[str, LayoutFn] = {}


def _register(name: str):
    def decorator(fn: LayoutFn) -> LayoutFn:
        LAYOUTS[name] = fn
        return fn
    return decorator


@_register("mean")
def sort_by_mean_curve(base: ShapeBase,
                       signatures: Sequence[Quadruple]) -> List[int]:
    """Method (i): sort by the curve closest to the quadruple mean."""
    keys = [quadruple_mean_curve(sig) for sig in signatures]
    return sorted(range(len(signatures)),
                  key=lambda e: (keys[e], signatures[e]))


@_register("lexicographic")
def sort_lexicographic(base: ShapeBase,
                       signatures: Sequence[Quadruple]) -> List[int]:
    """Method (ii): lexicographic order of the quadruples."""
    return sorted(range(len(signatures)), key=lambda e: signatures[e])


@_register("median")
def sort_by_median_curve(base: ShapeBase,
                         signatures: Sequence[Quadruple]) -> List[int]:
    """Method (iii): sort by the mean-closest of the two median curves."""
    keys = [quadruple_median_curve(sig) for sig in signatures]
    return sorted(range(len(signatures)),
                  key=lambda e: (keys[e], signatures[e]))


# ----------------------------------------------------------------------
# Section 4.2: greedy local optimization of the average measure
# ----------------------------------------------------------------------
def _entry_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric discrete average point-set distance between vertex sets.

    The greedy layout needs many pairwise shape distances; vertex-set
    (rather than boundary) distances keep it O(v^2) per pair with one
    vectorized expression, and order shapes the same way the full
    measure does.
    """
    diff = a[:, None, :] - b[None, :, :]
    d = np.hypot(diff[..., 0], diff[..., 1])
    return 0.5 * (float(d.min(axis=1).mean()) + float(d.min(axis=0).mean()))


@_register("localopt")
def local_optimization(base: ShapeBase, signatures: Sequence[Quadruple],
                       per_block: int = 5, window: int = 48,
                       history_blocks: int = 5) -> List[int]:
    """Section 4.2's greedy block-local layout.

    The first shape of the first block is picked by a heuristic rule
    (lowest mean characteristic curve); each subsequent shape in a block
    minimizes the average measure to the shapes already in that block;
    the first shape of a new block minimizes the average distance to the
    first shapes of the previous ``history_blocks`` blocks.

    A full greedy is O(N^2) measure evaluations; we restrict each choice
    to the ``window`` unplaced entries nearest in signature order (the
    candidates any locality-aware implementation would shortlist), which
    preserves the local-optimization character at O(N * window) cost.
    Set ``window >= len(base)`` for the exact greedy on small bases.
    """
    n = base.num_entries
    if n == 0:
        return []
    vertices = [base.entry_vertices(e) for e in range(n)]
    # Signature-sorted ring of unplaced entries = the candidate shortlist.
    sig_order = sort_by_mean_curve(base, signatures)
    position = {entry: rank for rank, entry in enumerate(sig_order)}
    unplaced = set(range(n))

    def shortlist(reference: int) -> List[int]:
        """Unplaced entries nearest to ``reference`` in signature order."""
        rank = position[reference]
        out: List[int] = []
        radius = 0
        while len(out) < min(window, len(unplaced)) and radius <= n:
            for r in (rank - radius, rank + radius) if radius else (rank,):
                if 0 <= r < n and sig_order[r] in unplaced:
                    candidate = sig_order[r]
                    if candidate not in out:
                        out.append(candidate)
            radius += 1
        return out

    order: List[int] = []
    block_firsts: List[int] = []
    current_block: List[int] = []

    # Heuristic first shape: lowest mean characteristic curve.
    first = sig_order[0]
    unplaced.discard(first)
    order.append(first)
    block_firsts.append(first)
    current_block = [first]

    while unplaced:
        if len(current_block) >= per_block:
            # Start a new block: minimize avg distance to the first
            # shapes of the previous `history_blocks` blocks.
            anchors = block_firsts[-history_blocks:]
            candidates = shortlist(current_block[-1])
            best = min(candidates, key=lambda e: sum(
                _entry_distance(vertices[e], vertices[a]) for a in anchors
            ) / len(anchors))
            unplaced.discard(best)
            order.append(best)
            block_firsts.append(best)
            current_block = [best]
            continue
        candidates = shortlist(current_block[0])
        best = min(candidates, key=lambda e: sum(
            _entry_distance(vertices[e], vertices[m]) for m in current_block
        ) / len(current_block))
        unplaced.discard(best)
        order.append(best)
        current_block.append(best)
    return order


def make_layout(name: str, base: ShapeBase, signatures: Sequence[Quadruple],
                **kwargs) -> List[int]:
    """Dispatch a layout policy by name.

    Names: ``"mean"``, ``"lexicographic"``, ``"median"``, ``"localopt"``.
    """
    try:
        fn = LAYOUTS[name]
    except KeyError:
        raise ValueError(f"unknown layout {name!r}; "
                         f"expected one of {sorted(LAYOUTS)}") from None
    return fn(base, signatures, **kwargs)


# ----------------------------------------------------------------------
# Rehashing cost models (paper Sections 4.1 / 4.2)
# ----------------------------------------------------------------------
def rehash_cost_sorted(num_shapes: int) -> float:
    """O(N log N) rehash cost of the sort-based methods (arbitrary units)."""
    if num_shapes < 1:
        return 0.0
    return num_shapes * math.log2(max(2, num_shapes))


def rehash_cost_localopt(num_shapes: int) -> float:
    """O(N^1.5 log N) rehash cost of local optimization (arbitrary units)."""
    if num_shapes < 1:
        return 0.0
    return num_shapes ** 1.5 * math.log2(max(2, num_shapes))
