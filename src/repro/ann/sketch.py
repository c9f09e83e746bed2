"""Deterministic polygon sketches for the approximate tier (Section 6).

A *sketch* is a MinHash signature of the set of area-grid cells a
normalized copy's boundary passes through.  Because the base stores
every shape normalized about its alpha-diameters (anchors pinned to
(0, 0)/(1, 0)), similar shapes land on near-identical cell sets no
matter how they were rotated, scaled or translated in their source
image — the same invariance the envelope matcher relies on, made
hashable.  MinHash turns cell-set Jaccard similarity into signature
agreement, which the banded LSH index of :mod:`repro.ann.lsh`
converts into sub-linear candidate generation.

Everything here is seeded and deterministic: the same corpus and the
same :class:`SketchConfig` always produce bit-identical signatures,
which is what lets snapshots embed them (``storage/persist`` v4) and
lets shards trust a cache instead of recomputing.

The construction follows the consistent-sampling line of Gudmundsson &
Pagh (PolyMinHash) adapted to the paper's normalized-copy geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

# The lune of possible normalized vertices is bounded (Section 2.3):
# every non-anchor vertex of a copy normalized about an alpha-diameter
# lies within unit distance of both anchors (up to the alpha slack).
# This box covers it with margin; points outside are clamped to the
# border cells, which only ever *merges* extreme cells.
_BOX_X0, _BOX_X1 = -0.35, 1.35
_BOX_Y0, _BOX_Y1 = -1.1, 1.1

# MinHash arithmetic is done modulo a Mersenne prime in int64; with
# cell ids < 2**12 and coefficients < 2**31 the products stay far from
# overflow.
_MERSENNE = np.int64(2**31 - 1)

_MAX_SAMPLES_PER_EDGE = 64


@dataclass(frozen=True)
class SketchConfig:
    """Parameters of the sketch family (all part of the cache key).

    num_hashes:
        Signature length ``H``.  The LSH layer slices it into
        ``tables`` bands of ``band_width`` rows, so configurations are
        usually derived from an :class:`repro.ann.AnnConfig`.
    grid:
        The occupancy grid is ``grid x grid`` cells over the fixed
        normalized-copy bounding box.  Coarser grids forgive more
        vertex noise but discriminate less.
    seed:
        Seed of the hash-coefficient generator.  Two bases sketched
        with the same seed are directly comparable; signatures from
        different seeds never are.
    """

    num_hashes: int = 32
    grid: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_hashes < 1:
            raise ValueError("num_hashes must be positive")
        if not 2 <= self.grid <= 64:
            raise ValueError("grid must be in [2, 64]")

    @property
    def key(self) -> Tuple[int, int, int]:
        """The ShapeBase sketch-cache key for this family."""
        return (self.num_hashes, self.grid, self.seed)


def _hash_coefficients(config: SketchConfig) -> Tuple[np.ndarray, np.ndarray]:
    """The seeded ``a * cell + b (mod p)`` coefficient vectors."""
    rng = np.random.default_rng(config.seed)
    a = rng.integers(1, int(_MERSENNE), size=config.num_hashes,
                     dtype=np.int64)
    b = rng.integers(0, int(_MERSENNE), size=config.num_hashes,
                     dtype=np.int64)
    return a, b


def _boundary_samples(flat: np.ndarray, counts: np.ndarray,
                      closed: np.ndarray, spacing: float
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Points along every entry boundary, with their owning entry.

    ``flat`` stacks the vertex rows of all entries, ``counts`` gives
    rows per entry and ``closed`` whether the closing edge exists.
    Returns ``(points, owner)`` where ``points`` contains the vertices
    themselves plus deterministic interior samples at
    ``t = (j + 0.5) / s`` on every edge, ``s`` chosen so consecutive
    samples sit closer than ``spacing`` (capped to bound work on
    degenerate, very long edges).
    """
    num_entries = len(counts)
    offsets = np.zeros(num_entries + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    owner = np.repeat(np.arange(num_entries, dtype=np.int64), counts)
    position = np.arange(len(flat), dtype=np.int64) - offsets[owner]
    # Edges: every vertex to its successor, plus the wrap-around edge
    # of closed entries.
    not_last = position < counts[owner] - 1
    start_idx = np.flatnonzero(not_last)
    end_idx = start_idx + 1
    edge_owner = owner[start_idx]
    wrap_entries = np.flatnonzero(closed & (counts >= 2))
    if len(wrap_entries):
        start_idx = np.concatenate(
            [start_idx, offsets[wrap_entries + 1] - 1])
        end_idx = np.concatenate([end_idx, offsets[wrap_entries]])
        edge_owner = np.concatenate([edge_owner, wrap_entries])
    if not len(start_idx):
        return flat, owner
    starts = flat[start_idx]
    deltas = flat[end_idx] - starts
    lengths = np.hypot(deltas[:, 0], deltas[:, 1])
    per_edge = np.clip(np.ceil(lengths / spacing).astype(np.int64),
                       1, _MAX_SAMPLES_PER_EDGE)
    total = int(per_edge.sum())
    sample_edge = np.repeat(np.arange(len(per_edge), dtype=np.int64),
                            per_edge)
    sample_offsets = np.zeros(len(per_edge) + 1, dtype=np.int64)
    np.cumsum(per_edge, out=sample_offsets[1:])
    ordinal = np.arange(total, dtype=np.int64) - \
        sample_offsets[sample_edge]
    t = (ordinal + 0.5) / per_edge[sample_edge]
    interior = starts[sample_edge] + t[:, None] * deltas[sample_edge]
    points = np.concatenate([flat, interior], axis=0)
    point_owner = np.concatenate([owner, edge_owner[sample_edge]])
    return points, point_owner


def grid_cells(points: np.ndarray, grid: int) -> np.ndarray:
    """The cell ``ix * grid + iy`` of every point in a ``grid``² grid
    over the box, points outside it clamped to the border cells."""
    ix = np.clip(((points[:, 0] - _BOX_X0) /
                  ((_BOX_X1 - _BOX_X0) / grid)).astype(np.int64),
                 0, grid - 1)
    iy = np.clip(((points[:, 1] - _BOX_Y0) /
                  ((_BOX_Y1 - _BOX_Y0) / grid)).astype(np.int64),
                 0, grid - 1)
    return ix * grid + iy


def grid_centers(grid: int) -> np.ndarray:
    """``(grid², 2)``: the center of every cell, row ``ix * grid + iy``
    (:func:`grid_cells`' numbering)."""
    side = np.arange(grid) + 0.5
    return np.column_stack([
        np.repeat(_BOX_X0 + side * ((_BOX_X1 - _BOX_X0) / grid), grid),
        np.tile(_BOX_Y0 + side * ((_BOX_Y1 - _BOX_Y0) / grid), grid)])


def _occupied_cells(flat: np.ndarray, counts: np.ndarray,
                    closed: np.ndarray, grid: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Unique ``(owner, cell)`` pairs of boundary-occupied grid cells."""
    spacing = 0.5 * min((_BOX_X1 - _BOX_X0) / grid,
                        (_BOX_Y1 - _BOX_Y0) / grid)
    points, owner = _boundary_samples(flat, counts, closed, spacing)
    cell = grid_cells(points, grid)
    combined = np.unique(owner * np.int64(grid * grid) + cell)
    return combined // (grid * grid), combined % (grid * grid)


def _minhash(owner: np.ndarray, cell: np.ndarray, num_entries: int,
             config: SketchConfig) -> np.ndarray:
    """Per-entry MinHash rows from unique ``(owner, cell)`` pairs.

    ``owner`` must be sorted (``np.unique`` output order) and every
    entry in ``[0, num_entries)`` must own at least one cell.
    """
    a, b = _hash_coefficients(config)
    sketches = np.empty((num_entries, config.num_hashes), dtype=np.int64)
    if num_entries == 0:
        return sketches
    group_starts = np.flatnonzero(
        np.concatenate(([True], owner[1:] != owner[:-1])))
    if len(group_starts) != num_entries:
        raise ValueError("every entry must occupy at least one cell")
    for h in range(config.num_hashes):
        values = (a[h] * cell + b[h]) % _MERSENNE
        sketches[:, h] = np.minimum.reduceat(values, group_starts)
    return sketches


def sketch_vertex_sets(vertex_sets: Sequence[np.ndarray],
                       closed_flags: Sequence[bool],
                       config: SketchConfig) -> np.ndarray:
    """Sketch a batch of already-normalized boundaries.

    Returns an ``(E, num_hashes)`` int64 array, one MinHash row per
    input boundary, computed in stacked numpy passes.
    """
    if not len(vertex_sets):
        return np.empty((0, config.num_hashes), dtype=np.int64)
    counts = np.array([len(v) for v in vertex_sets], dtype=np.int64)
    flat = np.concatenate([np.asarray(v, dtype=float)
                           for v in vertex_sets], axis=0)
    closed = np.asarray(closed_flags, dtype=bool)
    owner, cell = _occupied_cells(flat, counts, closed, config.grid)
    return _minhash(owner, cell, len(vertex_sets), config)


def sketch_normalized_shape(shape, config: SketchConfig) -> np.ndarray:
    """The ``(num_hashes,)`` signature of one normalized shape.

    The caller is responsible for normalization
    (:func:`repro.geometry.normalize_about_diameter` for queries);
    sketching a raw, un-normalized shape produces signatures that are
    *not* comparable with the base's.
    """
    return sketch_vertex_sets([shape.vertices], [shape.closed],
                              config)[0]


def compute_entry_sketches(base, config: SketchConfig) -> np.ndarray:
    """Per-entry sketch rows for a whole base, cache-aware.

    Consults :meth:`ShapeBase.cached_sketches` first (filled by an
    earlier computation, a subset carry-over, or a v4 snapshot) and
    fills the cache on a miss, so repeated index builds over the same
    corpus — warm restarts, per-worker-count service rebuilds — pay
    for sketching exactly once.
    """
    cached = base.cached_sketches(config.key)
    if cached is not None:
        return cached
    rows = sketch_vertex_sets(
        [entry.shape.vertices for entry in base.entries],
        [entry.shape.closed for entry in base.entries], config)
    base.set_sketch_cache(config.key, rows)
    return rows
