"""LSH candidate generation followed by exact scoring over candidates.

The :class:`AnnPrunedMatcher` is the middle rung of the service's
degradation ladder: cheaper than the exact envelope matcher (it never
touches the range index and scores only a capped candidate set) but
still ranked by the paper's own discrete average distance ``h_avg``,
so its answers are envelope answers whenever the true neighbours made
it into the candidate set.  Recall is the knob: more tables / wider
candidate caps trade latency for agreement with the exact top-k
(measured in ``benchmarks/bench_ann.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.matcher import Match, MatchStats, best_per_shape, rank
from ..core.measures import entry_measures
from ..geometry.nearest import BoundaryDistance
from ..geometry.polyline import Shape
from .lsh import LshIndex
from .sketch import SketchConfig, compute_entry_sketches, \
    sketch_normalized_shape


@dataclass(frozen=True)
class AnnConfig:
    """Knobs of the approximate tier (recall vs latency).

    The MinHash signature length is derived (``tables * band_width``),
    so the sketch family and the LSH banding always agree.
    """

    tables: int = 16
    band_width: int = 2
    candidate_cap: int = 512
    grid: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tables < 1 or self.band_width < 1:
            raise ValueError("tables and band_width must be positive")
        if self.candidate_cap < 1:
            raise ValueError("candidate_cap must be positive")

    @property
    def num_hashes(self) -> int:
        return self.tables * self.band_width

    @property
    def sketch(self) -> SketchConfig:
        return SketchConfig(num_hashes=self.num_hashes, grid=self.grid,
                            seed=self.seed)


class AnnPrunedMatcher:
    """Approximate top-k retrieval: LSH prune, then exact ``h_avg``.

    Built over a populated :class:`ShapeBase`; entry sketches come
    from the base's sketch cache when available (subset carry-over or
    a v4 snapshot) so shard warm-up after ``from_snapshot`` recomputes
    nothing.
    """

    def __init__(self, base, config: Optional[AnnConfig] = None):
        self.base = base
        self.config = config or AnnConfig()
        self._sketches = compute_entry_sketches(base, self.config.sketch)
        self.index = LshIndex(self.config.tables, self.config.band_width)
        self.index.add_batch(range(len(self._sketches)), self._sketches)
        self._version = base.version

    # ------------------------------------------------------------------
    # Incremental maintenance (mirrors the matcher's base coupling)
    # ------------------------------------------------------------------
    def add_entry(self, entry_id: int) -> None:
        """Index one freshly appended entry (sketched on the spot)."""
        entry = self.base.entries[entry_id]
        row = sketch_normalized_shape(entry.shape, self.config.sketch)
        if len(self._sketches) != entry_id:
            raise ValueError("entries must be added in append order")
        self._sketches = np.concatenate([self._sketches, row[None, :]])
        self.index.add(entry_id, row)

    def add_entries(self, entry_ids: Sequence[int]) -> None:
        """Index a contiguous run of freshly appended entries.

        The streaming ingest fast path: sketch rows come from the
        base's (already patched) sketch cache when present, and the
        sketch matrix is extended by one concatenation — identical end
        state to per-entry :meth:`add_entry` calls, minus the per-row
        recompute.  The matrix is replaced, never written in place, so
        concurrent readers keep a consistent view.
        """
        entry_ids = [int(e) for e in entry_ids]
        if not entry_ids:
            return
        if entry_ids != list(range(len(self._sketches),
                                   len(self._sketches) + len(entry_ids))):
            raise ValueError("entries must be added in append order")
        cached = self.base.cached_sketches(self.config.sketch.key)
        if cached is not None and len(cached) >= entry_ids[-1] + 1:
            rows = np.ascontiguousarray(cached[entry_ids[0]:
                                               entry_ids[-1] + 1])
        else:
            rows = np.stack([
                sketch_normalized_shape(self.base.entries[e].shape,
                                        self.config.sketch)
                for e in entry_ids])
        self._sketches = np.concatenate([self._sketches, rows])
        self.index.add_batch(entry_ids, rows)

    def remove_entry(self, entry_id: int) -> None:
        """Drop one entry; later entry ids shift down by one.

        Matches :meth:`ShapeBase.remove_shape`'s id compaction: the
        caller removes each of a shape's entries (highest first) and
        the index renumbers the survivors, ending up equal to a fresh
        build over the surviving entries.
        """
        self.index.remove(entry_id, self._sketches[entry_id])
        keep = np.ones(len(self._sketches), dtype=bool)
        keep[entry_id] = False
        # Renumber survivors above the hole: rebuild their postings
        # under the shifted id.  Done bucket-side to keep removal
        # O(affected postings) rather than O(corpus).
        for table in self.index._buckets:
            for bucket in table.values():
                shifted = {e - 1 for e in bucket if e > entry_id}
                bucket.difference_update(
                    {e for e in bucket if e > entry_id})
                bucket.update(shifted)
        self._sketches = self._sketches[keep]

    @property
    def num_indexed(self) -> int:
        return len(self.index)

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def query(self, query: Shape, k: int = 1,
              abort: Optional[Callable[[], bool]] = None
              ) -> Tuple[List[Match], MatchStats]:
        """Approximate top-k matches for ``query``.

        Same contract as :meth:`GeometricSimilarityMatcher.query`
        (list of :class:`Match` plus a :class:`MatchStats`), with
        ``approximate=True`` on every match and ``guaranteed`` always
        False — LSH pruning voids the envelope termination proof.
        ``abort`` is polled between the probe and the exact-scoring
        stage; an aborted query returns what it has with
        ``exhausted=True``.
        """
        stats = MatchStats()
        t0 = perf_counter()
        normalized = query.normalized.shape
        sketch = sketch_normalized_shape(normalized, self.config.sketch)
        stats.timings["ann_sketch"] = perf_counter() - t0
        t0 = perf_counter()
        candidate_ids, total = self.index.candidates(
            sketch, cap=self.config.candidate_cap)
        stats.timings["ann_probe"] = perf_counter() - t0
        stats.vertices_reported = total
        stats.candidates_evaluated = len(candidate_ids)
        if abort is not None and abort():
            stats.exhausted = True
            return [], stats
        t0 = perf_counter()
        matches = self._score(normalized, candidate_ids, k)
        stats.timings["exact_measures"] = perf_counter() - t0
        return matches, stats

    def query_batch(self, queries: Sequence[Shape], k: int = 1,
                    abort: Optional[Callable[[], bool]] = None
                    ) -> List[Tuple[List[Match], MatchStats]]:
        """Per-query :meth:`query` over a batch (service fan-out unit)."""
        results: List[Tuple[List[Match], MatchStats]] = []
        for query in queries:
            if abort is not None and abort():
                stats = MatchStats()
                stats.exhausted = True
                results.append(([], stats))
                continue
            results.append(self.query(query, k, abort=abort))
        return results

    def _score(self, normalized: Shape, candidate_ids: List[int],
               k: int) -> List[Match]:
        """Exact discrete measures over the candidate entries — one
        :func:`~repro.core.measures.entry_measures` call — then the best
        copy per shape, ranked by the matcher's one rule."""
        values = entry_measures(BoundaryDistance(normalized), self.base,
                                candidate_ids)
        return rank(self.base,
                    best_per_shape(self.base, candidate_ids, values), k,
                    approximate=True)

    def __repr__(self) -> str:
        return (f"AnnPrunedMatcher(entries={self.num_indexed}, "
                f"tables={self.config.tables}, "
                f"band_width={self.config.band_width}, "
                f"cap={self.config.candidate_cap})")
