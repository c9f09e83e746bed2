"""The incremental-fattening retrieval algorithm (paper Section 2.5).

Given a query shape Q the matcher:

1. normalizes Q about its diameter (the base already holds every shape
   normalized about its alpha-diameters, both endpoint orders, so one
   canonical query copy suffices);
2. grows a sequence of epsilon-envelopes around the normalized query;
3. decomposes envelope differences into O(m) triangles and asks the
   simplex range-search index for the base vertices near them.  A
   vertex's distance to the query boundary depends on the query alone,
   so it is computed once, when the index first hands the vertex back,
   and kept in a pool sorted by distance: every vertex is processed
   exactly once, and an iteration is a threshold on numbers already
   known.  The index is asked again only when an iteration's width
   passes the width up to which every vertex is known, and then for as
   wide a band as it resolves at the same cost (its ``resolution``) —
   unless the bands still needed would hand back at least as many ids
   as there are vertices left unknown.  Then one engine pass fills the
   memo with every vertex's distance (``vertices_scanned``), they join
   the pool as a band's ids would, and the index is not asked again:
   same iterations, candidates, hooks and stop step, fewer
   ``range_queries`` / ``triangles_queried`` / ``vertices_reported``;
4. bumps a counter per normalized copy; a copy with a fraction
   ``>= 1 - beta`` of its (indexed) vertices inside the current
   envelope becomes a *candidate* and gets its exact measure evaluated;
5. stops as soon as the k-th best evaluated measure is ``<= beta *
   eps_i`` — every copy that is not yet a candidate has more than a
   ``beta`` fraction of vertices at distance ``> eps_i``, hence a
   discrete average distance ``> beta * eps_i``, so no unseen copy can
   beat the current winners — or when the envelope exceeds the paper's
   termination threshold, in which case the caller should fall back to
   geometric hashing (Section 3).
"""

from __future__ import annotations

import heapq
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, TypeVar)

import numpy as np

from ..geometry.envelope import band_cover_triangles
from ..geometry.nearest import BoundaryDistance
from ..geometry.polyline import Shape
from ..geometry.primitives import EPSILON
from .epsilon import EpsilonSchedule, schedule_for
from .measures import (DistanceMemo, continuous_average_distance,
                       directed_average_distance, entry_measures)
from .shapebase import BOUND_MARGIN, ShapeBase, ShapeEntry


@dataclass
class Match:
    """One retrieved shape, ranked by its average-distance measure."""

    shape_id: int
    image_id: Optional[int]
    distance: float
    entry_id: int
    approximate: bool = False     # True when produced by hashing fallback

    def __repr__(self) -> str:
        tag = " approx" if self.approximate else ""
        return (f"Match(shape={self.shape_id}, image={self.image_id}, "
                f"distance={self.distance:.6f}{tag})")


@dataclass
class MatchStats:
    """Work accounting for one query (drives the scaling benchmarks)."""

    iterations: int = 0
    epsilons: List[float] = field(default_factory=list)
    triangles_queried: int = 0
    range_queries: int = 0        # index queries issued (<= iterations)
    vertices_reported: int = 0    # ids the index handed back
    vertices_scanned: int = 0     # rows the one-pass memo fill measured
    copies_bounded: int = 0       # copies the best-first finish bounded
    vertices_processed: int = 0
    candidates_evaluated: int = 0
    guaranteed: bool = False      # early-terminated with a guarantee
    exhausted: bool = False       # hit the termination envelope
    aborted: bool = False         # ``abort()`` ended the loop
    #: Stops owed to ``priors`` (0/1 per shard-level query, summed by
    #: the service): the stop test fired while the base's own evaluated
    #: shapes alone would not have satisfied it.
    prior_stops: int = 0
    #: Per-stage wall time in seconds (``normalize``, ``calibrate``,
    #: ``range_search``, ``filter``, ``exact_measures``) — the source
    #: of the CLI's ``--profile`` breakdown.
    timings: Dict[str, float] = field(default_factory=dict)


#: Per-shape best: shape id -> (measure value, entry id).
BestByShape = Dict[int, Tuple[float, int]]


def best_per_shape(base: ShapeBase, entry_ids: Sequence[int],
                   values: Sequence[float],
                   best: Optional[BestByShape] = None) -> BestByShape:
    """Fold measured entries into ``best`` (or a new dict): per shape,
    the minimum ``(value, entry_id)``, whatever the measuring order."""
    best = {} if best is None else best
    for entry_id, value in zip(entry_ids, values):
        entry_id = int(entry_id)
        shape_id = base.entry(entry_id).shape_id
        current = best.get(shape_id)
        if current is None or (value, entry_id) < current:
            best[shape_id] = (value, entry_id)
    return best


def rank(base: ShapeBase, best: BestByShape, k: int,
         approximate: bool = False) -> List[Match]:
    """The ``k`` best shapes of ``best`` by ``(value, shape_id)`` — the
    order shards are merged in — so ties rank alike in every tier."""
    ranked = sorted(best.items(),
                    key=lambda item: (item[1][0], item[0]))[:k]
    return [Match(shape_id=shape_id, image_id=base.image_of_shape(shape_id),
                  distance=value, entry_id=entry_id, approximate=approximate)
            for shape_id, (value, entry_id) in ranked]


T = TypeVar("T")


class _TopK:
    """Exact bounded tracker of the ``k`` smallest per-shape values.

    Replaces the per-iteration full sort in ``kth_best_guaranteed``.
    ``offer`` is called whenever a shape's best value improves; values
    per shape only ever decrease, which is what makes rejection at
    insert time safe: a rejected value is ``>=`` every retained one,
    and the shape is re-offered if it later improves.  Stale heap
    entries (left behind by improvements and evictions) are discarded
    lazily by checking them against the membership map.
    """

    __slots__ = ("k", "_heap", "_member")

    def __init__(self, k: int):
        self.k = k
        self._heap: List[Tuple[float, int]] = []   # (-value, shape_id)
        self._member: Dict[int, float] = {}        # shape_id -> value

    def _clean(self) -> None:
        heap, member = self._heap, self._member
        while heap and member.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)

    def offer(self, shape_id: int, value: float) -> None:
        member = self._member
        current = member.get(shape_id)
        if current is not None:
            if value >= current:
                return
            member[shape_id] = value
            heapq.heappush(self._heap, (-value, shape_id))
            return
        if len(member) < self.k:
            member[shape_id] = value
            heapq.heappush(self._heap, (-value, shape_id))
            return
        self._clean()
        if value >= -self._heap[0][0]:
            return
        member[shape_id] = value
        heapq.heappush(self._heap, (-value, shape_id))
        self._clean()
        _, evicted = heapq.heappop(self._heap)
        del member[evicted]

    def kth(self) -> Optional[float]:
        """The k-th smallest value seen, or ``None`` with fewer than k."""
        if len(self._member) < self.k:
            return None
        self._clean()
        return -self._heap[0][0]


class _QueryScratch:
    """Reusable per-query buffers for the fattening driver.

    One query's worth of known/inside-count/evaluated state plus the
    (read-only, shared) candidate thresholds.  Pooled by the matcher so
    repeated queries stop paying the O(n + entries) allocations.
    ``known`` flags the vertices the band pass has put in its pool;
    ``memo`` keeps every boundary distance the query computed.

    A scratch additionally pins the epoch it was checked out against:
    ``index``/``owner`` and the memo's points, offsets and anchors are
    the consistent base view captured at checkout, which ``_drive`` reads
    instead of the live base — a concurrent ingest batch can swap the
    base's arrays mid-query without the query ever mixing generations.
    """

    __slots__ = ("known", "inside_counts", "evaluated", "thresholds",
                 "index", "owner", "memo")

    def __init__(self, num_points: int, num_entries: int,
                 thresholds: np.ndarray):
        self.known = np.zeros(num_points, dtype=bool)
        self.inside_counts = np.zeros(num_entries, dtype=np.int64)
        self.evaluated = np.zeros(num_entries, dtype=bool)
        self.thresholds = thresholds
        self.index = None
        self.owner = None
        self.memo = DistanceMemo(num_points)

    def reset(self) -> None:
        self.known[:] = False
        self.inside_counts[:] = 0
        self.evaluated[:] = False
        self.memo.reset()


class GeometricSimilarityMatcher:
    """Retrieval by incremental envelope fattening over a ShapeBase.

    Parameters
    ----------
    base:
        The populated :class:`ShapeBase`.
    beta:
        Candidate tolerance of step 3: a copy needs a fraction
        ``>= 1 - beta`` of its vertices inside the envelope.  Must be in
        ``(0, 1)`` for the early-termination guarantee to be active.
    growth:
        Geometric growth factor of the envelope widths.
    measure:
        ``"discrete"`` ranks candidates by the vertex-average distance
        (the form the termination bound is stated for); ``"continuous"``
        refines candidate values with the boundary-integrated measure;
        ``"symmetric"`` uses ``max`` of both discrete directions, which
        additionally requires the candidate to cover the query's
        boundary (the ``g_similar`` semantics of Section 5.1 — and the
        regime in which Figure 10's inverse V_S relationship holds).
        The candidate/termination machinery stays sound for all three:
        each refined value upper-bounds the discrete directed one, so a
        value passing the ``beta * eps`` bound under them also passes it
        under the discrete measure.
    cap_sectors:
        Fan resolution of the conservative envelope cover.
    slack:
        Multiplier on the paper's termination threshold (ablation knob).
    """

    def __init__(self, base: ShapeBase, beta: float = 0.25,
                 growth: float = 1.6, measure: str = "discrete",
                 cap_sectors: int = 8, slack: float = 1.0,
                 samples_per_edge: int = 8):
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        if measure not in ("discrete", "continuous", "symmetric"):
            raise ValueError("measure must be 'discrete', 'continuous' "
                             "or 'symmetric'")
        self.base = base
        self.beta = float(beta)
        self.growth = float(growth)
        self.measure = measure
        self.cap_sectors = int(cap_sectors)
        self.slack = float(slack)
        self.samples_per_edge = int(samples_per_edge)
        # Scratch pool: shards are queried from several worker threads
        # at once, so buffers are checked out under a lock rather than
        # living on the matcher; keyed on the base version so mutations
        # invalidate them.  The pool is additionally keyed on the
        # owning pid: a matcher inherited across ``fork`` (process
        # workers, chaos harnesses) must rebuild its pool in the child
        # instead of sharing checked-out buffers with the parent.
        self._scratch_lock = threading.Lock()
        self._scratch_pool: List[_QueryScratch] = []
        self._scratch_key: Optional[Tuple[int, int, int]] = None
        self._scratch_pid = os.getpid()
        self._thresholds: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @contextmanager
    def _scratch(self) -> Iterator[_QueryScratch]:
        """Check a scratch object out of the pool (thread-safe).

        The buffers hold whatever the last query left; :meth:`_each`
        resets them before every query.  Safe across ``fork``: a child
        process detects the inherited pool via the pid stamp and starts
        from an empty pool, so two processes never hand out (or mutate)
        the same scratch buffers even though they began life as the
        same object.
        """
        # One consistent capture per checkout: the index is read before
        # the arrays (the writer publishes it after them), so every id
        # it can report is in range for the arrays — and the buffers
        # are sized from this capture, not from the live base.
        version = self.base.version
        view = self.base.reader_view()
        index, points, owner, sizes = view[:4]
        num_points = len(points)
        num_entries = len(sizes)
        key = (version, num_points, num_entries)
        with self._scratch_lock:
            if self._scratch_pid != os.getpid():
                self._scratch_pool = []
                self._scratch_key = None
                self._scratch_pid = os.getpid()
            if self._scratch_key != key:
                self._scratch_pool = []
                # ceil((1 - beta) * size): the step-3 candidate
                # threshold, shared read-only by every scratch.
                thresholds = np.ceil(
                    (1.0 - self.beta) * sizes
                ).astype(np.int64)
                np.maximum(thresholds, 1, out=thresholds)
                self._thresholds = thresholds
                self._scratch_key = key
            scratch = (self._scratch_pool.pop() if self._scratch_pool
                       else _QueryScratch(num_points, num_entries,
                                          self._thresholds))
        scratch.index = index
        scratch.owner = owner
        scratch.memo.attach(view)
        try:
            yield scratch
        finally:
            scratch.index = scratch.owner = None
            scratch.memo.attach(None)
            with self._scratch_lock:
                if self._scratch_key == key:
                    self._scratch_pool.append(scratch)

    # ------------------------------------------------------------------
    def normalize_query(self, query: Shape) -> Shape:
        """Normalize the query about its diameter (Section 2.3)."""
        return query.normalized.shape

    def _entry_measure(self, entry: ShapeEntry, engine: BoundaryDistance,
                       normalized_query: Shape) -> float:
        """One entry's measure from scalar passes (the continuous and
        symmetric measures need per-entry engines)."""
        if self.measure == "continuous":
            return continuous_average_distance(
                entry.shape, normalized_query, engine=engine,
                samples_per_edge=self.samples_per_edge)
        discrete = directed_average_distance(entry.shape, normalized_query,
                                             engine)
        if self.measure == "symmetric":
            return max(discrete, directed_average_distance(
                normalized_query, entry.shape))
        return discrete

    def _entry_measures(self, entries: Sequence[ShapeEntry],
                        entry_ids: np.ndarray, engine: BoundaryDistance,
                        normalized_query: Shape,
                        memo: Optional[DistanceMemo] = None
                        ) -> List[float]:
        """Exact measures of a whole candidate batch: one
        :func:`~repro.core.measures.entry_measures` call (through
        ``memo``) for the discrete measure, :meth:`_entry_measure` per
        entry otherwise."""
        if self.measure == "discrete":
            return entry_measures(engine, self.base, entry_ids, memo)
        return [self._entry_measure(entry, engine, normalized_query)
                for entry in entries]

    def make_schedule(self, normalized_query: Shape) -> EpsilonSchedule:
        return schedule_for(normalized_query, self.base.num_shapes,
                            self.base.total_vertices,
                            self.base.average_vertices_per_entry,
                            growth=self.growth, slack=self.slack)

    def calibrate_initial_epsilon(self, normalized_query: Shape,
                                  max_rounds: int = 32,
                                  stats: Optional[MatchStats] = None
                                  ) -> float:
        """Step 1 of the paper: adjust eps_1 by simplex range *counting*.

        Starting from the density-heuristic width, the envelope is
        grown until the range-counting structure reports at least one
        vertex inside it (cover-triangle counts over-estimate slightly
        because the triangles overlap near joints, which only makes the
        calibration conservative).  Returns the calibrated width,
        capped at the termination threshold.  All of a round's cover
        triangles are counted in one batched index call; with ``stats``
        given, the wall time lands in ``stats.timings["calibrate"]``.
        """
        started = perf_counter()
        schedule = self.make_schedule(normalized_query)
        index = self.base.index
        eps = schedule.initial
        for _ in range(max_rounds):
            triangles = band_cover_triangles(normalized_query, 0.0,
                                             eps, self.cap_sectors)
            occupied = bool(index.count_triangles(triangles).any())
            if occupied or eps >= schedule.maximum:
                break
            eps = min(eps * self.growth, schedule.maximum)
        if stats is not None:
            stats.timings["calibrate"] = (
                stats.timings.get("calibrate", 0.0) +
                perf_counter() - started)
        return eps

    # ------------------------------------------------------------------
    # The shared fattening driver (steps 2-5 of the paper's algorithm)
    # ------------------------------------------------------------------
    @staticmethod
    def _band_end(widths: np.ndarray, step: int, complete_to: float,
                  resolution: float) -> int:
        """The band rule: the schedule index of the outer width of the
        index query issued at ``step`` (whose width passes
        ``complete_to``) — the furthest scheduled width within one
        ``resolution`` of ``complete_to``, and at least the step's own."""
        furthest = int(np.searchsorted(
            widths, complete_to + resolution, side="right")) - 1
        return max(step, furthest)

    @classmethod
    def _bands_to(cls, widths: np.ndarray, step: int, complete_to: float,
                  resolution: float, target: int) -> int:
        """How many index queries the band rule issues, from ``step``
        on, until every vertex within ``widths[target]`` is known."""
        bands = 0
        while True:
            end = cls._band_end(widths, step, complete_to, resolution)
            bands += 1
            if end >= target:
                return bands
            complete_to = float(widths[end])
            step = int(np.searchsorted(widths, complete_to, side="right"))

    def _drive(self, normalized_query: Shape, engine: BoundaryDistance,
               schedule: EpsilonSchedule, stats: MatchStats,
               on_candidate: Optional[Callable[[ShapeEntry], None]],
               should_stop: Callable[[float, BestByShape], bool],
               cutoffs: Callable[[], Tuple[float, float]],
               scratch: _QueryScratch,
               abort: Optional[Callable[[], bool]] = None,
               on_improved: Optional[Callable[[int, float], None]] = None
               ) -> BestByShape:
        """Grow envelopes until ``should_stop(eps, best)`` or exhaustion.

        Maintains the per-copy inside counters, promotes candidates and
        evaluates their exact measures; sets ``stats.guaranteed`` or
        ``stats.exhausted`` according to how the loop ended.

        The schedule is *replayed* from a memo.  ``complete_to`` is the
        width up to which every base vertex is known (has its boundary
        distance in the pool).  An iteration whose width exceeds it
        issues one index query for the band from ``complete_to`` to the
        furthest scheduled width within one ``index.resolution`` (at
        least its own width, :meth:`_band_end`), looks up the distances
        of the ids not yet known in ``scratch.memo`` and merges them
        into the pool; every iteration then consumes the pool prefix
        with distance ``<= eps + EPSILON`` — the vertices a per-band
        range search plus exact filter would hand it — and proceeds as
        the paper's step 3-5.  No vertex's distance is computed twice:
        scoring reads the memo too, and measures only its copies'
        unknown vertices and anchors.

        The index degenerates into the scan when it would hand back more
        than is left: at such an iteration, if the bands still needed
        to reach the first remaining width at which ``should_stop``
        already holds for the answers in hand (the last width if none
        does; :meth:`_bands_to`) times the ids the last band reported
        is at least the number of vertices not yet known, the query
        leaves the index through :meth:`_leave_index`.  Here that step
        is the paper's loop carried on without the index: one engine
        pass *fills* the memo with every vertex's distance
        (``stats.vertices_scanned``), those vertices join the pool as a
        band's would, and the index is never asked again.  The rest of
        the schedule replays from the pool as before, so iterations,
        widths, candidates, their order, the hooks and the stop step
        are the per-band loop's; only ``range_queries``,
        ``triangles_queried`` and ``vertices_reported`` fall.  The fill
        covers the captured index's vertices only: ids past them belong
        to an ingest the query's generation does not include.
        :class:`BestFirstMatcher` finishes the query there instead.

        ``cutoffs()`` returns ``(bar, own)``: the value the stopping
        test compares with — the k-th best of (own ∪ priors), or a
        threshold query's threshold — and the same without priors
        (``inf`` while fewer than k are known).  When the stop fires
        with ``own > bar`` and ``own`` alone would not have passed,
        ``stats.prior_stops`` is 1.

        ``abort`` is a cooperative cancellation hook (e.g. a deadline):
        it is polled once per envelope iteration, and a ``True`` return
        ends the loop immediately *without* the termination guarantee —
        ``stats.exhausted`` is set, exactly as if the epsilon budget had
        run out, so callers fall back to geometric hashing, and
        ``stats.aborted`` records why.

        ``scratch`` is a clean checked-out :class:`_QueryScratch`;
        ``on_improved(shape_id, value)`` is handed the best value of
        every shape with a copy scored in the iteration — the top-k
        tracker's feed, to which an unchanged value is a no-op.
        """
        memo = scratch.memo
        owner = scratch.owner
        index = scratch.index
        known = scratch.known
        inside_counts = scratch.inside_counts
        evaluated = scratch.evaluated
        thresholds = scratch.thresholds
        best_by_shape: BestByShape = {}
        timings = stats.timings
        timings.setdefault("range_search", 0.0)
        timings.setdefault("filter", 0.0)
        timings.setdefault("exact_measures", 0.0)

        widths = np.fromiter(schedule.widths(), dtype=np.float64)
        schedule_widths = widths.tolist()
        last = len(widths) - 1
        resolution = index.resolution
        complete_to = 0.0
        # Ids past the captured index's vertices belong to an ingest it
        # does not cover yet; the fill stops where the index does.
        indexed = len(index)
        unknown = indexed             # indexed vertices not yet known
        reported = 0                  # ids the last band handed back
        # Known, not yet consumed vertices, ascending by distance.
        pool_ids = np.zeros(0, dtype=np.int64)
        pool_distances = np.zeros(0)
        for step, eps in enumerate(schedule_widths):
            if abort is not None and abort():
                stats.exhausted = stats.aborted = True
                return best_by_shape
            stats.iterations += 1
            stats.epsilons.append(eps)
            started = perf_counter()
            if eps > complete_to:
                target = next((h for h in range(step, last) if should_stop(
                    schedule_widths[h], best_by_shape)), last)
                if reported * self._bands_to(widths, step, complete_to,
                                             resolution, target) >= unknown:
                    timings["filter"] += perf_counter() - started
                    ids = self._leave_index(
                        normalized_query, engine, scratch, stats,
                        best_by_shape, on_candidate, on_improved, abort,
                        cutoffs)
                    if ids is None:
                        return best_by_shape
                    started = perf_counter()
                    complete_to = math.inf
                else:
                    outer = schedule_widths[self._band_end(
                        widths, step, complete_to, resolution)]
                    triangles = band_cover_triangles(
                        normalized_query, complete_to, outer,
                        self.cap_sectors)
                    stats.triangles_queried += len(triangles)
                    stats.range_queries += 1
                    ids = index.candidates(triangles)
                    complete_to = outer
                    reported = int(ids.size)
                    stats.vertices_reported += reported
                    now = perf_counter()
                    timings["range_search"] += now - started
                    started = now
                    ids = ids[~known[ids]]
                if len(ids):
                    known[ids] = True
                    unknown -= len(ids)
                    pool_ids = np.concatenate([pool_ids, ids])
                    pool_distances = np.concatenate(
                        [pool_distances, memo.lookup(engine, ids)])
                    order = np.argsort(pool_distances, kind="stable")
                    pool_ids = pool_ids[order]
                    pool_distances = pool_distances[order]
            cut = int(np.searchsorted(pool_distances, eps + EPSILON,
                                      side="right"))
            inside = pool_ids[:cut]
            pool_ids = pool_ids[cut:]
            pool_distances = pool_distances[cut:]
            stats.vertices_processed += cut
            np.add.at(inside_counts, owner[inside], 1)
            touched = np.unique(owner[inside])
            fresh = touched[(inside_counts[touched] >=
                             thresholds[touched]) & ~evaluated[touched]]
            timings["filter"] += perf_counter() - started
            if len(fresh):
                self._score(fresh, normalized_query, engine, scratch, stats,
                            best_by_shape, on_candidate, on_improved)

            if should_stop(eps, best_by_shape):
                stats.guaranteed = True
                bar, own = cutoffs()
                stats.prior_stops = int(
                    own > bar and own > self.beta * eps + EPSILON)
                return best_by_shape
        stats.exhausted = True
        return best_by_shape

    def _score(self, fresh: np.ndarray, normalized_query: Shape,
               engine: BoundaryDistance, scratch: _QueryScratch,
               stats: MatchStats, best_by_shape: BestByShape,
               on_candidate: Optional[Callable[[ShapeEntry], None]],
               on_improved: Optional[Callable[[int, float], None]]) -> None:
        """Evaluate the exact measures of the distinct, not yet
        evaluated copies ``fresh`` (through the memo), fire the hooks
        and fold the values into ``best_by_shape``."""
        started = perf_counter()
        scratch.evaluated[fresh] = True
        entries = [self.base.entry(int(e)) for e in fresh]
        values = self._entry_measures(entries, fresh, engine,
                                      normalized_query, scratch.memo)
        stats.candidates_evaluated += len(fresh)
        if on_candidate is not None:
            for entry in entries:
                on_candidate(entry)
        best_per_shape(self.base, fresh, values, best_by_shape)
        if on_improved is not None:
            for shape_id in dict.fromkeys(
                    entry.shape_id for entry in entries):
                on_improved(shape_id, best_by_shape[shape_id][0])
        stats.timings["exact_measures"] += perf_counter() - started

    def _leave_index(self, normalized_query: Shape,
                     engine: BoundaryDistance, scratch: _QueryScratch,
                     stats: MatchStats, best_by_shape: BestByShape,
                     on_candidate: Optional[Callable[[ShapeEntry], None]],
                     on_improved: Optional[Callable[[int, float], None]],
                     abort: Optional[Callable[[], bool]],
                     cutoffs: Callable[[], Tuple[float, float]]
                     ) -> Optional[np.ndarray]:
        """The step at which :meth:`_drive` stops asking the index: the
        ids of every indexed vertex not yet known, for the loop to fill
        the memo with and go on (``None`` would mean the query is
        answered and the loop ends)."""
        ids = np.flatnonzero(~scratch.known[:len(scratch.index)])
        stats.vertices_scanned += int(
            np.count_nonzero(~scratch.memo.measured[ids]))
        return ids

    # ------------------------------------------------------------------
    def query(self, query: Shape, k: int = 1,
              on_candidate: Optional[Callable[[ShapeEntry], None]] = None,
              abort: Optional[Callable[[], bool]] = None
              ) -> Tuple[List[Match], MatchStats]:
        """Return up to ``k`` best matches and the work statistics.

        ``on_candidate`` fires, in evaluation order, for every entry
        whose exact measure is computed — the access trace the external
        storage experiments of Section 4 replay.  ``abort`` (polled per
        iteration) cancels the search cooperatively; see :meth:`_drive`.
        """
        return self.query_batch([query], k, on_candidate, abort)[0]

    def query_batch(self, queries: Sequence[Shape], k: int = 1,
                    on_candidate: Optional[Callable[[ShapeEntry], None]]
                    = None,
                    abort: Optional[Callable[[], bool]] = None,
                    priors: Optional[Sequence[Sequence[float]]] = None
                    ) -> List[Tuple[List[Match], MatchStats]]:
        """Answer several queries, amortizing the per-query setup.

        One normalization and schedule per query, but a single scratch
        checkout shared (serially) across the whole batch; results are
        in input order.  The service tier feeds cache misses through
        this path.

        ``priors[i]`` holds exact distances from ``queries[i]`` to
        shapes held *elsewhere* (another shard of the same corpus):
        finite, non-negative, the k smallest are used.  They count
        towards the stopping test only — the query stops as soon as the
        k-th best of (own evaluated shapes ∪ priors) is ``<= beta *
        eps`` — and never appear in the answer, which is still this
        base's own shapes at their own exact distances: every own shape
        that belongs to the top-k of the union is returned.  ``None``
        means no priors for any query.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        seeds = self._checked_priors(priors, len(queries), k)
        return self._each(
            list(zip(queries, seeds)),
            lambda item, scratch: self._query_one(
                item[0], k, on_candidate, abort, scratch, item[1]))

    @staticmethod
    def _checked_priors(priors: Optional[Sequence[Sequence[float]]],
                        num_queries: int, k: int) -> List[List[float]]:
        """Per query, the (at most) k smallest priors, validated."""
        if priors is None:
            return [[] for _ in range(num_queries)]
        if len(priors) != num_queries:
            raise ValueError(f"priors must hold one sequence per query "
                             f"({num_queries}), got {len(priors)}")
        seeds = []
        for values in priors:
            values = [float(value) for value in values]
            if not all(math.isfinite(value) and value >= 0.0
                       for value in values):
                raise ValueError("priors must be finite non-negative "
                                 "distances")
            seeds.append(sorted(values)[:k])
        return seeds

    def _each(self, items: Sequence[T],
              run_one: Callable[[T, _QueryScratch],
                                Tuple[List[Match], MatchStats]]
              ) -> List[Tuple[List[Match], MatchStats]]:
        """``run_one(item, scratch)`` per query item, on one scratch
        reset before each."""
        if self.base.num_entries == 0:
            # Nothing unseen could beat anything: the (empty) answer is
            # complete, not cut short.
            return [([], MatchStats(guaranteed=True)) for _ in items]
        results = []
        with self._scratch() as scratch:
            for item in items:
                scratch.reset()
                results.append(run_one(item, scratch))
        return results

    def _query_one(self, query: Shape, k: int,
                   on_candidate: Optional[Callable[[ShapeEntry], None]],
                   abort: Optional[Callable[[], bool]],
                   scratch: _QueryScratch, priors: Sequence[float]
                   ) -> Tuple[List[Match], MatchStats]:
        """One top-k query against a clean checked-out scratch;
        ``priors`` as :meth:`_checked_priors` left them."""
        stats = MatchStats()
        started = perf_counter()
        normalized_query = self.normalize_query(query)
        engine = BoundaryDistance(normalized_query)
        schedule = self.make_schedule(normalized_query)
        stats.timings["normalize"] = perf_counter() - started
        tracker = _TopK(k)
        # Priors sit in the tracker under keys no shape can have, so
        # they bound the k-th best without ever being ranked; ``own``
        # tracks the base's shapes alone.
        for position, value in enumerate(priors):
            tracker.offer(-1 - position, value)
        own = _TopK(k) if priors else tracker
        beta = self.beta

        def kth_best_guaranteed(eps: float, best: BestByShape) -> bool:
            kth_value = tracker.kth()
            return (kth_value is not None and
                    kth_value <= beta * eps + EPSILON)

        def improved(shape_id: int, value: float) -> None:
            tracker.offer(shape_id, value)
            if own is not tracker:
                own.offer(shape_id, value)

        def cutoffs() -> Tuple[float, float]:
            return tuple(math.inf if t.kth() is None else t.kth()
                         for t in (tracker, own))

        best_by_shape = self._drive(normalized_query, engine, schedule,
                                    stats, on_candidate,
                                    kth_best_guaranteed, abort=abort,
                                    scratch=scratch, on_improved=improved,
                                    cutoffs=cutoffs)
        return rank(self.base, best_by_shape, k), stats

    # ------------------------------------------------------------------
    def query_threshold(self, query: Shape, distance_threshold: float,
                        on_candidate: Optional[Callable[[ShapeEntry], None]]
                        = None,
                        abort: Optional[Callable[[], bool]] = None
                        ) -> Tuple[List[Match], MatchStats]:
        """All shapes whose measure is ``<= distance_threshold``.

        This is the ``shape_similar(Q)`` primitive of Section 5.2.
        Guarantee: a copy with discrete average distance ``<= t`` has at
        most a fraction ``t / eps`` of vertices outside the
        eps-envelope, so iterating until ``eps >= t / beta`` makes every
        qualifying copy a candidate.  The envelope is therefore grown to
        ``max(threshold / beta, paper threshold)``.
        """
        return self.query_threshold_batch([query], distance_threshold,
                                          on_candidate, abort)[0]

    def query_threshold_batch(self, queries: Sequence[Shape],
                              distance_threshold: float,
                              on_candidate: Optional[
                                  Callable[[ShapeEntry], None]] = None,
                              abort: Optional[Callable[[], bool]] = None
                              ) -> List[Tuple[List[Match], MatchStats]]:
        """:meth:`query_threshold` for several queries, one scratch.

        The algebra engine's ``similar`` leaves arrive in groups (every
        distinct query shape of a composite plan); this amortizes the
        scratch checkout the same way :meth:`query_batch` does for the
        service tier's top-k misses.
        """
        if distance_threshold < 0:
            raise ValueError("distance_threshold must be non-negative")
        return self._each(queries, lambda query, scratch:
                          self._query_threshold_one(
                              query, distance_threshold, on_candidate,
                              abort, scratch))

    def _query_threshold_one(self, query: Shape, distance_threshold: float,
                             on_candidate: Optional[Callable[[ShapeEntry],
                                                             None]],
                             abort: Optional[Callable[[], bool]],
                             scratch: _QueryScratch
                             ) -> Tuple[List[Match], MatchStats]:
        stats = MatchStats()
        started = perf_counter()
        normalized_query = self.normalize_query(query)
        engine = BoundaryDistance(normalized_query)
        base_schedule = self.make_schedule(normalized_query)
        stats.timings["normalize"] = perf_counter() - started
        needed = distance_threshold / self.beta
        schedule = EpsilonSchedule(
            initial=base_schedule.initial, growth=base_schedule.growth,
            maximum=max(base_schedule.maximum, needed,
                        base_schedule.initial))

        def envelope_wide_enough(eps: float, best: BestByShape) -> bool:
            return eps >= needed

        best_by_shape = self._drive(
            normalized_query, engine, schedule, stats, on_candidate,
            envelope_wide_enough, abort=abort, scratch=scratch,
            cutoffs=lambda: (distance_threshold + BOUND_MARGIN,) * 2)
        qualifying = {sid: bv for sid, bv in best_by_shape.items()
                      if bv[0] <= distance_threshold + EPSILON}
        return rank(self.base, qualifying, len(qualifying)), stats


class BestFirstMatcher(GeometricSimilarityMatcher):
    """The served matcher: the paper's loop until the index would hand
    back more than is left, then a best-first finish from a lower bound.

    Where :class:`GeometricSimilarityMatcher` fills the memo with every
    vertex's distance and replays the rest of its schedule, this
    matcher bounds every copy not yet evaluated from the base's
    :class:`~repro.core.shapebase.CellGrid` and scores copies in
    ascending bound until no bound left can reach the answer.  The
    answer is the same: a copy's exact discrete ``h_avg`` is at least
    its bound (up to ``BOUND_MARGIN``, which ``EPSILON`` covers), so
    every copy at or below the final k-th best — or the threshold — is
    scored.  The referee keeps the loop; everything in
    ``repro.service`` answers through this class.
    """

    #: Copies scored by the first chunk of the finish; chunks double.
    FIRST_CHUNK = 16

    def _leave_index(self, normalized_query: Shape,
                     engine: BoundaryDistance, scratch: _QueryScratch,
                     stats: MatchStats, best_by_shape: BestByShape,
                     on_candidate: Optional[Callable[[ShapeEntry], None]],
                     on_improved: Optional[Callable[[int, float], None]],
                     abort: Optional[Callable[[], bool]],
                     cutoffs: Callable[[], Tuple[float, float]]
                     ) -> Optional[np.ndarray]:
        """Finish the query best-first; always ``None``.

        The base's grid bounds the copies the captured index covers
        (:meth:`~repro.core.shapebase.CellGrid.copy_bounds`; a vertex
        the memo has measured counts at its distance).  The copies not yet
        evaluated are scored in ascending bound, ``FIRST_CHUNK`` at a
        time and doubling, each chunk cut where bounds pass
        ``cutoffs()[0] + EPSILON``; the finish stops — with the
        guarantee — once the next bound is past it.  ``abort`` is
        polled once per chunk.  ``stats.prior_stops`` is 1 when that
        next bound would not have been past the own-only cutoff.
        """
        started = perf_counter()
        memo = scratch.memo
        indexed = len(scratch.index)
        # The copies whose vertices the captured index covers; later
        # ones belong to an ingest this query's generation excludes.
        covered = int(np.searchsorted(memo.offsets, indexed,
                                      side="right")) - 1
        left = np.flatnonzero(~scratch.evaluated[:covered])
        stats.copies_bounded += len(left)
        bounds = self.base.cell_grid(memo.points, indexed).copy_bounds(
            engine, memo.offsets[:covered + 1], memo.measured,
            memo.distance)[left]
        order = np.argsort(bounds, kind="stable")
        left, bounds = left[order], bounds[order]
        stats.timings["filter"] += perf_counter() - started
        position, chunk = 0, self.FIRST_CHUNK
        while position < len(left):
            if abort is not None and abort():
                stats.exhausted = stats.aborted = True
                return None
            bar, own = cutoffs()
            end = position + int(np.searchsorted(
                bounds[position:position + chunk], bar + EPSILON,
                side="right"))
            if end == position:
                stats.prior_stops = int(
                    own > bar and bounds[position] <= own + EPSILON)
                break
            self._score(left[position:end], normalized_query, engine,
                        scratch, stats, best_by_shape, on_candidate,
                        on_improved)
            position, chunk = end, 2 * chunk
        stats.guaranteed = True
        return None
