"""The embeddable retrieval service: one staged query pipeline.

The unit of query execution is a **batch** — :meth:`RetrievalService
.retrieve` is ``retrieve_batch([sketch])[0]`` — and every batch runs
the same stages, each a method of :class:`RetrievalService`:

1. ``_admit`` — validate ``k``, then take one slot per sketch from the
   bounded :class:`~repro.service.pool.AdmissionQueue`; saturation
   sheds the tail with an explicit ``overloaded`` result (never blocks);
2. ``_select_tier`` — the ladder rung (exact / ANN / hash) the
   remaining budget can afford;
3. ``_coalesce`` — probe the :class:`~repro.service.cache
   .QueryResultCache` under each sketch's canonical (similarity-
   invariant) signature; identical misses, inside the batch or in
   flight on another thread, share one computation;
4. ``_fan_out`` — one sequence-form matcher call per shard for all
   unique misses, in parallel on the worker pool, the query's deadline
   as its cooperative abort;
5. ``_salvage`` — a failed shard's slice from the rungs below;
6. ``_merge`` — per-shard top-k lists into the global top-k (exact,
   because shards are disjoint and measures base-independent) — then
   ``_hand_off``: if the deadline expired mid-search, or no match beat
   ``match_threshold``, answer from the geometric-hashing tier instead
   (the paper's Section 3 rule, doubling as graceful degradation);
7. ``_record`` — every answered sketch feeds the
   :class:`~repro.service.metrics.MetricsRegistry` the same way;
   ``snapshot()`` returns the whole picture as a plain dict.

**Failure isolation.**  Each shard task runs behind a resilience
wrapper: an exception, a corrupted answer (non-finite distance /
foreign shape id) or a blown per-attempt budget is caught, retried
with capped exponential backoff + jitter, and — once a per-shard
:class:`~repro.service.breaker.CircuitBreaker` trips — skipped
outright until the cooldown's half-open probe succeeds.  A shard that
stays broken is *excluded*, not fatal: the query completes from the
surviving shards (exact over them, since shards are disjoint), the
broken shard contributes its constant-cost hashing tier when that
still works, and the result carries ``status="degraded"`` with the
failed shard ids.  The headline guarantee: any single-shard failure
mode degrades the answer, never the availability.
"""

from __future__ import annotations

import math
import numbers
import random
import threading
import time
import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ..ann import AnnConfig
from ..core.matcher import Match, MatchStats
from ..core.shapebase import SIGNATURE_CURVES_MAX, ShapeBase
from ..geometry.polyline import Shape
from .breaker import BreakerConfig, CircuitBreaker
from .cache import QueryResultCache, sketch_signature
from .deadline import Deadline, backoff_delay
from .faults import (CorruptShardAnswer, FaultPlan, FaultyShard,
                     ShardTimeoutError)
from .metrics import MetricsRegistry
from .pool import AdmissionQueue, WorkerPool
from .procpool import ProcessShardView, ProcessWorkerPool
from .shards import Shard, ShardSet, merge_topk

#: ``ServiceResult.status`` values.
OK = "ok"
OVERLOADED = "overloaded"
DEGRADED = "degraded"

#: The degradation ladder's rungs, cheapest last (tier names appear in
#: metrics counters as ``queries.tier_<name>``).
TIER_EXACT = "exact"
TIER_ANN = "ann"
TIER_HASH = "hash"

#: ``ann_mode="auto"``'s rung thresholds, in seconds of remaining
#: budget (see :meth:`RetrievalService._select_tier`).
ANN_EXACT_BUDGET = 0.05
ANN_HASH_BUDGET = 0.002


class _Rung(NamedTuple):
    """What the pipeline needs to know about one ladder rung."""

    op: Optional[str]           # sequence-form shard op (None: no fan-out)
    cache_kind: Optional[str]   # signature kind (None: never cached)
    method: str                 # ``ServiceResult.method`` when it answers
    latency: Optional[str]      # histogram timing the fan-out
    salvage: Tuple[str, ...]    # rungs a failed shard's slice falls to


#: ANN answers are cached under their own signature kind: they are not
#: interchangeable with exact answers, so the tiers must never alias.
#: The hash rung is taken when the budget cannot even fund candidate
#: scoring: no matcher op, always flagged ``degraded``, never cached
#: (the next, better-funded query should recompute).
_LADDER = {
    TIER_EXACT: _Rung("query_batch", "topk", "envelope",
                      "latency.envelope", (TIER_HASH,)),
    TIER_ANN: _Rung("ann_query_batch", "topk-ann", "ann", "latency.ann",
                    (TIER_EXACT, TIER_HASH)),
    TIER_HASH: _Rung(None, None, "none", None, ()),
}


@dataclass
class ServiceConfig:
    """Knobs of one :class:`RetrievalService`.

    The geometric parameters (``beta``, ``backend``, ``hash_curves``,
    ``match_threshold``) mirror :class:`~repro.geosir.GeoSIR` (a served
    base keeps the ``alpha`` it was built with); the rest size the
    serving tier.
    ``deadline`` is the default per-query budget in seconds (``None``
    = unlimited); ``max_pending`` bounds admitted-but-unfinished
    queries (``None`` = unbounded).
    """

    num_shards: int = 4
    workers: int = 2
    cache_capacity: int = 256
    max_pending: Optional[int] = None
    deadline: Optional[float] = None
    beta: float = 0.25
    backend: str = "kdtree"
    hash_curves: int = 50
    match_threshold: float = 0.05
    #: -- fault tolerance ------------------------------------------------
    #: Attempts per shard per query (1 = no retry); backoff between
    #: attempts doubles from ``retry_backoff`` up to
    #: :data:`~repro.service.deadline.BACKOFF_CAP`, randomized by
    #: ``retry_jitter`` (the fraction of the delay that is
    #: uniform-random, decorrelating retry storms; ``retry_seed`` makes
    #: the jitter reproducible).
    retry_attempts: int = 2
    retry_backoff: float = 0.02
    retry_jitter: float = 0.5
    retry_seed: Optional[int] = None
    #: Per-attempt time budget in seconds (cooperative — enforced via
    #: the matcher's abort hook and checked after the call returns);
    #: ``None`` leaves attempts bounded only by the query deadline.
    attempt_timeout: Optional[float] = None
    #: Answer a failed shard's slice from its hashing tier (approximate
    #: but constant-cost) instead of dropping it from the merge.
    shard_hash_fallback: bool = True
    #: Per-shard circuit breaker tuning; ``None`` disables breakers.
    breaker: Optional[BreakerConfig] = field(default_factory=BreakerConfig)
    #: Deterministic fault injection (chaos testing); see
    #: :mod:`repro.service.faults` and ``serve-bench --chaos``.
    fault_plan: Optional[FaultPlan] = None
    #: -- approximate tier ------------------------------------------------
    #: Enable the LSH-pruned middle rung of the degradation ladder by
    #: providing an :class:`repro.ann.AnnConfig`; ``None`` keeps the
    #: original two-tier behaviour (exact -> hashing).
    ann: Optional[AnnConfig] = None
    #: ``"auto"`` picks the tier per query from the deadline's
    #: remaining budget (exact above :data:`ANN_EXACT_BUDGET` seconds,
    #: ANN above :data:`ANN_HASH_BUDGET`, the hash tier below that);
    #: ``"always"`` routes every query through the ANN tier — the mode
    #: benchmarks and ``query --ann`` use.
    ann_mode: str = "auto"
    #: -- execution tier ---------------------------------------------------
    #: ``"thread"`` runs shard fan-out on the worker thread pool (the
    #: original mode — fine until the exact matcher saturates the
    #: GIL); ``"process"`` serves matcher/ANN ops from ``processes``
    #: worker processes attached zero-copy to published shard
    #: snapshots (see :mod:`repro.service.procpool`).
    execution: str = "thread"
    processes: int = 2
    #: Directory for the per-shard snapshot files process mode
    #: publishes for its workers to mmap; ``None`` = a private
    #: temporary directory, removed when the service closes.
    snapshot_dir: Optional[str] = None
    #: -- streaming write path ---------------------------------------------
    #: ``streaming=True`` arms ingest backpressure: a batch waits
    #: (bounded by ``ingest_backpressure_timeout`` seconds) while the
    #: admission queue is saturated, so a write burst cannot starve
    #: readers of admission slots.  It means the same in both execution
    #: modes; folds do not depend on it (each shard base folds its own
    #: index tail when an append crosses the threshold).
    streaming: bool = False
    ingest_backpressure_timeout: float = 1.0
    #: Process-mode publication cadence: pure-append version bumps ship
    #: as row deltas over the worker pipes; every N-th consecutive
    #: delta round (or any removal) triggers a compacting full
    #: republish instead.
    publish_compact_every: int = 16


@dataclass
class ServiceResult:
    """Outcome of one service query.

    ``status`` is ``"ok"``, ``"overloaded"`` (shed at admission — no
    retrieval was attempted) or ``"degraded"`` (one or more shards
    failed; the answer is exact over the surviving shards, listed-by-
    omission in ``failed_shards``, plus any hash-tier salvage from the
    broken ones).  ``method`` records which tier answered:
    ``"envelope"`` (exact search), ``"ann"`` (LSH-pruned exact),
    ``"hashing"`` (degraded / fallback) or ``"none"`` (shed or empty
    corpus).  The ``degraded`` *flag* keeps its original meaning — the
    deadline forced a cheaper tier than the config's best — independent
    of shard failures.
    """

    status: str
    matches: List[Match] = field(default_factory=list)
    method: str = "none"
    stats: MatchStats = field(default_factory=MatchStats)
    cached: bool = False
    degraded: bool = False       # deadline forced the hashing tier
    latency: float = 0.0         # seconds, as measured by the service
    failed_shards: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def overloaded(self) -> bool:
        return self.status == OVERLOADED

    @property
    def partial(self) -> bool:
        """True when one or more shards failed to answer exactly."""
        return bool(self.failed_shards)

    @property
    def best(self) -> Optional[Match]:
        return self.matches[0] if self.matches else None


@dataclass
class SimilarResult:
    """Outcome of one ``shape_similar`` leaf served by the service.

    ``matches`` are the surviving shards' answers merged and ranked by
    ``(distance, shape_id)`` (exact when ``failed_shards`` is empty,
    since shards are disjoint); the algebra engine consumes their
    ``shape_ids`` through :meth:`RetrievalService.similar_shapes_batch`.
    """

    matches: List[Match] = field(default_factory=list)
    candidates_evaluated: int = 0
    cached: bool = False
    failed_shards: List[int] = field(default_factory=list)

    @cached_property
    def shape_ids(self) -> frozenset:
        return frozenset(match.shape_id for match in self.matches)

    @property
    def partial(self) -> bool:
        return bool(self.failed_shards)


def similar_key(sketch: Shape, threshold: float) -> str:
    """The cache key of one ``shape_similar(sketch)`` leaf (the
    algebra engine probes with it too)."""
    return sketch_signature(sketch, kind="similar",
                            parameter=f"{threshold:.12g}")


@dataclass
class _ShardOutcome:
    """What one shard's resilient call produced (never an exception)."""

    shard_index: int
    value: Any = None            # op result when the call succeeded
    failed: bool = False
    error: Optional[str] = None
    attempts: int = 0
    breaker_skipped: bool = False


@dataclass
class _Batch:
    """What the stages of one ``retrieve_batch`` call share."""

    sketches: List[Shape]
    k: int
    budget: Deadline
    tier: str
    version: int                 # shard-set version answers are keyed on
    start: float                 # perf_counter at admission
    results: List[Optional[ServiceResult]]


def _merge_stats(per_shard: Sequence[MatchStats]) -> MatchStats:
    """Aggregate work accounting across shards (sums and flags)."""
    merged = MatchStats()
    for stats in per_shard:
        merged.iterations += stats.iterations
        merged.triangles_queried += stats.triangles_queried
        merged.range_queries += stats.range_queries
        merged.vertices_reported += stats.vertices_reported
        merged.vertices_scanned += stats.vertices_scanned
        merged.copies_bounded += stats.copies_bounded
        merged.vertices_processed += stats.vertices_processed
        merged.candidates_evaluated += stats.candidates_evaluated
        merged.prior_stops += stats.prior_stops
        merged.epsilons.extend(stats.epsilons)
        for key, seconds in stats.timings.items():
            merged.timings[key] = merged.timings.get(key, 0.0) + seconds
    merged.guaranteed = bool(per_shard) and \
        all(s.guaranteed for s in per_shard)
    merged.exhausted = any(s.exhausted for s in per_shard)
    merged.aborted = any(s.aborted for s in per_shard)
    return merged


class RetrievalService:
    """Concurrent, sharded, cached retrieval over a GeoSIR corpus."""

    def __init__(self, shards: ShardSet, config: Optional[ServiceConfig]
                 = None, metrics: Optional[MetricsRegistry] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config or ServiceConfig()
        if self.config.ann_mode not in ("auto", "always"):
            raise ValueError("ann_mode must be 'auto' or 'always'")
        if self.config.execution not in ("thread", "process"):
            raise ValueError("execution must be 'thread' or 'process'")
        if self.config.retry_attempts < 1:
            raise ValueError("retry_attempts must be at least 1")
        if self.config.retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if not 0.0 <= self.config.retry_jitter <= 1.0:
            raise ValueError("retry_jitter must be within [0, 1]")
        if self.config.match_threshold < 0:
            raise ValueError("match_threshold must be non-negative")
        if self.config.publish_compact_every < 1:
            raise ValueError("publish_compact_every must be at least 1")
        hash_curves = self.config.hash_curves
        if (not isinstance(hash_curves, numbers.Integral)
                or not 1 <= hash_curves <= SIGNATURE_CURVES_MAX):
            raise ValueError(f"hash_curves must be an integer in "
                             f"1..{SIGNATURE_CURVES_MAX}, got "
                             f"{hash_curves!r}")
        self.shards = shards
        self.metrics = metrics or MetricsRegistry()
        self.cache = QueryResultCache(self.config.cache_capacity)
        self.admission = AdmissionQueue(self.config.max_pending)
        self._procpool: Optional[ProcessWorkerPool] = None
        if self.config.execution == "process":
            self._procpool = ProcessWorkerPool(
                processes=self.config.processes,
                workers=self.config.workers,
                publish_dir=self.config.snapshot_dir,
                compact_every=self.config.publish_compact_every)
            self.pool: WorkerPool = self._procpool
        else:
            self.pool = WorkerPool(self.config.workers)
        # Single-flight: concurrent identical queries coalesce onto one
        # computation (thundering-herd protection for hot sketches).
        self._inflight: Dict[Tuple[str, int], threading.Event] = {}
        self._inflight_lock = threading.Lock()
        self._closed = False
        self._close_lock = threading.Lock()
        self._clock = clock
        self._started_at = clock()
        #: Where this corpus came from; ``from_snapshot`` records the
        #: file so ``/stats`` and ``/readyz`` can name it.
        self.snapshot_source: Optional[str] = None
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        self._retry_rng = random.Random(self.config.retry_seed)
        self._retry_lock = threading.Lock()
        # Algebra engines mounted on this service (weakly held): their
        # work counters roll up into snapshot()["algebra"].
        self._engines: "weakref.WeakSet" = weakref.WeakSet()
        self.metrics.gauge("queue.pending", lambda: self.admission.pending)
        self.metrics.gauge("cache.size", lambda: len(self.cache))
        self.metrics.gauge("ingest.pending_delta",
                           lambda: self.shards.delta_points)

    # ------------------------------------------------------------------
    # Construction / corpus management
    # ------------------------------------------------------------------
    @classmethod
    def from_base(cls, base: ShapeBase, config: Optional[ServiceConfig]
                  = None, metrics: Optional[MetricsRegistry] = None
                  ) -> "RetrievalService":
        """Shard an existing :class:`ShapeBase` and serve it.

        The shards keep the base's ``alpha`` and ``backend`` (the
        corpus was built with them); shapes keep their ids.  If warm-up
        fails, the half-built service is closed (its worker threads and
        processes stopped) before the error propagates.
        """
        config = config or ServiceConfig()
        shard_set = ShardSet.from_base(
            base, num_shards=config.num_shards, beta=config.beta,
            hash_curves=config.hash_curves, ann=config.ann)
        service = cls(shard_set, config, metrics)
        try:
            service.warm()
        except BaseException:
            service.close()
            raise
        return service

    @classmethod
    def from_snapshot(cls, path, config: Optional[ServiceConfig] = None,
                      metrics: Optional[MetricsRegistry] = None, *,
                      mmap: bool = False) -> "RetrievalService":
        """Cold-start a service straight from a snapshot file.

        Loads the base (a v3 snapshot materializes with zero
        re-normalization), shards it, and warms every shard's kd-tree
        and hash table in parallel on the service's worker pool — the
        whole path from file to first answered query.  ``mmap=True``
        maps the snapshot read-only instead of copying it into the
        heap (v3/v4 files); with ``execution="process"`` the workers
        attach zero-copy regardless, through the pool's own
        publications.
        """
        from ..storage.persist import load_base
        config = config or ServiceConfig()
        base = load_base(path, backend=config.backend, mmap=mmap)
        service = cls.from_base(base, config, metrics)
        service.snapshot_source = str(path)
        return service

    def ingest(self, shapes: Sequence[Shape],
               image_id: Optional[int] = None) -> List[int]:
        """Add shapes (routed to their shards); invalidates the cache.

        A shard base whose index tail this append carries past the fold
        threshold folds it inline, so that batch pays the rebuild.
        With ``streaming`` on, the batch first waits while the
        admission queue is saturated, so a write burst cannot starve
        readers of admission slots.  The wait is bounded; after
        ``ingest_backpressure_timeout`` seconds the batch proceeds
        anyway (ingest degrades to slower, never to stuck).  A closed
        service raises ``RuntimeError`` and stores nothing.
        """
        self._check_open()
        self._ingest_backpressure()
        ids = self.shards.add_shapes(shapes, image_id=image_id)
        self.cache.invalidate()
        self.metrics.counter("ingest.shapes").increment(len(ids))
        self.metrics.histogram("ingest.batch_size").observe(len(shapes))
        return ids

    def _ingest_backpressure(self) -> None:
        """Bounded wait while the admission queue is saturated."""
        max_pending = self.config.max_pending
        if not self.config.streaming or max_pending is None:
            return
        deadline = self._clock() + self.config.ingest_backpressure_timeout
        waited = False
        while not self._closed and self.admission.pending >= max_pending:
            if not waited:
                waited = True
                self.metrics.counter(
                    "ingest.backpressure_waits").increment()
            if self._clock() >= deadline:
                return
            time.sleep(0.002)

    def remove(self, *shape_ids: int) -> None:
        """Remove shapes as one batch; invalidates the cache once.

        An unknown id raises ``KeyError`` and nothing is removed; so
        does a closed service, with ``RuntimeError``.
        """
        self._check_open()
        self.shards.remove_shapes(shape_ids)
        self.cache.invalidate()
        self.metrics.counter("ingest.removed").increment(len(shape_ids))

    def warm(self) -> None:
        """Build all shard structures before admitting traffic.

        In process mode the parent builds only the hash tier it serves
        itself (the degradation ladder's salvage rung), then publishes
        the shards and attaches every worker, which builds its own
        index, matcher and ANN tier: the first query pays no
        snapshot-encode or index-build latency, and no structure is
        built twice.
        """
        if self._procpool is None:
            self.shards.warm(pool=self.pool)
            return
        self.pool.map_over(lambda shard: shard.retriever,
                           list(self.shards))
        self._procpool.sync(self.shards)

    def quiesce_ingest(self) -> int:
        """Fold every overgrown tail now (checkpoint / shutdown aid).

        Returns the number of folds performed.  Appends fold their own
        tails, so this finds work only where a removal shrank a core
        under its tail.
        """
        folded = 0
        for shard in self.shards:
            if shard.needs_fold() and shard.fold():
                folded += 1
        return folded

    # ------------------------------------------------------------------
    # Query algebra (paper Section 5 at the service tier)
    # ------------------------------------------------------------------
    def query_engine(self, similarity_threshold: Optional[float] = None,
                     angle_tolerance: float = 0.15, *,
                     planner: bool = True):
        """A :class:`~repro.query.executor.QueryEngine` over the shards.

        The engine's similarity leaves run through
        :meth:`similar_shapes_batch` — resilient, batched, cached —
        and its work counters appear in ``snapshot()["algebra"]``.
        ``similarity_threshold`` defaults to the config's
        ``match_threshold``.
        """
        from ..query.executor import QueryEngine
        if similarity_threshold is None:
            similarity_threshold = self.config.match_threshold
        engine = QueryEngine(self, similarity_threshold, angle_tolerance,
                             planner=planner)
        self._engines.add(engine)
        return engine

    def similar_shapes_batch(self, sketches: Sequence[Shape],
                             threshold: Optional[float] = None,
                             deadline: Optional[float] = None
                             ) -> List[SimilarResult]:
        """``shape_similar(Q)`` for many sketches across all shards.

        The algebra engine's leaf primitive: each sketch's similarity
        set is the union of per-shard threshold queries (exact, shards
        being disjoint).  It runs the pipeline's :meth:`_coalesce` and
        :meth:`_fan_out` stages under its own cache kind and shard op —
        results are cached under the similarity-invariant signature at
        the current shard version, identical sketches coalesce, and the
        remaining misses fan out with one resilient call per shard — and
        keeps its own merge (every match, ranked like the top-k merge):
        a failed shard drops out of the union (``failed_shards`` notes
        it) and the partial answer is *not* cached.
        """
        self._check_open()
        if threshold is None:
            threshold = self.config.match_threshold
        self._ensure_processes()
        sketches = list(sketches)
        budget = Deadline(deadline)
        version = self.shards.version
        results: List[Optional[SimilarResult]] = [None] * len(sketches)
        self.metrics.counter("algebra.leaf_queries").increment(
            len(sketches))

        def serve(position: int, hit: SimilarResult, waited: bool) -> None:
            self.metrics.counter("algebra.leaf_cache_hits").increment()
            results[position] = replace(hit, cached=True)

        def compute(positions: List[int], keys: Dict[int, str]) -> None:
            survivors, failed = self._fan_out(
                self._shard_views(), budget, "query_threshold_batch",
                [sketches[position] for position in positions], threshold)
            failed_ids = sorted(o.shard_index for o in failed)
            if failed_ids:
                self.metrics.counter("algebra.leaf_degraded").increment(
                    len(positions))
            for offset, position in enumerate(positions):
                answers = [outcome.value[offset] for outcome in survivors]
                matched = [matches for matches, _ in answers]
                leaf = SimilarResult(
                    matches=merge_topk(matched, sum(map(len, matched))),
                    candidates_evaluated=sum(
                        stats.candidates_evaluated for _, stats in answers),
                    failed_shards=list(failed_ids))
                if not failed_ids and not budget.expired():
                    self.cache.put(keys[position], version, leaf)
                results[position] = leaf

        with self.metrics.timer("latency.algebra_leaf"):
            for position, leader in self._coalesce(
                    sketches, range(len(sketches)),
                    partial(similar_key, threshold=threshold), version,
                    budget, serve, compute):
                results[position] = replace(results[leader], cached=True)
        return results

    # ------------------------------------------------------------------
    # Fault tolerance: shard views, breakers, resilient execution
    # ------------------------------------------------------------------
    def _shard_views(self) -> List[Shard]:
        """The shards as served — process proxies and fault wrappers.

        In process mode each shard becomes a
        :class:`~repro.service.procpool.ProcessShardView` forwarding
        matcher/ANN ops to its worker process; fault injection wraps
        *outside* the proxy so chaos plans haunt the same surface in
        both execution modes.
        """
        shards = list(self.shards)
        if self._procpool is not None:
            shards = [ProcessShardView(self._procpool, shard)
                      for shard in shards]
        if self.config.fault_plan is None:
            return shards
        return [FaultyShard(shard, self.config.fault_plan)
                for shard in shards]

    @property
    def procpool(self) -> Optional[ProcessWorkerPool]:
        """The process worker pool (``execution="process"`` only).

        ``None`` in thread mode.  Chaos hooks (``kill_worker``) and
        introspection (``alive_workers``, ``info``) live here.
        """
        return self._procpool

    def _ensure_processes(self) -> None:
        """Converge worker processes onto the current shard version.

        Publish + re-attach happens lazily before fan-out (not on
        every ingest) so a burst of mutations costs one republish;
        a no-op version check when already in sync.
        """
        if self._procpool is not None:
            self._procpool.sync(self.shards)

    def _breaker_for(self, index: int) -> Optional[CircuitBreaker]:
        if self.config.breaker is None:
            return None
        breaker = self._breakers.get(index)
        if breaker is None:
            with self._breakers_lock:
                breaker = self._breakers.get(index)
                if breaker is None:
                    breaker = CircuitBreaker(self.config.breaker,
                                             clock=self._clock)
                    self._breakers[index] = breaker
                    self.metrics.gauge(f"breaker.shard{index}.state",
                                       breaker.state_code)
        return breaker

    @staticmethod
    def _validate_matches(shard: Shard, matches: Sequence[Match]) -> None:
        """Reject corrupted shard answers before they reach the merge.

        A well-formed answer has finite non-negative distances and
        shape ids the shard actually owns; anything else means the
        shard's matcher is lying (bit rot, a bad index rebuild, an
        injected ``corrupt``/``wrong_shard`` fault) and must count as
        a shard failure, not poison the global top-k.
        """
        owned = shard.base.shapes
        for match in matches:
            if not math.isfinite(match.distance) or match.distance < 0:
                raise CorruptShardAnswer(
                    f"shard {shard.index} returned a non-finite "
                    f"distance for shape {match.shape_id}")
            if match.shape_id not in owned:
                raise CorruptShardAnswer(
                    f"shard {shard.index} returned foreign shape id "
                    f"{match.shape_id}")

    def _retry_draw(self) -> float:
        """One jitter draw from the seeded retry stream."""
        with self._retry_lock:
            return self._retry_rng.random()

    def _resilient_call(self, shard: Shard, budget: Deadline,
                        op: Callable[[Callable[[], bool]], Any],
                        validate: Callable[[Any], None]) -> _ShardOutcome:
        """Run one shard operation with isolation, retries and breaker.

        ``op`` receives the attempt's abort callback (query deadline OR
        per-attempt budget) and returns the shard's answer; ``validate``
        raises :class:`CorruptShardAnswer` on a mangled one.  Whatever
        happens inside the shard — exception, corruption, timeout — the
        return is a :class:`_ShardOutcome`, never an exception: this is
        the failure-isolation boundary.
        """
        breaker = self._breaker_for(shard.index)
        attempts_allowed = self.config.retry_attempts
        attempt_timeout = self.config.attempt_timeout
        outcome = _ShardOutcome(shard_index=shard.index)
        while True:
            if breaker is not None and not breaker.allow():
                outcome.failed = True
                outcome.breaker_skipped = True
                outcome.error = "circuit breaker open"
                self.metrics.counter("shards.breaker_skipped").increment()
                return outcome
            outcome.attempts += 1
            attempt = Deadline(attempt_timeout)

            def aborted() -> bool:
                return budget.expired() or attempt.expired()

            # Process-mode shard proxies read the remaining budget off
            # the abort callback to ship a cooperative deadline across
            # the pipe (inf = unbounded; the proxy maps it to None).
            aborted.remaining = lambda: min(budget.remaining(),
                                            attempt.remaining())

            try:
                value = op(aborted)
                validate(value)
                if attempt.bounded and attempt.expired() \
                        and not budget.expired():
                    raise ShardTimeoutError(
                        f"shard {shard.index} attempt exceeded "
                        f"{attempt_timeout}s")
            except Exception as exc:  # isolation boundary, not a bug trap
                if breaker is not None:
                    breaker.record_failure()
                self.metrics.counter("shards.failures").increment()
                outcome.error = f"{type(exc).__name__}: {exc}"
                if outcome.attempts >= attempts_allowed \
                        or budget.expired():
                    outcome.failed = True
                    return outcome
                self.metrics.counter("shards.retries").increment()
                delay = backoff_delay(
                    outcome.attempts, self.config.retry_backoff, budget,
                    self.config.retry_jitter, self._retry_draw)
                if delay > 0:
                    time.sleep(delay)
                continue
            if breaker is not None:
                breaker.record_success()
            outcome.value = value
            outcome.failed = False
            outcome.error = None
            return outcome

    def _guarded_hash(self, shard: Shard, sketch: Shape,
                      k: int) -> List[Match]:
        """The shard's hashing tier, degraded to [] on failure.

        Hash answers get the same validation as matcher answers —
        average distances are finite non-negative exact measures and
        the ids must be the shard's own — so a corrupted hash tier
        contributes nothing rather than poisoning the merge.
        """
        try:
            matches = shard.hash_query(sketch, k)
            self._validate_matches(shard, matches)
            return matches
        except Exception:
            self.metrics.counter("shards.hash_failures").increment()
            return []

    def _guarded_exact(self, shard: Shard, sketch: Shape, k: int,
                       budget: Deadline, priors: Sequence[float]
                       ) -> Optional[List[Match]]:
        """One shard's envelope tier as a salvage path (None on failure).

        Used when the *ANN* tier of a shard fails: the shard's exact
        matcher is still healthy structure-wise, so degrading the
        shard to exact scoring keeps its slice in the answer at full
        quality (just slower) — only if that fails too does the
        constant-cost hash tier take over.  ``priors`` are the k
        smallest distances the surviving shards answered with (exact
        measures of shapes in the merge), handed on as the exact
        fan-out's waves hand them on.
        """
        try:
            matches, _ = shard.query_batch([sketch], k,
                                           abort=budget.expired,
                                           priors=[priors])[0]
            self._validate_matches(shard, matches)
            return matches
        except Exception:
            self.metrics.counter("shards.exact_salvage_failures") \
                .increment()
            return None

    # ------------------------------------------------------------------
    # Tier selection (the degradation ladder)
    # ------------------------------------------------------------------
    def _select_tier(self, budget: Deadline) -> str:
        """Pick the ladder rung a query's remaining budget can afford.

        Unless every shard has an ANN config (``Shard.ann_config``, the
        parameters the shards were built with — not ``config.ann``) the
        ladder has its original two rungs (exact now, hashing on
        expiry).  When they all have one, ``"always"`` pins
        the ANN tier (measurement mode) while ``"auto"`` spends the
        budget greedily: exact when there is comfortably enough time
        (``>= ANN_EXACT_BUDGET``), the LSH-pruned tier when at least
        ``ANN_HASH_BUDGET`` remains, and the constant-cost hash tier
        for whatever is left.
        """
        if any(shard.ann_config is None for shard in self.shards):
            return TIER_EXACT
        if self.config.ann_mode == "always":
            return TIER_ANN
        if not budget.bounded:
            return TIER_EXACT
        remaining = budget.remaining()
        if remaining >= ANN_EXACT_BUDGET:
            return TIER_EXACT
        if remaining >= ANN_HASH_BUDGET:
            return TIER_ANN
        return TIER_HASH

    # ------------------------------------------------------------------
    # Retrieval: one pipeline, the unit of execution is a batch
    # ------------------------------------------------------------------
    def retrieve(self, sketch: Shape, k: int = 1,
                 deadline: Optional[float] = None) -> ServiceResult:
        """Serve one query end to end: a batch of one."""
        return self.retrieve_batch([sketch], k, deadline)[0]

    def retrieve_batch(self, sketches: Sequence[Shape], k: int = 1,
                       deadline: Optional[float] = None
                       ) -> List[ServiceResult]:
        """Serve sketches through the staged pipeline, in input order.

        Admission happens at *submission* time — the bounded queue is
        the backlog, so a batch larger than the remaining slots sheds
        its tail immediately rather than queueing it invisibly; the
        admitted sketches hold their slots until the batch completes.
        One ladder rung is selected for the whole batch; each admitted
        sketch gets one cache probe; identical misses — inside the
        batch or in flight on another thread — coalesce onto one
        computation, and the remaining unique misses are answered by
        sequence-form per-shard matcher calls pipelined on the worker
        pool (one scratch checkout per shard for the whole batch).
        ``deadline`` budgets the batch as a whole.
        """
        sketches = list(sketches)
        results: List[Optional[ServiceResult]] = [None] * len(sketches)
        admitted = self._admit(k, results)
        if not admitted:
            return results
        try:
            budget = Deadline(self.config.deadline if deadline is None
                              else deadline)
            batch = _Batch(sketches, k, budget, self._select_tier(budget),
                           self.shards.version, time.perf_counter(),
                           results)
            self.metrics.counter(f"queries.tier_{batch.tier}").increment(
                len(admitted))

            def serve(position: int, hit: ServiceResult,
                      waited: bool) -> None:
                results[position] = self._record(
                    replace(hit, cached=True,
                            latency=time.perf_counter() - batch.start),
                    "queries.coalesced" if waited
                    else "queries.cache_hits")

            kind = _LADDER[batch.tier].cache_kind
            if kind is None:
                self._answer(batch, admitted, {})
            else:
                for position, leader in self._coalesce(
                        sketches, admitted,
                        partial(sketch_signature, kind=kind, parameter=k),
                        batch.version, budget, serve,
                        partial(self._answer, batch)):
                    serve(position, results[leader], True)
        finally:
            for _ in admitted:
                self.admission.release()
        return results

    def _admit(self, k: int,
               results: List[Optional[ServiceResult]]) -> List[int]:
        """Stage 1: validate the request, then admit it sketch by sketch.

        A malformed ``k`` raises before admission or any shard call —
        inside a shard op it would be counted as a shard failure and
        trip the breakers of perfectly healthy shards.  Returns the
        admitted positions; shed ones get their ``overloaded`` result.
        """
        self._check_open()
        if not isinstance(k, numbers.Integral) or k < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        self._ensure_processes()
        admitted: List[int] = []
        for position in range(len(results)):
            self.metrics.counter("queries.total").increment()
            if self.admission.try_admit():
                admitted.append(position)
            else:
                self.metrics.counter("queries.shed").increment()
                results[position] = ServiceResult(status=OVERLOADED)
        return admitted

    def _coalesce(self, sketches: Sequence[Shape],
                  positions: Sequence[int], key_of: Callable[[Shape], str],
                  version: int, budget: Deadline,
                  serve: Callable[[int, Any, bool], None],
                  compute: Callable[[List[int], Dict[int, str]], None]
                  ) -> List[Tuple[int, int]]:
        """Stage 3: cache probe + single-flight around ``compute``.

        Every position is probed under ``key_of(sketch)``, a canonical
        signature whose kind and parameter keep tiers and query types
        from aliasing; a hit goes to ``serve(position, answer, waited)``.
        Identical misses inside the batch follow the first one: the
        ``(follower, leader)`` pairs are returned for the caller to
        copy, every leader having been answered by then.  Across
        requests each unique miss is a *flight*: this request first has
        ``compute(positions, keys)`` answer the keys nobody else is
        computing and releases them, and only then waits (bounded by
        ``budget``) on the keys led elsewhere — it never waits while
        holding a flight, so two batches with crossed keys cannot
        deadlock.  A key whose leader did not cache its answer
        (degraded) or outlasted our budget is computed here after all.
        """
        keys: Dict[int, str] = {}
        leader_of: Dict[str, int] = {}
        followers: List[Tuple[int, int]] = []
        led: List[int] = []
        claimed: List[Tuple[str, int]] = []
        awaited: List[Tuple[int, threading.Event]] = []
        try:
            for position in positions:
                stage = time.perf_counter()
                key = keys[position] = key_of(sketches[position])
                hit = self.cache.get(key, version) \
                    if self.cache.enabled else None
                self.metrics.histogram("latency.cache").observe(
                    time.perf_counter() - stage)
                if hit is not None:
                    serve(position, hit, False)
                elif key in leader_of:
                    followers.append((position, leader_of[key]))
                else:
                    leader_of[key] = position
                    flight = None
                    # Without a cache a waiter could not pick the
                    # answer up, so there are flights only with one.
                    if self.cache.enabled:
                        with self._inflight_lock:
                            flight = self._inflight.get((key, version))
                            if flight is None:
                                self._inflight[(key, version)] = \
                                    threading.Event()
                                claimed.append((key, version))
                    if flight is None:
                        led.append(position)
                    else:
                        awaited.append((position, flight))
            if led:
                compute(led, keys)
        finally:
            with self._inflight_lock:
                flights = [self._inflight.pop(flight_key)
                           for flight_key in claimed]
            for flight in flights:
                flight.set()
        missing: List[int] = []
        for position, flight in awaited:
            flight.wait(budget.remaining() if budget.bounded else None)
            hit = self.cache.get(keys[position], version)
            if hit is not None:
                serve(position, hit, True)
            else:
                missing.append(position)
        if missing:
            compute(missing, keys)
        return followers

    def _fan_out(self, shards: Sequence[Shard], budget: Deadline, op: str,
                 sketches: Sequence[Shape], parameter: Any
                 ) -> Tuple[List[_ShardOutcome], List[_ShardOutcome]]:
        """Stage 4: one resilient sequence-form ``op`` call per shard.

        Returns ``(survivors, failed)``; a survivor's ``value`` holds
        one validated ``(matches, stats)`` pair per sketch.

        The exact top-k op has a stopping test — the k-th best measure
        is ``<= beta * eps`` — and the k-th best is a property of the
        query, not of the slice a shard was dealt.  Its shards are
        therefore visited in waves of 1, 1, 2, 4, ... (each as large as
        everything before it, shards of one wave in parallel), and each
        wave is handed, per sketch, the k smallest exact distances the
        *validated* answers so far contain (``priors``): a shard with
        fewer than k close copies stops on the bound another shard
        established instead of scoring nearly everything it holds.
        Every prior is the distance of a shape that is in the merge, so
        the merged answer is unchanged.  The wave a shard is in depends
        on the shard count alone, so the work counters repeat between
        runs and between thread and process execution.  The other ops
        have no such test and fan out in one wave.
        """
        def call(shard: Shard, **handed) -> _ShardOutcome:
            return self._resilient_call(
                shard, budget,
                lambda abort: getattr(shard, op)(sketches, parameter,
                                                 abort=abort, **handed),
                lambda value: [self._validate_matches(shard, matches)
                               for matches, _ in value])

        if op != "query_batch":
            outcomes = self.pool.map_over(call, shards)
        else:
            outcomes = []
            priors: List[List[float]] = [[] for _ in sketches]
            prior_stops = 0
            while len(outcomes) < len(shards):
                done = len(outcomes)
                wave = self.pool.map_over(
                    lambda shard: call(shard, priors=priors),
                    shards[done:done + max(1, done)])
                self.metrics.counter("shards.waves").increment()
                for outcome in wave:
                    if outcome.failed:
                        continue
                    for offset, (matches, stats) in enumerate(
                            outcome.value):
                        priors[offset] = sorted(
                            priors[offset] +
                            [match.distance for match in matches]
                        )[:parameter]
                        prior_stops += stats.prior_stops
                outcomes += wave
            self.metrics.counter("shards.prior_stops").increment(
                prior_stops)
        return ([o for o in outcomes if not o.failed],
                [o for o in outcomes if o.failed])

    def _answer(self, batch: _Batch, positions: Sequence[int],
                keys: Dict[int, str]) -> None:
        """Stages 4-7 for the unique misses at ``positions``: one
        fan-out for all of them, then salvage, merge, hand-off and
        record per sketch."""
        rung = _LADDER[batch.tier]
        shards = self._shard_views()
        survivors: List[_ShardOutcome] = []
        failed: List[_ShardOutcome] = []
        if rung.op is not None:
            stage = time.perf_counter()
            survivors, failed = self._fan_out(
                shards, batch.budget, rung.op,
                [batch.sketches[position] for position in positions],
                batch.k)
            self.metrics.histogram(rung.latency).observe(
                time.perf_counter() - stage)
        if batch.tier == TIER_ANN:
            for outcome in survivors:
                for _, stats in outcome.value:
                    self.metrics.histogram("ann.candidates").observe(
                        stats.candidates_evaluated)
        failed_ids = sorted(o.shard_index for o in failed)
        broken = [shard for shard in shards if shard.index in failed_ids]
        for offset, position in enumerate(positions):
            sketch = batch.sketches[position]
            stage = time.perf_counter()
            answers = [o.value[offset] for o in survivors]
            merged, stats = self._merge(
                answers, self._salvage(batch, broken, sketch, answers),
                batch.k)
            self.metrics.histogram("latency.merge").observe(
                time.perf_counter() - stage)
            result = self._hand_off(batch, shards, sketch, merged, stats,
                                    failed_ids)
            # Deadline-truncated and shard-degraded answers would keep
            # serving the degraded answer after the trouble subsides.
            if position in keys and not result.degraded \
                    and not failed_ids:
                self.cache.put(keys[position], batch.version, result)
            batch.results[position] = self._record(result)

    def _salvage(self, batch: _Batch, broken: Sequence[Shard],
                 sketch: Shape,
                 answers: Sequence[Tuple[List[Match], MatchStats]]
                 ) -> List[List[Match]]:
        """Stage 5: the failed shards' slices from the rungs below.

        Each broken shard walks the tier's salvage rungs in order —
        ``[hash]`` after an exact-tier failure, ``[exact, hash]`` after
        an ANN-tier failure — and the first rung that yields matches
        answers for its slice (nothing, when every rung comes up empty).
        The exact rung is handed the k smallest distances of the
        survivors' ``answers`` as priors.
        """
        salvage: List[List[Match]] = []
        if not self.config.shard_hash_fallback:
            return salvage
        priors = sorted(match.distance for matches, _ in answers
                        for match in matches)[:batch.k]
        for shard in broken:
            for rung in _LADDER[batch.tier].salvage:
                if rung == TIER_EXACT:
                    matches = self._guarded_exact(shard, sketch, batch.k,
                                                  batch.budget, priors)
                    counter = "shards.ann_exact_salvage"
                else:
                    matches = self._guarded_hash(shard, sketch, batch.k)
                    counter = "shards.hash_salvage"
                if matches:
                    self.metrics.counter(counter).increment()
                    salvage.append(matches)
                    break
        return salvage

    @staticmethod
    def _merge(answers: Sequence[Tuple[List[Match], MatchStats]],
               salvage: List[List[Match]], k: int
               ) -> Tuple[List[Match], MatchStats]:
        """Stage 6: global top-k over the surviving shards' answers plus
        salvage, and their summed work accounting."""
        return (merge_topk([matches for matches, _ in answers] + salvage,
                           k),
                _merge_stats([stats for _, stats in answers]))

    def _hand_off(self, batch: _Batch, shards: Sequence[Shard],
                  sketch: Shape, merged: List[Match], stats: MatchStats,
                  failed_ids: List[int]) -> ServiceResult:
        """Stage 6, continued: the paper's Section 3 hand-off to hashing.

        When the envelope search ran out of budget (always, on the hash
        rung) or found nothing within ``match_threshold``, the merged
        per-shard hash tiers answer instead — if they have anything.
        """
        rung = _LADDER[batch.tier]
        degraded = rung.op is None or (
            batch.budget.bounded and batch.budget.expired()
            and stats.exhausted)
        method = rung.method
        if degraded or not any(m.distance <= self.config.match_threshold
                               for m in merged):
            stage = time.perf_counter()
            fallback = merge_topk(self.pool.map_over(
                lambda shard: self._guarded_hash(shard, sketch, batch.k),
                shards), batch.k)
            self.metrics.histogram("latency.fallback").observe(
                time.perf_counter() - stage)
            self.metrics.counter("queries.fallback").increment()
            if fallback:
                merged, method = fallback, "hashing"
        return ServiceResult(status=DEGRADED if failed_ids else OK,
                             matches=merged, method=method, stats=stats,
                             degraded=degraded,
                             failed_shards=list(failed_ids),
                             latency=time.perf_counter() - batch.start)

    def _record(self, result: ServiceResult,
                saved: Optional[str] = None) -> ServiceResult:
        """Stage 7: count one answered sketch — every exit takes this.

        ``saved`` names the counter (``queries.cache_hits`` /
        ``queries.coalesced``) of an answer that skipped the work.
        """
        self.metrics.counter("queries.served").increment()
        if saved is not None:
            self.metrics.counter(saved).increment()
        if result.failed_shards:
            self.metrics.counter("queries.degraded").increment()
        self.metrics.histogram("latency.total").observe(result.latency)
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Metrics + derived rates + corpus stats, as one plain dict."""
        snap = self.metrics.as_dict()
        counters = snap["counters"]
        total = counters.get("queries.total", 0)
        snap["rates"] = {
            "cache_hit_ratio": self.cache.hit_ratio,
            "shed_ratio": (counters.get("queries.shed", 0) / total
                           if total else 0.0),
            "fallback_ratio": (counters.get("queries.fallback", 0) / total
                               if total else 0.0),
            "degraded_ratio": (counters.get("queries.degraded", 0) / total
                               if total else 0.0),
        }
        # Degradation-ladder accounting: how many queries each rung
        # answered, plus the ANN tier's candidate-set-size summary.
        tiers = self.metrics.counters_with_prefix("queries.tier_")
        snap["tiers"] = {
            "counts": {tier: tiers.get(tier, 0)
                       for tier in (TIER_EXACT, TIER_ANN, TIER_HASH)},
            "ann_candidates": snap["histograms"].get("ann.candidates"),
        }
        # Query-algebra accounting: per-operator work counters summed
        # over every engine mounted via query_engine(), plus the leaf
        # traffic the service itself served.
        engines = list(self._engines)
        algebra: Dict[str, int] = {}
        for engine in engines:
            for name, value in engine.counters.as_dict().items():
                algebra[name] = algebra.get(name, 0) + value
        snap["algebra"] = {
            "engines": len(engines),
            "counters": algebra,
            "leaf_queries": counters.get("algebra.leaf_queries", 0),
            "leaf_cache_hits": counters.get("algebra.leaf_cache_hits", 0),
        }
        snap["corpus"] = {
            "shards": self.shards.num_shards,
            "shapes": self.shards.num_shapes,
            "entries": self.shards.num_entries,
            "per_shard_shapes": self.shards.shape_counts(),
        }
        with self._breakers_lock:
            snap["breakers"] = {str(index): breaker.snapshot()
                                for index, breaker
                                in sorted(self._breakers.items())}
        # Streaming write-path accounting: batch sizes, backpressure
        # events and the live unfolded-tail size — the numbers
        # `serve-bench --stream` and the HTTP `/stats` endpoint watch
        # to see ingest/query interference.  Appends fold inline and
        # unrecorded, so `folds` / `fold_ms` read 0 / None.
        snap["ingest"] = {
            "streaming": self.config.streaming,
            "shapes": counters.get("ingest.shapes", 0),
            "removed": counters.get("ingest.removed", 0),
            "folds": counters.get("ingest.folds", 0),
            "backpressure_waits":
                counters.get("ingest.backpressure_waits", 0),
            "pending_delta": self.shards.delta_points,
            "batch_size": snap["histograms"].get("ingest.batch_size"),
            "fold_ms": snap["histograms"].get("ingest.fold_ms"),
        }
        snap["execution"] = self.config.execution
        if self._procpool is not None:
            snap["procpool"] = self._procpool.info()
        snap["uptime_s"] = round(self.uptime(), 3)
        snap["snapshot"] = {"version": self.shards.version,
                            "source": self.snapshot_source}
        return snap

    def uptime(self) -> float:
        """Seconds since this service was constructed."""
        return self._clock() - self._started_at

    def ready(self) -> bool:
        """Readiness: open, corpus attached, every shard warm.

        The HTTP tier's ``/readyz`` answer — true only once every
        shard can serve its best configured tier without build latency
        (in process mode, once the worker pool has attached the
        current shard-set version), so a balancer routing on it never
        sends traffic into a cold or half-built replica.
        """
        if self._closed:
            return False
        if self._procpool is not None:
            info = self._procpool.info()
            if info.get("synced_version") != self.shards.version:
                return False
            if not self._procpool.alive_workers():
                return False
            # Parent side serves only the hash tier in process mode.
            return all(shard.warmed_hash for shard in self.shards)
        return all(shard.warmed for shard in self.shards)

    def _check_open(self) -> None:
        """Refuse any read or write on a closed service."""
        if self._closed:
            raise RuntimeError(
                "RetrievalService is closed; create a new service")

    def close(self) -> None:
        """Shut the worker pool down; idempotent under concurrent
        callers (first caller shuts down, the rest return at once)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self.pool.shutdown()

    def __enter__(self) -> "RetrievalService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"RetrievalService(shards={self.shards.num_shards}, "
                f"workers={self.config.workers}, "
                f"shapes={self.shards.num_shapes})")
