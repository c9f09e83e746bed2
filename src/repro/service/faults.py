"""Deterministic fault injection for the retrieval service.

Chaos testing only pays off when a failing run can be *replayed*: the
same seed must produce the same fault schedule, so a bug found in CI is
reproducible at a desk.  The harness here is therefore built around a
seeded :class:`FaultPlan` whose decisions are a pure function of
``(seed, shard index, per-shard call index)`` — thread interleaving
across shards cannot perturb any shard's schedule, because each shard
consumes its own independent random stream, one draw per faultable
call.

Vocabulary:

* :class:`FaultSpec` — one fault source: a shard index, a fault kind
  (``exception`` / ``latency`` / ``corrupt`` / ``wrong_shard``), a
  per-call probability, and the operations it applies to (by default
  the matcher ops only, so the hashing tier stays healthy and the
  service's per-shard hash fallback is exercised);
* :class:`FaultPlan` — a seeded set of specs with the per-shard
  decision streams and injection counters;
* :class:`FaultyShard` — a transparent proxy wrapping any
  :class:`~repro.service.shards.Shard`; the service wraps its shards
  in these when ``ServiceConfig.fault_plan`` is set (see
  ``repro serve-bench --chaos SEED``).

The exception types double as the service's failure vocabulary:
:class:`FaultError` is what injected exceptions raise,
:class:`CorruptShardAnswer` is what the service's answer validator
raises on non-finite distances or foreign shape ids, and
:class:`ShardTimeoutError` marks an attempt that exceeded its
per-attempt budget.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Fault kinds.
EXCEPTION = "exception"
LATENCY = "latency"
CORRUPT = "corrupt"
WRONG_SHARD = "wrong_shard"
KINDS = (EXCEPTION, LATENCY, CORRUPT, WRONG_SHARD)

#: Operation groups a spec can target (a shard has one sequence-form
#: op per tier).  ``MATCHER_OPS`` covers the exact envelope tier — top-k
#: and threshold — ``ANN_OPS`` the LSH-pruned tier; the default chaos
#: plan targets both (everything except the hash tier, which is each
#: shard's last-resort fallback).
MATCHER_OPS = ("query_batch", "query_threshold_batch")
ANN_OPS = ("ann_query_batch",)
ALL_OPS = MATCHER_OPS + ANN_OPS + ("hash_query",)

#: Shape-id offset used by ``wrong_shard`` faults — far outside any
#: real id space, so validation always catches the forgery.
FOREIGN_ID_OFFSET = 1 << 40

#: Injected latency sleeps in slices this long, polling the abort
#: callback, so per-attempt timeouts observe a "slow shard" promptly.
_SLEEP_SLICE = 0.005


class FaultError(RuntimeError):
    """The exception an ``exception`` fault raises inside a shard op."""


class CorruptShardAnswer(RuntimeError):
    """A shard answer failed validation (non-finite / foreign ids)."""


class ShardTimeoutError(RuntimeError):
    """A shard attempt exceeded its per-attempt time budget."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault source targeting one shard.

    ``probability`` is per faultable call; ``latency`` (seconds) only
    matters for ``latency`` faults; ``ops`` restricts which shard
    operations the spec can fire on.
    """

    shard: int
    kind: str
    probability: float = 1.0
    latency: float = 0.05
    ops: Tuple[str, ...] = MATCHER_OPS

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        unknown = set(self.ops) - set(ALL_OPS)
        if unknown:
            raise ValueError(f"unknown ops {sorted(unknown)}; "
                             f"expected a subset of {ALL_OPS}")


class FaultPlan:
    """A seeded, replayable schedule of shard faults.

    For shard *s*, the *i*-th faultable call draws the *i*-th value of
    a ``random.Random`` stream seeded from ``(seed, s)`` and walks the
    shard's specs cumulatively: the first spec whose probability band
    contains the draw (and whose ``ops`` include the operation) fires.
    Decisions therefore depend only on the per-shard call index — two
    runs issuing the same per-shard call sequences inject identical
    faults, regardless of thread interleaving across shards.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0):
        self.specs = tuple(specs)
        self.seed = int(seed)
        self._by_shard: Dict[int, List[FaultSpec]] = {}
        for spec in self.specs:
            self._by_shard.setdefault(spec.shard, []).append(spec)
        self._streams: Dict[int, random.Random] = {}
        self._calls: Dict[int, int] = {}
        self._injected: Dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def default(cls, seed: int, num_shards: int,
                matcher_only: bool = True) -> "FaultPlan":
        """The ``serve-bench --chaos SEED`` plan: one haunted shard.

        The seed picks the target shard and drives every per-call
        decision; the mix covers all four fault kinds at moderate
        rates.  With ``matcher_only`` (the default) both matching
        tiers — envelope and ANN — are haunted but the hashing tier
        stays healthy, so the per-shard fallbacks are exercised.
        (Schedules stay reproducible across this op-set change:
        :meth:`decide` draws one value per faultable call whether or
        not any spec's ``ops`` match it.)
        """
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        target = random.Random(seed).randrange(num_shards)
        ops = MATCHER_OPS + ANN_OPS if matcher_only else ALL_OPS
        specs = [
            FaultSpec(target, EXCEPTION, probability=0.15, ops=ops),
            FaultSpec(target, LATENCY, probability=0.15, latency=0.02,
                      ops=ops),
            FaultSpec(target, CORRUPT, probability=0.10, ops=ops),
            FaultSpec(target, WRONG_SHARD, probability=0.05, ops=ops),
        ]
        return cls(specs, seed=seed)

    def replay(self) -> "FaultPlan":
        """A fresh plan with the same specs and seed (schedule reset)."""
        return FaultPlan(self.specs, seed=self.seed)

    # ------------------------------------------------------------------
    def decide(self, shard_index: int, op: str) -> Optional[FaultSpec]:
        """The fault (if any) for this shard's next faultable call."""
        specs = self._by_shard.get(shard_index)
        if not specs:
            return None
        with self._lock:
            stream = self._streams.get(shard_index)
            if stream is None:
                stream = random.Random(self.seed * 1_000_003
                                       + shard_index)
                self._streams[shard_index] = stream
            self._calls[shard_index] = \
                self._calls.get(shard_index, 0) + 1
            draw = stream.random()
            cumulative = 0.0
            for spec in specs:
                if op not in spec.ops:
                    continue
                cumulative += spec.probability
                if draw < cumulative:
                    self._injected[spec.kind] = \
                        self._injected.get(spec.kind, 0) + 1
                    return spec
            return None

    def counts(self) -> Dict[str, int]:
        """Injected-fault counts by kind (for chaos-run reporting)."""
        with self._lock:
            return dict(self._injected)

    @property
    def total_injected(self) -> int:
        with self._lock:
            return sum(self._injected.values())

    def __repr__(self) -> str:
        shards = sorted(self._by_shard)
        return (f"FaultPlan(seed={self.seed}, shards={shards}, "
                f"specs={len(self.specs)})")


def _mangle_matches(spec: FaultSpec, matches):
    """Apply a result-mangling fault to one top-k list.

    ``corrupt`` poisons every distance with NaN; ``wrong_shard``
    relabels every match with an id no shard owns.  Empty lists pass
    through unchanged — there is nothing to corrupt.
    """
    if spec.kind == CORRUPT:
        return [replace(m, distance=float("nan")) for m in matches]
    if spec.kind == WRONG_SHARD:
        return [replace(m, shape_id=m.shape_id + FOREIGN_ID_OFFSET)
                for m in matches]
    return matches


class FaultyShard:
    """A shard proxy that injects the plan's faults into its operations.

    Every op in ``ALL_OPS`` goes through one wrapper (:meth:`_faulted`);
    everything else (``index``, ``base``, ``warm``, ``num_shapes``, ...)
    delegates to the wrapped shard, so the proxy drops into any code
    path a real :class:`Shard` serves.
    """

    def __init__(self, shard, plan: FaultPlan):
        self._shard = shard
        self._plan = plan

    def __getattr__(self, name):
        if name in ALL_OPS:
            return partial(self._faulted, name)
        return getattr(self._shard, name)

    # ------------------------------------------------------------------
    def _pre(self, spec: Optional[FaultSpec],
             abort: Optional[Callable[[], bool]]) -> None:
        """Apply call-entry faults (exception, latency)."""
        if spec is None:
            return
        if spec.kind == EXCEPTION:
            raise FaultError(
                f"injected failure on shard {self._shard.index}")
        if spec.kind == LATENCY:
            remaining = spec.latency
            while remaining > 0:
                if abort is not None and abort():
                    break
                step = min(_SLEEP_SLICE, remaining)
                time.sleep(step)
                remaining -= step

    def _faulted(self, op: str, *args, **kwargs):
        """One faultable call: decide → pre-fault → call → mangle.

        ``args`` are the op's own — ``(sketches, k | threshold,
        abort=...)`` for the sequence-form matcher/ANN ops (plus
        ``priors=...`` on ``query_batch``), ``(sketch, k)`` for
        ``hash_query``.
        """
        spec = self._plan.decide(self._shard.index, op)
        self._pre(spec, kwargs.get("abort"))
        answer = getattr(self._shard, op)(*args, **kwargs)
        if spec is None:
            return answer
        if op == "hash_query":          # the one op answering bare matches
            return _mangle_matches(spec, answer)
        return [(_mangle_matches(spec, matches), stats)
                for matches, stats in answer]

    def __repr__(self) -> str:
        return f"FaultyShard({self._shard!r}, plan={self._plan!r})"
