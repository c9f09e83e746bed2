"""Background fold scheduling for the streaming write path.

Inline fold-at-threshold (`IncrementalIndex.extended`'s default) puts
an O(n log n) rebuild on whichever ingest batch happens to cross the
threshold — exactly the latency spike a live service cannot afford.
The :class:`FoldScheduler` moves that work off the write path: a
daemon thread scans the shards, rebuilds the static index for the
most overgrown tails *without holding any lock*, and swaps each result
in as an atomic epoch bump (:meth:`Shard.fold`).  Ingest, meanwhile,
extends tails unconditionally (``auto_fold`` off).

Per-cycle budget: one shard — the most overgrown — folds per scan, so
a burst that overgrows every shard at once amortizes its rebuilds
across cycles instead of stalling the process on all of them —
queries answer from the (slightly slower, still exact) brute tails in
the interim.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from .metrics import MetricsRegistry

#: Seconds between scans while idle.
FOLD_INTERVAL = 0.05


class FoldScheduler:
    """Daemon that folds overgrown incremental-index tails.

    Parameters
    ----------
    shards:
        The :class:`~repro.service.shards.ShardSet` to watch.
    metrics:
        Fold durations land in the ``ingest.fold_ms`` histogram and
        completed folds in the ``ingest.folds`` counter.
    """

    def __init__(self, shards, metrics: Optional[MetricsRegistry] = None):
        self.shards = shards
        self.metrics = metrics
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self.shards.set_auto_fold(False)
        self._thread = threading.Thread(target=self._run,
                                        name="fold-scheduler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._wake.set()
        self._thread.join()
        self._thread = None
        self.shards.set_auto_fold(True)

    def poke(self) -> None:
        """Nudge the scheduler out of its idle wait (ingest calls this
        after a batch so folds start promptly under load)."""
        self._wake.set()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------
    def pending(self) -> List[int]:
        """Shard indexes whose tails currently exceed the threshold."""
        return [shard.index for shard in self.shards
                if shard.needs_fold()]

    def _fold(self, shard) -> bool:
        """Fold one shard and record it; False when the swap lost."""
        started = time.perf_counter()
        if not shard.fold():
            return False
        if self.metrics is not None:
            self.metrics.histogram("ingest.fold_ms").observe(
                (time.perf_counter() - started) * 1e3)
            self.metrics.counter("ingest.folds").increment()
        return True

    def fold_cycle(self) -> int:
        """One budgeted pass: fold the most overgrown shard.

        Returns the number of folds that landed (0 or 1).  Public so
        tests and quiesce points can drive the scheduler
        deterministically.
        """
        overgrown = [shard for shard in self.shards if shard.needs_fold()]
        if not overgrown:
            return 0
        return int(self._fold(max(overgrown,
                                  key=lambda s: s.delta_points)))

    def drain(self, max_passes: int = 64) -> int:
        """Fold until no shard needs it (checkpoint quiesce helper).

        Bounded: a fold can lose its swap race against concurrent
        ingest, so a pass that lands nothing backs off briefly and the
        loop gives up after ``max_passes`` rather than spinning.
        """
        total = 0
        for _ in range(max_passes):
            overgrown = [shard for shard in self.shards
                         if shard.needs_fold()]
            if not overgrown:
                break
            landed = sum(self._fold(shard) for shard in overgrown)
            total += landed
            if not landed:
                time.sleep(0.001)
        return total

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                folded = self.fold_cycle()
            except Exception:       # pragma: no cover - defensive: a
                folded = 0          # poisoned shard must not kill folds
            if folded:
                continue            # more may be pending; no idle wait
            self._wake.wait(FOLD_INTERVAL)
            self._wake.clear()
