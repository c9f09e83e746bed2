"""Worker pool and admission control for the retrieval service.

Two small pieces of machinery:

* :class:`WorkerPool` — a thin wrapper over
  :class:`concurrent.futures.ThreadPoolExecutor` (threads, not
  processes: shards share large read-only index structures that would
  be expensive to pickle across processes).  It knows how to fan one
  callable across a list of shards and gather the results in shard
  order, and it degrades to inline execution for ``workers=1``, for a
  one-item list, or when called from one of its own threads (nested
  fan-out from a batch task would otherwise deadlock a saturated
  pool).  The pool is for *overlapping* the shards of one fan-out wave
  — pipe waits in process execution, the numpy kernels that release
  the GIL — not for making small queries faster: measured on the
  ``BENCHMARK.json`` corpus (2 cores, planted sketches, k = 3), the
  four quarter-size shard queries of one sketch cost 35 ms fanned out
  on two threads and 27 ms run back to back on the caller's thread,
  because most of a small query is Python bookkeeping under the GIL.
  That is why the one-shard waves of the exact fan-out stay on the
  calling thread.

* :class:`AdmissionQueue` — a bounded in-flight counter.  Admission is
  *non-blocking*: a query that cannot be admitted is shed immediately
  with an explicit overload signal instead of queueing without bound —
  under saturation a served-fast subset beats an ever-growing backlog
  (the service returns ``Overloaded`` results; callers retry or back
  off).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class AdmissionQueue:
    """Bounded count of in-flight queries with non-blocking admission.

    ``max_pending`` is the bound; :meth:`try_admit` either takes a slot
    (True) or reports saturation (False) without blocking.  ``None``
    disables the bound (every query is admitted).
    """

    def __init__(self, max_pending: Optional[int] = None):
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be at least 1 (or None)")
        self.max_pending = max_pending
        self._pending = 0
        self._lock = threading.Lock()

    def try_admit(self) -> bool:
        """Take an in-flight slot if one is free; never blocks."""
        if self.max_pending is None:
            with self._lock:
                self._pending += 1
            return True
        with self._lock:
            if self._pending >= self.max_pending:
                return False
            self._pending += 1
            return True

    def release(self) -> None:
        """Return one slot; a double release is a caller bug.

        The guard keeps ``_pending`` from going negative — an
        underflowed counter would silently raise the effective
        admission bound for the rest of the process's life.
        """
        with self._lock:
            if self._pending <= 0:
                raise RuntimeError("release without a matching admit")
            self._pending -= 1

    @property
    def pending(self) -> int:
        return self._pending

    def __repr__(self) -> str:
        bound = self.max_pending if self.max_pending is not None else "inf"
        return f"AdmissionQueue(pending={self._pending}, max={bound})"


class WorkerPool:
    """Shard fan-out and batch execution over a thread pool."""

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers)
        self._executor: Optional[ThreadPoolExecutor] = None
        if self.workers > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-service")
        self._pool_threads: set = set()
        self._threads_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def _in_pool_thread(self) -> bool:
        return threading.current_thread().ident in self._pool_threads

    def _run_tracked(self, fn: Callable[..., R], *args) -> R:
        ident = threading.get_ident()
        with self._threads_lock:
            self._pool_threads.add(ident)
        return fn(*args)

    # ------------------------------------------------------------------
    def map_over(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, preserving order.

        Runs on the pool when it exists and we are not already inside
        one of its threads; otherwise inline (sequentially) — nested
        fan-out must not wait on the pool that is running it.
        """
        if self._executor is None or self._in_pool_thread() \
                or len(items) <= 1:
            return [fn(item) for item in items]
        futures = [self._executor.submit(self._run_tracked, fn, item)
                   for item in items]
        return [future.result() for future in futures]

    def submit(self, fn: Callable[..., R], *args) -> "Future[R]":
        """Submit one task; inline-executed future when pool-less."""
        if self._executor is None or self._in_pool_thread():
            future: "Future[R]" = Future()
            try:
                future.set_result(fn(*args))
            except BaseException as exc:   # pragma: no cover - passthrough
                future.set_exception(exc)
            return future
        return self._executor.submit(self._run_tracked, fn, *args)

    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(self) -> None:
        """Stop the executor; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"WorkerPool(workers={self.workers})"
