"""Process-level execution tier: shard workers over zero-copy snapshots.

The thread-mode service tops out once the exact matcher's Python-side
bookkeeping saturates the GIL; this module moves shard *query
execution* into worker processes while leaving every serving-layer
decision (admission, cache, retries, breakers, merge, degradation
ladder) in the parent.  The design follows the one-writer /
many-searcher model of production retrieval engines:

* **Publish.**  The parent writes each shard's base as a v3/v4
  columnar snapshot file — under ``publish_dir`` when one is
  configured, otherwise under a private temporary directory the pool
  removes at shutdown — and hands workers nothing but small *attach
  specs*: the path plus the shard's own ``beta``, ``hash_curves`` and
  ANN config, so a worker scores exactly as the parent's shard would.
* **Attach.**  Every worker maps every shard zero-copy with
  :func:`~repro.storage.persist.load_base` and ``mmap=True``: the
  kernel page cache backs all workers with one physical copy.  A
  mutation in the parent bumps the shard-set version;
  :meth:`ProcessWorkerPool.sync` republishes (or ships an append
  delta) and workers re-attach, so serving state converges without
  restarts.
* **Dispatch.**  :class:`ProcessShardView` is a shard-shaped proxy:
  matcher/ANN operations become pickle-light task envelopes (query
  vertex arrays + parameters in, top-k id/score arrays out) sent over
  a per-worker pipe; the constant-cost ``hash_query`` tier stays in
  the parent so a dead worker's shard can still contribute fallback
  answers.  Shards map to workers by fixed affinity
  (``shard_index % processes``): failure domains are deterministic —
  killing a worker degrades exactly its shard slice, which the
  PR 4 breaker/degradation ladder already knows how to route around —
  and each worker's hot set stays page-local.

Deadlines stay cooperative across the process boundary: the parent
sends the attempt's *remaining seconds* with each envelope and the
worker rebuilds a local :class:`~repro.service.deadline.Deadline` as
the matcher's abort hook.  Dead workers are detected both in-band
(broken pipe on send/recv) and by liveness checks while awaiting a
reply; either way the shard call raises
:class:`WorkerUnavailableError`, which the service's resilient-call
boundary converts into a degraded (never failed) answer.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
import sys
import tempfile
import threading
import weakref
from contextlib import ExitStack
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from ..core.matcher import Match, MatchStats
from ..geometry.polyline import Shape
from .deadline import Deadline
from .faults import ANN_OPS, MATCHER_OPS, ShardTimeoutError
from .pool import WorkerPool
from .shards import Shard, ShardSet

#: Pipe poll granularity while awaiting a reply: liveness of the
#: worker process is re-checked every slice, so a SIGKILLed worker is
#: detected within one slice instead of hanging until the timeout.
_POLL_SLICE = 0.05

#: Grace added on top of a cooperative deadline before the parent
#: declares the attempt timed out (covers serialization + pipe hops).
_DEADLINE_GRACE = 0.5

#: Upper bound for calls with no deadline at all — a liveness
#: backstop, not a latency target.
_DEFAULT_CALL_TIMEOUT = 120.0

#: Attach (publish + load + warm) budget per worker.
_ATTACH_TIMEOUT = 300.0

#: Children start the platform's way: ``fork`` on Linux (cheap, and
#: the child inherits the parent's warm imports), ``spawn`` elsewhere.
_CONTEXT = multiprocessing.get_context(
    "fork" if sys.platform.startswith("linux") else "spawn")

#: How often an idle child checks whether its parent is still there.
_ORPHAN_POLL = 2.0

#: Bound on the join after a SIGKILL (the signal is asynchronous).
_KILL_JOIN = 5.0


class WorkerUnavailableError(RuntimeError):
    """The shard's worker process is dead or unreachable."""


class WorkerOperationError(RuntimeError):
    """The worker executed the op and reported an exception."""


# ----------------------------------------------------------------------
# Child supervision: one spawn / stop / kill path
# ----------------------------------------------------------------------
class ChildProcess:
    """A child process and the parent's end of its duplex pipe.

    ``target(conn, *args)`` runs in the child and reads its requests
    through :func:`parent_messages`.  Shard workers and HTTP replicas
    are both built on this: :meth:`kill` is the chaos hook,
    :meth:`request_stop` + :meth:`reap` the polite shutdown (split so
    a caller can ask every child first and then wait for all of them
    in one pass).
    """

    def __init__(self, target: Callable[..., None], args: tuple,
                 name: str, daemon: bool = True):
        parent_conn, child_conn = _CONTEXT.Pipe(duplex=True)
        self.process = _CONTEXT.Process(target=target,
                                        args=(child_conn, *args),
                                        name=name, daemon=daemon)
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> Optional[int]:
        """SIGKILL the child; returns its pid once it has exited.

        The join matters: the signal is delivered asynchronously, so
        a liveness check (or a revive) right after a bare kill can
        still see the victim alive.
        """
        self.process.kill()
        self.process.join(timeout=_KILL_JOIN)
        return self.process.pid

    def request_stop(self) -> None:
        """Ask the child to exit (best effort: it may be dead)."""
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError, ValueError):
            pass

    def reap(self, grace: float) -> None:
        """Give the child ``grace`` seconds to exit, then kill it;
        close the pipe either way."""
        self.process.join(timeout=grace)
        if self.process.is_alive():
            self.kill()
        try:
            self.conn.close()
        except OSError:
            pass


def parent_messages(conn) -> Iterator[tuple]:
    """The child side of :class:`ChildProcess`: yield each message from
    the parent until it sends ``("stop",)``, closes the pipe, or dies.

    Parent death cannot be trusted to surface as EOF: with the fork
    start method, sibling children inherit copies of this pipe's
    parent end and keep it open after the parent is gone (SIGKILLed,
    in chaos runs).  Poll with a timeout and watch for reparenting
    explicitly — an orphaned child must exit, not serve forever.
    """
    parent = os.getppid()
    while True:
        try:
            while not conn.poll(_ORPHAN_POLL):
                if os.getppid() != parent:
                    return
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        yield message


# ----------------------------------------------------------------------
# Wire formats: pickle-light envelopes
# ----------------------------------------------------------------------
def _shape_to_wire(shape: Shape) -> Tuple[np.ndarray, bool]:
    """A sketch as ``(float64 (n,2) array, closed)`` — no Shape pickle."""
    return (np.ascontiguousarray(shape.vertices, dtype=np.float64),
            bool(shape.closed))


def _shape_from_wire(wire: Tuple[np.ndarray, bool]) -> Shape:
    vertices, closed = wire
    array = np.asarray(vertices, dtype=np.float64)
    array.setflags(write=False)
    # The parent serialized an already-constructed Shape, so the
    # constructor's invariants hold; _trusted skips re-validation.
    return Shape._trusted(array, closed)


def _matches_to_wire(matches: Sequence[Match]) -> Tuple[np.ndarray, ...]:
    """Top-k lists as parallel columns (ids/images/scores/entries/flags)."""
    n = len(matches)
    ids = np.fromiter((m.shape_id for m in matches),
                      dtype=np.int64, count=n)
    images = np.fromiter(
        (-1 if m.image_id is None else m.image_id for m in matches),
        dtype=np.int64, count=n)
    distances = np.fromiter((m.distance for m in matches),
                            dtype=np.float64, count=n)
    entries = np.fromiter((m.entry_id for m in matches),
                          dtype=np.int64, count=n)
    approx = np.fromiter((m.approximate for m in matches),
                         dtype=np.bool_, count=n)
    return (ids, images, distances, entries, approx)


def _matches_from_wire(wire: Tuple[np.ndarray, ...]) -> List[Match]:
    ids, images, distances, entries, approx = wire
    return [Match(shape_id=int(ids[i]),
                  image_id=None if images[i] < 0 else int(images[i]),
                  distance=float(distances[i]),
                  entry_id=int(entries[i]),
                  approximate=bool(approx[i]))
            for i in range(len(ids))]


def _stats_to_wire(stats: MatchStats) -> Dict[str, Any]:
    """Every ``MatchStats`` field, as plain containers."""
    return dataclasses.asdict(stats)


def _stats_from_wire(wire: Dict[str, Any]) -> MatchStats:
    return MatchStats(**wire)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _attach_shards(specs: Sequence[Dict[str, Any]]) -> Dict[int, Shard]:
    """Map + warm every published shard file (runs inside the worker)."""
    from ..storage.persist import load_base
    shards: Dict[int, Shard] = {}
    for spec in specs:
        base = load_base(spec["path"], backend=spec["backend"], mmap=True)
        shard = Shard(spec["index"], base, beta=spec["beta"],
                      hash_curves=spec["hash_curves"], ann=spec["ann"])
        # Warm the tiers this worker serves (index, matcher, ANN);
        # the hash tier stays parent-side.
        if base.num_entries:
            base.index
        shard.matcher
        if shard.ann_config is not None:
            shard.ann
        shards[spec["index"]] = shard
    return shards


def _worker_main(conn, worker_index: int) -> None:
    """One shard worker: attach to published shards, serve query ops.

    The loop is strictly request/reply over one pipe; every reply
    echoes the request id so the parent can discard replies to
    requests it already abandoned (timed-out attempts).
    """
    shards: Dict[int, Shard] = {}
    for message in parent_messages(conn):
        kind, req_id = message[0], message[1]
        try:
            if kind == "attach":
                shards = _attach_shards(message[2])
                conn.send((req_id, "ok", {
                    "worker": worker_index,
                    "pid": os.getpid(),
                    "shards": sorted(shards),
                    "shapes": {i: s.num_shapes
                               for i, s in shards.items()}}))
            elif kind == "delta":
                conn.send((req_id, "ok",
                           _apply_deltas(shards, worker_index, message)))
            elif kind == "run":
                conn.send((req_id, "ok",
                           _serve_run(shards, worker_index, message)))
            elif kind == "ping":
                conn.send((req_id, "ok", os.getpid()))
            else:
                raise ValueError(f"unknown message kind {kind!r}")
        except Exception as exc:   # isolation boundary: report, don't die
            try:
                conn.send((req_id, "err", type(exc).__name__, str(exc)))
            except (OSError, ValueError):
                return


def _apply_deltas(shards: Dict[int, Shard], worker_index: int,
                  message: tuple) -> Dict[str, Any]:
    """Absorb per-shard append deltas into the attached bases.

    The streaming publication fast path: instead of re-attaching a
    full republished snapshot on every version bump, the parent ships
    only the appended rows (:func:`~repro.storage.persist.
    encode_base_delta`) and the worker extends its live bases in
    place — index tails, warm caches and the ANN tier are all patched
    through the same incremental machinery the parent's ingest path
    uses.  ``apply_base_delta`` verifies the worker sits at exactly
    the prior state each delta was cut against, so a missed window
    raises (and the parent degrades the worker) instead of serving
    silently diverged answers.
    """
    from ..rangesearch.dynamic import _TAIL_MIN
    from ..storage.persist import apply_base_delta
    applied: Dict[int, int] = {}
    for shard_index, payload in message[2]:
        shard = shards.get(shard_index)
        if shard is None:
            raise RuntimeError(f"worker {worker_index} has no shard "
                               f"{shard_index} attached")
        first_entry = apply_base_delta(shard.base, payload)
        shard._patch_added(first_entry)
        # Serve-side tails are priced differently than they are on
        # the parent: a retrieve makes hundreds of range probes, and
        # each one pays a brute scan over the unfolded tail, so a
        # tail that is cheap to *carry* through ingest is expensive
        # to *serve*.  Fold past the flat floor — one small rebuild
        # per apply round (between requests, single-threaded) bounds
        # every query's tail cost at ~_TAIL_MIN points instead of
        # letting it grow toward the 0.25*core fold threshold.
        if shard.delta_points > _TAIL_MIN:
            shard.fold()
        applied[shard_index] = shard.base.num_entries
    return {"worker": worker_index, "entries": applied}


def _serve_run(shards: Dict[int, Shard], worker_index: int,
               message: tuple) -> list:
    """Dispatch one run envelope (keeps shard refs out of the loop)."""
    shard_index, op, payload = message[2:5]
    shard = shards.get(shard_index)
    if shard is None:
        raise RuntimeError(f"worker {worker_index} has no shard "
                           f"{shard_index} attached")
    return _run_op(shard, op, payload)


def _run_op(shard: Shard, op: str, payload: Dict[str, Any]) -> list:
    """Execute one query op; results as wire pairs (matches, stats).

    ``op`` names a shard method; only the query ops are accepted, so a
    pipe message can never reach a mutating one.
    """
    if op not in MATCHER_OPS + ANN_OPS:
        raise ValueError(f"unknown op {op!r}")
    params = dict(payload)
    sketches = [_shape_from_wire(w) for w in params.pop("sketches")]
    remaining = params.pop("remaining", None)
    abort = None
    if remaining is not None:
        abort = Deadline(max(0.0, remaining)).expired
    pairs = getattr(shard, op)(sketches, abort=abort, **params)
    return [(_matches_to_wire(matches), _stats_to_wire(stats))
            for matches, stats in pairs]


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Worker(ChildProcess):
    """Parent-side handle on one shard worker: its pipe lock (one
    request/reply in flight at a time) and a liveness flag that the
    first sign of death clears."""

    def __init__(self, index: int):
        super().__init__(_worker_main, (index,),
                         name=f"repro-shard-worker-{index}")
        self.index = index
        self.lock = threading.Lock()
        self.alive = True

    def is_alive(self) -> bool:
        return self.alive and self.process.is_alive()


def _unlink_publications(specs: Sequence[Dict[str, Any]]) -> None:
    for spec in specs:
        try:
            os.unlink(spec["path"])
        except OSError:
            pass


class ProcessWorkerPool(WorkerPool):
    """A :class:`WorkerPool` whose shard work runs in worker processes.

    Presents the same ``map_over``/``submit``/``shutdown`` surface —
    the inherited *thread* pool still drives per-shard fan-out in the
    parent, but each shard callable now crosses a pipe into the
    worker process that owns the shard (``shard_index % processes``)
    instead of running the matcher under the parent's GIL.

    Shards are published as per-shard snapshot files that workers
    mmap (zero-copy through the kernel page cache).  ``publish_dir``
    names where; ``None`` means a private temporary directory that
    :meth:`shutdown` removes.  Everything a worker scores with
    (``beta``, ``hash_curves``, the ANN config) comes from the shards
    themselves, in each attach spec.
    """

    def __init__(self, processes: int = 2, workers: Optional[int] = None,
                 publish_dir: Optional[str] = None, compact_every: int = 16):
        if processes < 1:
            raise ValueError("processes must be at least 1")
        if compact_every < 1:
            raise ValueError("compact_every must be at least 1")
        # Parent threads must be able to occupy every worker process
        # at once, or fan-out serializes behind the thread pool.
        super().__init__(workers=max(processes,
                                     workers if workers else 1))
        self.processes = int(processes)
        self._owns_publish_dir = publish_dir is None
        self.publish_dir = publish_dir if publish_dir is not None \
            else tempfile.mkdtemp(prefix="repro-publish-")
        self._req_counter = 0
        self._req_lock = threading.Lock()
        self._sync_lock = threading.Lock()
        # Synced state is the *pair* (shard set identity, version):
        # versions restart at 1 for every fresh ShardSet (a caller may
        # sync a second set through the same pool), so the version
        # alone cannot distinguish "already attached" from "different
        # corpus at the same count".  A weakref keeps the pool from
        # pinning a replaced shard set alive; a dead ref simply forces
        # a resync.
        self._synced_set: Optional["weakref.ref"] = None
        self._synced_version: Optional[int] = None
        self._publish_round = 0
        self._publications: List[Dict[str, Any]] = []
        # Delta-publication state: per shard index, the (removal
        # epoch, shape count, entry count) the workers hold — the
        # prior state the next delta is cut against.  ``None`` forces
        # a full republish (fresh pool or revive); a moved epoch does
        # too.  Every ``compact_every`` consecutive delta rounds a full
        # republish runs anyway, so worker heaps re-converge onto one
        # compact zero-copy snapshot.
        self.compact_every = int(compact_every)
        self._delta_state: Optional[Dict[int, Tuple[int, int, int]]] = None
        self._delta_rounds = 0
        self._sync_stats = {"full_rounds": 0, "delta_rounds": 0,
                            "full_bytes": 0, "delta_bytes": 0,
                            "last_kind": None, "last_bytes": 0}
        self._proc_workers: List[_Worker] = [
            _Worker(index) for index in range(self.processes)]

    def _next_req_id(self) -> int:
        with self._req_lock:
            self._req_counter += 1
            return self._req_counter

    # -- publishing -----------------------------------------------------
    def _publish_shard(self, shard: Shard, version: int,
                       round_id: int) -> Dict[str, Any]:
        """Write one shard's snapshot file; returns its attach spec."""
        from ..storage.persist import save_base
        ann = shard.ann_config
        sketch = ann.sketch if ann is not None else None
        directory = Path(self.publish_dir)
        directory.mkdir(parents=True, exist_ok=True)
        # The round id keeps paths unique across shard-set swaps: a
        # second set restarts its version counter, and reusing a live
        # publication's path would let the stale-release in _full_sync
        # unlink the file just published.
        path = directory / (f"shard-{shard.index:02d}"
                            f"-v{version:08d}"
                            f"-r{round_id:04d}.gsb")
        size = save_base(shard.base, path,
                         version=4 if sketch is not None else 3,
                         ann_sketch=sketch)
        return {"index": shard.index, "backend": shard.base.backend,
                "path": str(path), "size": size, "beta": shard.beta,
                "hash_curves": shard.hash_curves, "ann": ann}

    def sync(self, shard_set: ShardSet, force: bool = False) -> bool:
        """Converge every live worker onto the shard set's current state.

        No-op when the workers already hold *this* shard set at its
        current version.  On a version bump the pool first tries the
        cheap path: when no shard's removal epoch moved since the last
        sync, the change is pure append, and it ships each changed
        shard's *delta* — just the appended rows, via
        :func:`~repro.storage.persist.encode_base_delta` — over the
        worker pipes, typically orders of magnitude less data than a
        republish.  A removal, a swapped shard set, or
        ``compact_every`` consecutive delta rounds fall back to the full
        publish + re-attach round (which also compacts worker heaps
        back onto one zero-copy snapshot).  A
        worker that fails either path is taken out of rotation rather
        than left serving stale answers; on any error new publications
        are released, never leaked.  Returns True when any round ran.
        """
        with self._sync_lock:
            # Version is captured *before* the per-shard state walk:
            # shard mutations publish their rows before bumping the set
            # version, so everything implied by this version is visible
            # to the walk below.  Rows landing mid-walk may ship early —
            # harmless, the counts keep the next round from
            # double-applying them.
            version = shard_set.version
            synced = (self._synced_set()
                      if self._synced_set is not None else None)
            if not force and synced is shard_set \
                    and version == self._synced_version:
                return False
            if not force and synced is shard_set \
                    and self._delta_state is not None \
                    and self._delta_rounds < self.compact_every:
                if self._delta_sync(shard_set, version):
                    return True
            return self._full_sync(shard_set, version)

    def _delta_sync(self, shard_set: ShardSet, version: int) -> bool:
        """Ship append-only deltas to the workers; False = ineligible.

        Eligible when no shard's removal epoch moved since the last
        sync: the change is then pure append.  Each shard's delta is
        encoded under its write lock, so the payload and the new
        counts describe the same instant.
        """
        assert self._delta_state is not None
        deltas: List[Tuple[int, bytes]] = []
        new_state: Dict[int, Tuple[int, int, int]] = {}
        from ..storage.persist import encode_base_delta
        for shard in shard_set:
            state = self._delta_state.get(shard.index)
            if state is None:
                return False
            epoch, prior_shapes, prior_entries = state
            with shard.write_lock:
                if shard.epoch != epoch:
                    return False
                num_shapes = len(shard.base.shapes)
                num_entries = shard.base.num_entries
                if num_shapes < prior_shapes or \
                        num_entries < prior_entries:
                    return False     # shrunk without a removal?
                if (num_shapes, num_entries) != (prior_shapes,
                                                 prior_entries):
                    deltas.append((shard.index, encode_base_delta(
                        shard.base, prior_shapes, prior_entries)))
                new_state[shard.index] = (epoch, num_shapes, num_entries)
        if deltas:
            # A worker that missed a window (or died) cannot serve the
            # new version; the broadcast degrades it until a revive +
            # full sync brings it back.
            self._broadcast(("delta", None, deltas), _ATTACH_TIMEOUT)
        shipped = sum(len(payload) for _, payload in deltas)
        self._delta_state = new_state
        self._delta_rounds += 1
        self._synced_version = version
        stats = self._sync_stats
        stats["delta_rounds"] += 1
        stats["delta_bytes"] += shipped
        stats["last_kind"] = "delta"
        stats["last_bytes"] = shipped
        return True

    def _full_sync(self, shard_set: ShardSet, version: int) -> bool:
        """Publish every shard and (re-)attach every live worker."""
        publications: List[Dict[str, Any]] = []
        state: Dict[int, Tuple[int, int, int]] = {}
        installed = False
        self._publish_round += 1
        try:
            for shard in shard_set:
                # The write lock holds the base still across the
                # encode *and* the baseline capture, so the published
                # snapshot and the delta baseline agree exactly.
                with shard.write_lock:
                    publications.append(
                        self._publish_shard(shard, version,
                                            self._publish_round))
                    state[shard.index] = (shard.epoch,
                                          len(shard.base.shapes),
                                          shard.base.num_entries)
            # A worker that survived but could not attach (missing or
            # unreadable snapshot file) still holds the previous corpus
            # and would silently serve stale answers: the broadcast
            # takes it out of rotation so its shards degrade instead.
            self._broadcast(("attach", None, publications),
                            _ATTACH_TIMEOUT)
            stale, self._publications = (self._publications,
                                         publications)
            installed = True
            self._synced_set = weakref.ref(shard_set)
            self._synced_version = version
            self._delta_state = state
            self._delta_rounds = 0
            published = sum(spec["size"] for spec in publications)
            stats = self._sync_stats
            stats["full_rounds"] += 1
            stats["full_bytes"] += published
            stats["last_kind"] = "full"
            stats["last_bytes"] = published
            _unlink_publications(stale)
            return True
        finally:
            if not installed:
                _unlink_publications(publications)

    # -- dispatch -------------------------------------------------------
    def _worker_for(self, shard_index: int) -> _Worker:
        return self._proc_workers[shard_index % len(self._proc_workers)]

    def _call_worker(self, worker: _Worker, message: tuple,
                     timeout: Optional[float]) -> Any:
        """One request/reply on a worker's pipe (serialized per worker).

        Replies carrying a stale request id (a previous attempt the
        parent abandoned on timeout) are drained and discarded, so
        one slow call cannot desynchronize the pipe for the next.
        """
        timeout = timeout if timeout is not None else _DEFAULT_CALL_TIMEOUT
        deadline = Deadline(timeout)
        with worker.lock:
            req_id = self._send(worker, message)
            return self._await_reply(worker, req_id, deadline, timeout)

    def _broadcast(self, message: tuple, timeout: float) -> None:
        """Send ``message`` to every live worker before awaiting any
        reply, so the workers handle it side by side.

        Outcomes stay per worker: a death, an ``err`` reply or no reply
        within ``timeout`` seconds of *its own* send marks only that
        worker dead.  Each worker's pipe lock is held from its send to
        its reply, as in :meth:`_call_worker`.
        """
        with ExitStack() as locks:
            pending = []
            for worker in self._proc_workers:
                if not worker.is_alive():
                    continue
                locks.enter_context(worker.lock)
                try:
                    req_id = self._send(worker, message)
                except WorkerUnavailableError:
                    continue
                pending.append((worker, req_id, Deadline(timeout)))
            for worker, req_id, deadline in pending:
                try:
                    self._await_reply(worker, req_id, deadline, timeout)
                except (WorkerUnavailableError, ShardTimeoutError,
                        WorkerOperationError):
                    worker.alive = False

    def _send(self, worker: _Worker, message: tuple) -> int:
        """Send one request on a worker's pipe; returns its request id.

        The caller holds ``worker.lock``.  Stale replies waiting on the
        pipe are drained first.
        """
        if not worker.is_alive():
            worker.alive = False
            raise WorkerUnavailableError(
                f"worker {worker.index} (pid "
                f"{worker.process.pid}) is dead")
        req_id = self._next_req_id()
        try:
            while worker.conn.poll(0):       # drain stale replies
                worker.conn.recv()
            worker.conn.send((message[0], req_id) + message[2:])
        except (BrokenPipeError, EOFError, OSError) as exc:
            worker.alive = False
            raise WorkerUnavailableError(
                f"worker {worker.index} pipe failed: {exc}") from exc
        return req_id

    def _await_reply(self, worker: _Worker, req_id: int,
                     deadline: Deadline, timeout: float) -> Any:
        """Wait for the reply to ``req_id`` (the caller holds
        ``worker.lock``); replies to abandoned requests are skipped."""
        try:
            while True:
                if worker.conn.poll(_POLL_SLICE):
                    reply = worker.conn.recv()
                    if reply[0] != req_id:
                        continue             # stale; keep waiting
                    if reply[1] == "ok":
                        return reply[2]
                    raise WorkerOperationError(
                        f"worker {worker.index}: "
                        f"{reply[2]}: {reply[3]}")
                if not worker.process.is_alive():
                    worker.alive = False
                    raise WorkerUnavailableError(
                        f"worker {worker.index} died mid-call")
                if deadline.expired():
                    raise ShardTimeoutError(
                        f"worker {worker.index} reply exceeded "
                        f"{timeout}s")
        except (BrokenPipeError, EOFError, OSError) as exc:
            worker.alive = False
            raise WorkerUnavailableError(
                f"worker {worker.index} pipe failed: {exc}") from exc

    def call(self, shard_index: int, op: str, payload: Dict[str, Any],
             timeout: Optional[float] = None) -> list:
        """Run one shard op on its affinity worker; wire pairs back."""
        worker = self._worker_for(shard_index)
        return self._call_worker(
            worker, ("run", None, shard_index, op, payload), timeout)

    # -- chaos / introspection ------------------------------------------
    def kill_worker(self, index: int) -> int:
        """SIGKILL one worker (chaos hook); returns its pid.

        Deliberately does *not* mark the worker dead — detection is
        the service's job (liveness checks, broken pipes, breakers).
        Returns once the process has exited (the signal is delivered
        asynchronously), so a :meth:`revive_workers` call right after
        sees it dead instead of skipping it.
        """
        return self._proc_workers[index % len(self._proc_workers)].kill()

    def revive_workers(self) -> List[int]:
        """Respawn every dead worker; returns the revived indexes.

        The recovery half of the chaos story: a SIGKILLed worker's
        shard slice degrades (breakers route around it) until this
        respawns the process.  Fresh workers hold nothing, so the
        synced state is reset — the next :meth:`sync` call runs a full
        publish + attach round and re-converges the whole pool.
        """
        revived: List[int] = []
        with self._sync_lock:
            if self.closed:
                return revived
            for slot, worker in enumerate(self._proc_workers):
                if worker.is_alive():
                    continue
                # A worker retired while still running (failed attach
                # or delta) is stopped here, not left to linger.
                with worker.lock:
                    worker.request_stop()
                    worker.reap(grace=1.0)
                self._proc_workers[slot] = _Worker(worker.index)
                revived.append(worker.index)
            if revived:
                self._synced_set = None
                self._synced_version = None
                self._delta_state = None
        return revived

    def alive_workers(self) -> List[int]:
        return [w.index for w in self._proc_workers if w.is_alive()]

    def worker_pids(self) -> List[Optional[int]]:
        return [w.process.pid for w in self._proc_workers]

    def info(self) -> Dict[str, Any]:
        return {"processes": self.processes,
                "alive": self.alive_workers(),
                "synced_version": self._synced_version,
                "sync": dict(self._sync_stats),
                "compact_every": self.compact_every}

    def shutdown(self) -> None:
        """Stop workers, release publications, then the thread pool."""
        if self.closed:
            return
        for worker in self._proc_workers:
            # Fail-fast any new query dispatch, then take the pipe
            # lock so the stop message never interleaves with an
            # in-flight _call_worker send (Connection is not
            # thread-safe for concurrent sends).  A worker wedged in
            # a long call keeps the lock past the timeout; skip the
            # polite stop — reap() kills it regardless.
            worker.alive = False
            if worker.lock.acquire(timeout=2.0):
                try:
                    worker.request_stop()
                finally:
                    worker.lock.release()
        for worker in self._proc_workers:
            worker.reap(grace=1.0)
        _unlink_publications(self._publications)
        self._publications = []
        if self._owns_publish_dir:
            shutil.rmtree(self.publish_dir, ignore_errors=True)
        super().shutdown()

    def __repr__(self) -> str:
        return (f"ProcessWorkerPool(processes={self.processes}, "
                f"alive={len(self.alive_workers())}, "
                f"publish_dir={self.publish_dir!r})")


# ----------------------------------------------------------------------
# Shard proxy
# ----------------------------------------------------------------------
def _abort_remaining(abort: Optional[Callable[[], bool]]
                     ) -> Optional[float]:
    """Extract the cooperative budget (seconds) from an abort callback.

    The service's resilient-call wrapper annotates its abort closure
    with a ``remaining`` thunk; a bare ``Deadline.expired`` bound
    method is also understood.  ``None`` means unbounded.
    """
    if abort is None:
        return None
    remaining = getattr(abort, "remaining", None)
    if callable(remaining):
        value = remaining()
    else:
        owner = getattr(abort, "__self__", None)
        if isinstance(owner, Deadline):
            value = owner.remaining()
        else:
            return None
    if value is None or value == float("inf"):
        return None
    return max(0.0, float(value))


class ProcessShardView:
    """A shard-shaped proxy that executes query ops in a worker process.

    Drops into every code path a real :class:`Shard` serves (the
    resilient call, answer validation via ``.base``, fault-injection
    wrappers): matcher and ANN operations cross the pipe to the
    shard's affinity worker, while ``hash_query`` — the constant-cost
    last rung of the degradation ladder — runs on the parent's copy,
    so a shard whose worker died still contributes salvage answers.
    """

    def __init__(self, pool: ProcessWorkerPool, shard: Shard):
        self._pool = pool
        self._shard = shard
        self.index = shard.index

    # -- parent-side surface -------------------------------------------
    @property
    def base(self):
        return self._shard.base

    @property
    def num_shapes(self) -> int:
        return self._shard.num_shapes

    def hash_query(self, sketch: Shape, k: int) -> List[Match]:
        return self._shard.hash_query(sketch, k)

    # -- remote ops -----------------------------------------------------
    def _remote(self, op: str, sketches: Sequence[Shape],
                abort: Optional[Callable[[], bool]],
                **parameters) -> List[Tuple[List[Match], MatchStats]]:
        remaining = _abort_remaining(abort)
        payload = {"sketches": [_shape_to_wire(s) for s in sketches],
                   "remaining": remaining, **parameters}
        timeout = None if remaining is None \
            else remaining + _DEADLINE_GRACE
        pairs = self._pool.call(self.index, op, payload,
                                timeout=timeout)
        return [(_matches_from_wire(matches), _stats_from_wire(stats))
                for matches, stats in pairs]

    def query_batch(self, sketches, k, abort=None, priors=None):
        return self._remote("query_batch", sketches, abort, k=k,
                            priors=priors)

    def query_threshold_batch(self, sketches, threshold, abort=None):
        return self._remote("query_threshold_batch", sketches, abort,
                            threshold=threshold)

    def ann_query_batch(self, sketches, k, abort=None):
        return self._remote("ann_query_batch", sketches, abort, k=k)

    def __repr__(self) -> str:
        return (f"ProcessShardView({self.index}, "
                f"worker={self.index % self._pool.processes})")
