"""Streaming-ingest scenario: live writes under closed-loop queries.

The PR 10 headline exercise.  One service per execution mode runs
three interleaved phases:

* **idle baseline** — closed-loop clients only; the reference latency
  distribution;
* **stream segments** — an ingest thread pushes shape batches through
  the copy-on-write write path (:meth:`RetrievalService.ingest`:
  admission backpressure, folds at the append, delta publication to
  process workers) while the same closed-loop clients keep querying.  Only
  latencies measured *inside* a segment count toward the interference
  numbers;
* **checkpoints** — between segments both sides pause: overgrown
  tails fold (:meth:`RetrievalService.quiesce_ingest`), dead process
  workers are
  revived and resynced, and every query sketch is answered by the
  live (core + delta) service *and* by a service rebuilt from scratch
  over the same corpus.  The two answer sets must match bit-for-bit —
  `(shape_id, image_id, distance, approximate)` per match;
* **final idle baseline** — after the last checkpoint the clients run
  once more against the quiesced, fully-grown corpus.  This is the
  denominator of ``p99_interference``: the stream-phase p99 is
  dominated by late-stream queries that already serve the grown
  corpus, so dividing by the *pre-stream* baseline would bill plain
  corpus growth as write-path interference.

With ``chaos`` set, process mode SIGKILLs one worker mid-stream; the
scenario then additionally proves service stayed degraded-not-failed
and that ``revive_workers`` + a forced sync restore exact answers by
the next checkpoint.

Shared by ``repro serve-bench --stream`` (the CLI wrapper formats and
records the rows) and ``benchmarks/bench_stream.py`` (which asserts
the PR acceptance gates on the returned rows).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.shapebase import ShapeBase
from ..geometry.polyline import Shape
from ..imaging.synthesis import generate_workload, make_query_set
from .service import RetrievalService, ServiceConfig

__all__ = ["run_stream_scenario", "pctl", "STREAM_TRAJECTORY_HEADER"]

#: Header seeded into ``BENCH_stream.json`` on first write (the
#: ``record_trajectory`` protocol shared with the other BENCH files).
STREAM_TRAJECTORY_HEADER = {
    "benchmark": "stream_ingest",
    "metric": ("query p99 under live ingest vs quiesced same-corpus "
               "idle p99; delta vs full publication bytes per round"),
    "protocol": (
        "repro.service.streambench.run_stream_scenario: closed-loop "
        "clients measure an idle baseline, then keep querying while "
        "an ingest thread streams shape batches through the "
        "copy-on-write write path (folds at the append, admission "
        "backpressure, delta publication to process workers).  Checkpoints quiesce "
        "both sides and assert the live answers bit-for-bit equal to "
        "a service rebuilt from scratch over the same corpus, in "
        "thread and process modes.  p99_interference divides the "
        "stream-phase p99 by a final idle baseline re-measured on "
        "the fully-grown corpus, so plain corpus growth is not "
        "billed as write-path interference.  Points are appended "
        "when REPRO_BENCH_LABEL is set (the CI stream-smoke job does "
        "this on every run)."),
}


def pctl(sorted_values: Sequence[float], q: float) -> float:
    """Interpolated percentile of an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    position = (len(sorted_values) - 1) * (q / 100.0)
    lo = int(position)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = position - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def _collect_corpus(shards):
    """(shapes, image_ids, shape_ids) across a quiesced shard set, in
    shape-id order — the input for a rebuilt reference base."""
    shapes, image_ids, shape_ids = [], [], []
    for shard in shards:
        for sid, shape in shard.base.shapes.items():
            shapes.append(shape)
            image_ids.append(shard.base.shape_image[sid])
            shape_ids.append(int(sid))
    order = sorted(range(len(shape_ids)), key=lambda i: shape_ids[i])
    return ([shapes[i] for i in order], [image_ids[i] for i in order],
            [shape_ids[i] for i in order])


def _checkpoint_mismatches(service: RetrievalService,
                           sketches: Sequence[Shape], k: int,
                           num_shards: int, ann, ann_mode: str) -> int:
    """Bit-for-bit compare the live service against a service rebuilt
    from scratch over the same corpus; returns the number of diverging
    sketches.  The caller has paused ingest and quiesced folds, so the
    live corpus is still for the duration."""
    shapes, image_ids, shape_ids = _collect_corpus(service.shards)
    reference_base = ShapeBase(alpha=0.1)
    reference_base.add_shapes(shapes, image_ids=image_ids,
                              shape_ids=shape_ids)
    config = ServiceConfig(num_shards=num_shards, workers=2,
                           cache_capacity=0, ann=ann, ann_mode=ann_mode)
    mismatches = 0
    with RetrievalService.from_base(reference_base, config) as reference:
        for sketch in sketches:
            live = service.retrieve(sketch, k=k)
            want = reference.retrieve(sketch, k=k)
            live_key = [(m.shape_id, m.image_id, m.distance,
                         m.approximate) for m in live.matches]
            want_key = [(m.shape_id, m.image_id, m.distance,
                         m.approximate) for m in want.matches]
            if live.status != "ok" or live_key != want_key:
                mismatches += 1
    return mismatches


def run_stream_scenario(
        *, images: int, queries: int, distinct: int, k: int,
        shards: int, modes: Sequence[Tuple[str, int]],
        batches: int, batch_size: int, checkpoints: int,
        max_pending: Optional[int] = None, ann=None,
        ann_mode: str = "always", ingest_pause: float = 0.0,
        publish_compact_every: Optional[int] = None,
        chaos: Optional[int] = None, seed: int = 0,
        ) -> Tuple[List[dict], List[str], List[str]]:
    """Run the streaming scenario; returns ``(rows, escaped, failures)``.

    ``modes`` is a sequence of ``(execution, workers)`` pairs — e.g.
    ``[("thread", 2), ("process", 4)]``.  One row per mode.
    ``ingest_pause`` spaces batches by that many seconds, modelling a
    stream's arrival cadence — with 0 the ingest thread saturates a
    core, which on small hosts measures CPU starvation rather than
    write-path interference.  ``publish_compact_every`` overrides the
    process tier's compaction cadence (``None`` keeps the service
    default); each worker folds its own brute tails once a delta round
    carries them past ``_TAIL_MIN`` points, so the cadence sets how
    often a full republish replaces the delta rounds, not how large a
    tail grows.  The run *observed* a failure when
    ``failures`` is non-empty (checkpoint divergence, chaos kill that
    never landed) and *crashed* when ``escaped`` is non-empty (an
    exception leaked out of the service).
    """
    rng = np.random.default_rng(seed)
    workload = generate_workload(images, rng, shapes_per_image=4.0,
                                 noise=0.01)
    base = ShapeBase(alpha=0.1)
    workload.add_to(base)
    sketches = [query for query, _ in
                make_query_set(workload, distinct,
                               np.random.default_rng(seed + 1),
                               noise=0.01)]

    batches = max(1, batches)
    batch_size = max(1, batch_size)
    checkpoints = max(1, min(checkpoints, batches))
    checkpoint_every = max(1, batches // checkpoints)
    needed_images = (batches * batch_size + 3) // 4 + 1
    stream_workload = generate_workload(
        needed_images, np.random.default_rng(seed + 7),
        shapes_per_image=4.0, noise=0.01)
    stream_shapes = [shape for image in stream_workload.images
                     for shape in image.shapes]

    rows: List[dict] = []
    escaped: List[str] = []
    failures: List[str] = []
    for execution, workers in modes:
        config_kwargs = {}
        if publish_compact_every is not None:
            config_kwargs["publish_compact_every"] = publish_compact_every
        config = ServiceConfig(
            num_shards=shards, workers=workers,
            cache_capacity=0,       # every query does real work
            max_pending=max_pending,
            ann=ann, ann_mode=ann_mode,
            execution=execution, processes=workers,
            streaming=True, **config_kwargs)
        service = RetrievalService.from_base(base, config)
        mode = f"{execution}-{workers}"
        kill_mid_stream = chaos is not None and execution == "process"
        victim = (chaos % workers) if kill_mid_stream else None

        stop = threading.Event()
        lock = threading.Lock()
        latencies: List[float] = []
        degraded = {"n": 0}

        def client() -> None:
            index = 0
            while not stop.is_set():
                sketch = sketches[index % len(sketches)]
                index += 1
                try:
                    result = service.retrieve(sketch, k=k)
                except Exception as exc:
                    with lock:
                        escaped.append(f"{mode}: "
                                       f"{type(exc).__name__}: {exc}")
                    return
                with lock:
                    if result.ok or result.failed_shards:
                        latencies.append(result.latency)
                    if result.failed_shards:
                        degraded["n"] += 1

        def run_clients(queries_target: Optional[int] = None,
                        body: Optional[Callable[[], None]] = None
                        ) -> List[float]:
            """Drive closed-loop clients around ``body`` (or until
            ``queries_target`` answers land); returns the phase's
            sorted latencies."""
            del latencies[:]
            stop.clear()
            clients = [threading.Thread(target=client,
                                        name=f"stream-client-{i}")
                       for i in range(workers)]
            for thread in clients:
                thread.start()
            try:
                if body is not None:
                    body()
                else:
                    while True:
                        with lock:
                            if len(latencies) >= (queries_target or 0):
                                break
                        time.sleep(0.005)
            finally:
                stop.set()
                for thread in clients:
                    thread.join()
            with lock:
                return sorted(latencies)

        # -- phase 1: idle baseline ------------------------------------
        idle = run_clients(queries_target=queries)
        idle_p50 = pctl(idle, 50.0)
        idle_p99 = pctl(idle, 99.0)

        # -- phase 2: streaming ingest under query load ----------------
        ingested = {"shapes": 0, "batches": 0}
        checkpoint_results: List[int] = []
        kill_state = {"pid": None}
        next_shape = {"i": 0}

        def checkpoint() -> None:
            if kill_state["pid"] is not None and \
                    service.procpool is not None:
                # The chaos kill degraded this worker's slice; the
                # checkpoint contract is equality *after recovery*.
                service.procpool.revive_workers()
                service.procpool.sync(service.shards, force=True)
            service.quiesce_ingest()
            checkpoint_results.append(_checkpoint_mismatches(
                service, sketches, k, shards, ann, ann_mode))

        def ingest_segment(first: int, last: int) -> None:
            """Ingest batches [first, last) while clients run."""
            for batch_index in range(first, last):
                take = [stream_shapes[(next_shape["i"] + j)
                                      % len(stream_shapes)].translated(
                            0.001 * ingested["batches"], 0.0)
                        for j in range(batch_size)]
                next_shape["i"] += batch_size
                try:
                    service.ingest(take, image_id=10_000 + batch_index)
                except Exception as exc:
                    with lock:
                        escaped.append(f"{mode} ingest: "
                                       f"{type(exc).__name__}: {exc}")
                    return
                ingested["shapes"] += len(take)
                ingested["batches"] += 1
                if kill_mid_stream and kill_state["pid"] is None \
                        and batch_index + 1 >= batches // 2:
                    kill_state["pid"] = \
                        service.procpool.kill_worker(victim)
                if ingest_pause:
                    time.sleep(ingest_pause)

        # Checkpoints punctuate the stream: clients and ingest run
        # together inside each segment (those latencies are the
        # interference measurement), then both pause while the
        # quiesced live base is diffed against a rebuilt static one.
        stream: List[float] = []
        stream_wall = 0.0
        first = 0
        while first < batches:
            last = min(first + checkpoint_every, batches)
            segment_start = time.perf_counter()
            segment = run_clients(
                body=lambda first=first, last=last:
                     ingest_segment(first, last))
            stream_wall += time.perf_counter() - segment_start
            stream.extend(segment)
            checkpoint()
            first = last
        stream.sort()
        stream_p50 = pctl(stream, 50.0)
        stream_p99 = pctl(stream, 99.0)

        # -- phase 3: idle baseline on the grown corpus ----------------
        # The last checkpoint left the service quiesced, so this
        # measures the same corpus the late-stream (p99-dominating)
        # queries saw, minus the concurrent ingest.
        final_idle = run_clients(queries_target=queries)
        final_idle_p50 = pctl(final_idle, 50.0)
        final_idle_p99 = pctl(final_idle, 99.0)

        snap = service.snapshot()
        ingest_stats = snap["ingest"]
        row = {
            "mode": mode,
            "execution": execution,
            "workers": workers,
            "shards": shards,
            "corpus_shapes": service.shards.num_shapes,
            "idle_queries": len(idle),
            "stream_queries": len(stream),
            "idle_p50_ms": round(idle_p50 * 1e3, 3),
            "idle_p99_ms": round(idle_p99 * 1e3, 3),
            "stream_p50_ms": round(stream_p50 * 1e3, 3),
            "stream_p99_ms": round(stream_p99 * 1e3, 3),
            "final_idle_p50_ms": round(final_idle_p50 * 1e3, 3),
            "final_idle_p99_ms": round(final_idle_p99 * 1e3, 3),
            "p99_interference": (round(stream_p99 / final_idle_p99, 3)
                                 if final_idle_p99 else 0.0),
            "ingest_shapes": ingested["shapes"],
            "ingest_wall_s": round(stream_wall, 3),
            "ingest_rate_sps": (round(ingested["shapes"] / stream_wall, 1)
                                if stream_wall else 0.0),
            "backpressure_waits": ingest_stats["backpressure_waits"],
            "folds": ingest_stats["folds"],
            "pending_delta": ingest_stats["pending_delta"],
            "checkpoints": len(checkpoint_results),
            "checkpoint_mismatches": sum(checkpoint_results),
        }
        if ingest_stats.get("fold_ms"):
            row["fold_ms_p50"] = round(ingest_stats["fold_ms"]["p50"], 3)
        if execution == "process":
            sync = service.procpool.info()["sync"]
            row["sync"] = sync
            if sync["delta_rounds"]:
                row["delta_bytes_per_round"] = round(
                    sync["delta_bytes"] / sync["delta_rounds"])
            if sync["full_rounds"]:
                row["full_bytes_per_round"] = round(
                    sync["full_bytes"] / sync["full_rounds"])
        if kill_mid_stream:
            row["killed_worker"] = victim
            row["killed_pid"] = kill_state["pid"]
            row["degraded"] = degraded["n"]
            row["alive_workers"] = service.procpool.alive_workers()
            if kill_state["pid"] is None:
                failures.append(f"{mode}: chaos kill never landed")
        rows.append(row)
        if sum(checkpoint_results):
            failures.append(
                f"{mode}: {sum(checkpoint_results)} checkpoint "
                f"divergences from the rebuilt static base")
        service.close()
    return rows, escaped, failures
