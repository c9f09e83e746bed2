"""The four workloads: set-up, timed window, refereed answers.

Each workload drives one configuration of ``repro`` through its public
entry points only.  A timed window lasts ``--seconds`` *and* until the
scale's minimum answer count is reached, so the percentiles it reports
always have the samples they need; the load generator is this one
process with at most two client threads.
"""

from __future__ import annotations

import http.client
import itertools
import json
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro import Shape
from repro.ann import AnnConfig
from repro.service import (OK, Balancer, ReplicaSet, RetrievalService,
                           ServiceConfig, ServiceResult)
from repro.storage.persist import save_base

from . import oracle, procstat
from .inputs import K, PLANTED, Image, Inputs
from .stats import percentile

#: A window that cannot reach its minimum answer count within this
#: many times ``--seconds`` is reported as failed, not waited for.
OVERRUN = 6.0


@dataclass
class Sample:
    """One client-observed request."""

    key: int                     # index into the workload's sketch list
    start: float
    end: float
    answer: oracle.Answer
    ok: bool
    cached: bool = False

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass
class Window:
    """What a timed window produced."""

    samples: List[Sample]
    wall: float
    cpu: float                   # this process and all descendants
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class Verdict:
    recall: float
    correct: bool
    problems: List[str] = field(default_factory=list)


def answer_of(result: ServiceResult) -> oracle.Answer:
    return [(match.shape_id, match.distance) for match in result.matches]


def result_ok(result: ServiceResult) -> bool:
    return (result.status == OK and not result.degraded and
            not result.failed_shards)


def closed_loop(call: Callable[[int], Sample],
                streams: Sequence[Iterator[int]], seconds: float,
                min_total: int, lead_in: int = 0,
                stop: Optional[threading.Event] = None) -> Window:
    """One thread per stream, each sending its next request only after
    the previous answer arrived.

    Runs for ``seconds`` and until ``min_total`` answers were counted
    (or until ``stop`` is set, when one is given).  The first
    ``lead_in`` requests are sent but not measured.
    """
    samples: List[Sample] = []
    lock = threading.Lock()
    begin = threading.Event()
    state = {"sent": 0, "t0": 0.0, "deadline": 0.0}

    def finished() -> bool:
        if stop is not None:
            return stop.is_set()
        now = time.perf_counter()
        if now >= state["t0"] + OVERRUN * seconds:
            return True
        return now >= state["deadline"] and len(samples) >= min_total

    def client(stream: Iterator[int]) -> None:
        for key in stream:
            with lock:
                state["sent"] += 1
                measured = state["sent"] > lead_in
                if measured and not begin.is_set():
                    state["t0"] = time.perf_counter()
                    state["deadline"] = state["t0"] + seconds
                    state["pids"] = procstat.descendants()
                    state["cpu0"] = procstat.cpu_seconds(state["pids"])
                    begin.set()
            if measured and finished():
                return
            try:
                sample = call(key)
            except Exception:    # a failed request is a result, not a crash
                traceback.print_exc(file=sys.stderr)
                now = time.perf_counter()
                sample = Sample(key, now, now, [], ok=False)
            if measured:
                with lock:
                    samples.append(sample)

    threads = [threading.Thread(target=client, args=(stream,),
                                name=f"bench-client-{index}")
               for index, stream in enumerate(streams)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    cpu = procstat.cpu_seconds(state.get("pids", [])) - state.get("cpu0", 0.0)
    return Window(samples, end - state["t0"], cpu)


def cycle_from(keys: Sequence[int], offset: int, step: int) -> Iterator[int]:
    """``keys[offset::step]`` for ever — client ``offset`` of ``step``."""
    return itertools.cycle(keys[offset::step])


# ----------------------------------------------------------------------
class Workload:
    """Base of the four workloads; subclasses fill in the system."""

    name = ""
    clients = 1
    exact = True                 # answers must equal the referee's

    def __init__(self, inputs: Inputs, workdir: Path):
        self.inputs = inputs
        self.scale = inputs.scale
        self.workdir = workdir
        self.service: Optional[RetrievalService] = None
        self.sketches: List[Shape] = self.sketch_list()

    # -- the system under test ------------------------------------------
    def corpus(self) -> List[Image]:
        return self.inputs.images

    def sketch_list(self) -> List[Shape]:
        raise NotImplementedError

    def setup(self) -> None:
        """Generated inputs in memory -> first query admissible."""
        raise NotImplementedError

    def call(self, key: int) -> Sample:
        start = time.perf_counter()
        result = self.service.retrieve(self.sketches[key], k=K)
        return Sample(key, start, time.perf_counter(), answer_of(result),
                      result_ok(result), result.cached)

    def warm_up(self) -> None:
        for key in range(min(self.scale.warmup, len(self.sketches))):
            self.call(key)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    # -- the timed window -------------------------------------------------
    def streams(self) -> List[Iterator[int]]:
        keys = range(len(self.sketches))
        return [cycle_from(keys, client, self.clients)
                for client in range(self.clients)]

    def measure(self, seconds: float) -> Window:
        return closed_loop(self.call, self.streams(), seconds,
                           self.scale.min_timed)

    # -- the referee -------------------------------------------------------
    def check(self, window: Window) -> Verdict:
        """Compare every answer of the window with the referee's."""
        referee = oracle.Referee(oracle.reference_base(self.corpus()),
                                 self.sketches)
        problems: List[str] = []
        recalls: Dict[int, float] = {}
        judged: Dict[tuple, bool] = {}
        for sample in window.samples:
            if not sample.ok:
                continue
            seen = (sample.key, tuple(sample.answer))
            if seen in judged:
                continue
            truth = referee.truth(sample.key)
            judged[seen] = (oracle.same_answer(sample.answer, truth)
                            if self.exact else
                            oracle.distances_hold(
                                sample.answer, referee.copies(sample.key)))
            if not judged[seen]:
                problems.append(f"{self.name}: sketch {sample.key} answered "
                                f"{sample.answer}, referee {truth}")
            recalls.setdefault(sample.key,
                               oracle.recall(sample.answer, truth))
        recall = sum(recalls.values()) / len(recalls) if recalls else 0.0
        return Verdict(recall, correct=not problems and bool(recalls),
                       problems=problems[:5])


class ExactOneShard(Workload):
    name = "exact-1shard"
    config = ServiceConfig(num_shards=1, cache_capacity=0,
                           match_threshold=1.0)

    def sketch_list(self) -> List[Shape]:
        return [query.shape for query in self.inputs.exact]

    def setup(self) -> None:
        base = oracle.reference_base(self.corpus())
        self.service = RetrievalService.from_base(base, self.config)
        self.warm_up()


class ExactSharded(ExactOneShard):
    name = "exact-sharded"
    clients = 2
    #: The default fan-out (4 shards, 2 workers, threads), cache off.
    config = ServiceConfig(cache_capacity=0, match_threshold=1.0)

    def sketch_list(self) -> List[Shape]:
        return super().sketch_list()[:self.inputs.scale.sharded_queries]


class HttpHot(Workload):
    name = "http-hot"
    clients = 2
    exact = False

    def __init__(self, inputs: Inputs, workdir: Path):
        super().__init__(inputs, workdir)
        self.config = ServiceConfig(
            num_shards=2, cache_capacity=self.scale.cache_capacity,
            ann=AnnConfig(), ann_mode="always")
        self.fleet: Optional[ReplicaSet] = None
        self.balancer: Optional[Balancer] = None
        self.snapshot = workdir / "corpus.gsb"

    def sketch_list(self) -> List[Shape]:
        return self.inputs.hot_pool

    def setup(self) -> None:
        base = oracle.reference_base(self.corpus())
        save_base(base, self.snapshot, version=4,
                  hash_curves=self.config.hash_curves,
                  ann_sketch=self.config.ann.sketch)
        self.fleet = ReplicaSet(self.snapshot, replicas=2,
                                config=self.config).start()
        self.balancer = Balancer(self.fleet.endpoints())
        self.warm_up()

    def call(self, key: int) -> Sample:
        start = time.perf_counter()
        response = self.balancer.query(self.sketches[key], k=K)
        end = time.perf_counter()
        payload = response.payload
        answer = [(match["shape_id"], match["distance"])
                  for match in payload.get("matches", [])]
        ok = (response.status_code == 200 and payload.get("status") == OK
              and not payload.get("degraded"))
        return Sample(key, start, end, answer, ok,
                      bool(payload.get("cached")))

    def close(self) -> None:
        if self.balancer is not None:
            self.balancer.close()
            self.balancer = None
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None

    def streams(self) -> List[Iterator[int]]:
        # Long enough that no window reaches the end at ~1 ms a hit.
        return [iter(self.inputs.hot_ranks(client, 400_000).tolist())
                for client in range(self.clients)]

    def replica_stats(self) -> List[dict]:
        """Each replica's ``GET /stats`` document."""
        documents = []
        for host, port in self.fleet.endpoints():
            connection = http.client.HTTPConnection(host, port, timeout=30)
            try:
                connection.request("GET", "/stats")
                documents.append(json.loads(connection.getresponse().read()))
            finally:
                connection.close()
        return documents

    def measure(self, seconds: float) -> Window:
        # Fill both replicas' caches first: a cold cache would make the
        # hit ratio depend on how many requests the window fits.
        lead_in = 4 * self.scale.cache_capacity * 2
        before = self.replica_stats()
        window = closed_loop(self.call, self.streams(), seconds,
                             self.scale.min_timed, lead_in=lead_in)
        window.extra.update(stats_before=before,
                            stats_after=self.replica_stats(),
                            balancer=self.balancer.stats())
        return window


class StreamMixed(Workload):
    name = "stream-mixed"

    def __init__(self, inputs: Inputs, workdir: Path):
        super().__init__(inputs, workdir)
        # One worker process beside the writing process: one busy
        # process per core of the 2-core host.  With two shards on two
        # workers every read waits for the slower of two cores while
        # the writer competes with both, and read latency swung by more
        # between runs of one seed than any bound could hold.  The
        # worker attaches to shard publications written under the run's
        # own directory, so nothing is left in shared memory.
        self.config = ServiceConfig(
            num_shards=1, cache_capacity=0, match_threshold=1.0,
            execution="process", processes=1, streaming=True,
            snapshot_dir=str(workdir / "publish"))
        self.ingested: List[Image] = []
        self.reads = 0           # answers the reader has seen so far

    def corpus(self) -> List[Image]:
        return self.inputs.stream_base + self.ingested

    def sketch_list(self) -> List[Shape]:
        return [query.shape for query in self.inputs.exact
                if query.kind == PLANTED]

    def setup(self) -> None:
        self.ingested = []
        base = oracle.reference_base(self.inputs.stream_base)
        self.service = RetrievalService.from_base(base, self.config)
        self.warm_up()

    def call(self, key: int) -> Sample:
        sample = super().call(key)
        self.reads += 1
        return sample

    def ingest(self, image: Image) -> None:
        image_id, shapes = image
        self.service.ingest(shapes, image_id)
        self.ingested.append(image)

    def measure(self, seconds: float) -> Window:
        """One writer on a fixed schedule beside one closed-loop reader.

        The writer is open loop: ``stream_ingests`` images are spread
        evenly over the window, image ``i`` is due at ``i * interval``
        whatever happened to image ``i - 1``, and each call is timed
        from when it was due.  The corpus a window ends on is therefore
        the same on every run of a seed.  Only a reader that has not
        reached its minimum sample by then keeps the writer going.
        """
        interval = seconds / self.scale.stream_ingests
        done = threading.Event()
        reads: List[Window] = []
        calls: List[float] = []
        lags: List[float] = []
        failed = 0

        def reader() -> None:
            reads.append(closed_loop(self.call, self.streams(), seconds,
                                     0, stop=done))

        self.reads = 0
        thread = threading.Thread(target=reader, name="bench-reader")
        thread.start()
        start = time.perf_counter()
        try:
            for index in itertools.count():
                due = start + index * interval
                if index >= OVERRUN * self.scale.stream_ingests or \
                        (index >= self.scale.stream_ingests and
                         self.reads >= self.scale.min_timed):
                    break
                image = self.inputs.stream_image(index)
                time.sleep(max(0.0, due - time.perf_counter()))
                began = time.perf_counter()
                try:
                    self.ingest(image)
                except Exception:    # counted as a failed operation
                    traceback.print_exc(file=sys.stderr)
                    failed += 1
                    continue
                calls.append((time.perf_counter() - due) * 1e3)
                lags.append((began - due) * 1e3)
        finally:
            done.set()
            thread.join()
        window = reads[0]
        window.extra.update(ingest_ms=calls, lag_ms=lags,
                            ingest_failed=failed)
        return window

    def check(self, window: Window) -> Verdict:
        """Referee the quiesced checkpoint: the live service against a
        brute-force pass over everything that was ingested."""
        began = time.perf_counter()
        folds = self.service.quiesce_ingest()
        window.extra.update(quiesce_s=time.perf_counter() - began,
                            quiesce_folds=folds)
        keys = range(min(self.scale.checkpoint_queries,
                         len(self.sketches)))
        checkpoint = Window([self.call(key) for key in keys], 0.0, 0.0)
        window.extra["checkpoint"] = checkpoint.samples
        verdict = super().check(checkpoint)
        if window.extra["ingest_failed"]:
            verdict.correct = False
            verdict.problems.append(
                f"{window.extra['ingest_failed']} ingest calls raised")
        return verdict


WORKLOADS = {cls.name: cls for cls in (ExactOneShard, ExactSharded,
                                       HttpHot, StreamMixed)}


# ----------------------------------------------------------------------
@dataclass
class EndToEnd:
    """One untraced run: the end-to-end metrics and the verdict."""

    workload: str
    metrics: Dict[str, float]
    samples: Dict[str, int]      # sample count behind each percentile
    correct: bool
    attempted: int
    failed: int
    problems: List[str]
    window: Window


def run_end_to_end(name: str, inputs: Inputs, seconds: float,
                   workdir: Path) -> EndToEnd:
    """Set up ``setup_reps`` times, measure one window, referee it."""
    scale = inputs.scale
    workload = WORKLOADS[name](inputs, workdir)
    setups: List[float] = []
    try:
        for _ in range(scale.setup_reps):
            workload.close()
            began = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - began)
        window = workload.measure(seconds)
        rss = procstat.peak_rss_mb(procstat.descendants())
        verdict = workload.check(window)
    finally:
        workload.close()
    samples = window.samples
    latencies = [sample.ms for sample in samples]
    answered = [sample for sample in samples if sample.ok]
    failed = len(samples) - len(answered) + \
        int(window.extra.get("ingest_failed", 0))
    attempted = len(samples) + len(window.extra.get("ingest_ms", [])) + \
        int(window.extra.get("ingest_failed", 0))
    p50 = percentile(latencies, 50.0)
    p90 = percentile(latencies, 90.0, scale.min_tail)
    metrics = {
        "setup_s": percentile(setups, 50.0).value,
        "query_p50_ms": p50.value,
        "query_p90_ms": p90.value,
        "throughput_qps": len(answered) / window.wall,
        "cpu_s_per_query": window.cpu / len(samples),
        "recall_at_k": verdict.recall,
        "peak_rss_mb": rss,
    }
    return EndToEnd(name, metrics,
                    {"query_p50_ms": p50.samples, "query_p90_ms": p90.samples},
                    correct=verdict.correct and failed == 0,
                    attempted=attempted, failed=failed,
                    problems=verdict.problems, window=window)
