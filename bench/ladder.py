"""The traced run: one workload's queries timed at each layer in turn.

``repro`` has no spans of its own yet, so a layer's cost is measured
from outside: the same sketch goes through a ladder of public entry
points, each wrapping the one before — referee, matcher, 1-shard
service, 4-shard service, process pool, HTTP replica, balancer — and
every call is one span.  A rung's *added* cost is the median of the
per-query differences to the rung it wraps.  Each workload climbs the
rungs its own requests cross; a layer it never reaches reports zero
there.

Work counters are summed over the first ``count_prefix`` queries only,
which every run completes whatever the machine's speed, so they repeat
exactly for a seed.
"""

from __future__ import annotations

import http.client
import itertools
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

from repro import GeometricSimilarityMatcher, MatchStats, Shape
from repro.ann import AnnConfig, compute_entry_sketches
from repro.geometry.envelope import band_cover_triangles
from repro.geometry.io import shape_to_dict
from repro.hashing import ApproximateRetriever
from repro.rangesearch import make_index
from repro.service import (Balancer, HttpRetrievalServer, ReplicaSet,
                           RetrievalService, ServiceConfig)
from repro.storage.persist import load_base, save_base

from . import oracle
from .inputs import FOREIGN, K, PLANTED, Inputs
from .spans import Span, Tracer
from .stats import median, paired_median, percentile
from .workloads import (ExactOneShard, ExactSharded, HttpHot, Sample,
                        StreamMixed, answer_of, result_ok)

#: What a rung returns: the answer and what else its span should carry.
RungCall = Callable[[Shape], Tuple[oracle.Answer, dict]]

STAGES = ("normalize", "range_search", "filter", "exact_measures")
COUNTERS = ("iterations", "triangles_queried", "vertices_reported",
            "vertices_processed", "candidates_evaluated")


@dataclass
class Traced:
    """One traced run: the per-layer metrics it measured and its spans."""

    workload: str
    metrics: Dict[str, float]
    correct: bool
    attempted: int
    failed: int
    problems: List[str]
    tracer: Tracer


def timed(call: Callable[[], object], repeats: int = 1
          ) -> Tuple[float, object]:
    """Median seconds of ``repeats`` calls, and the last call's value."""
    taken = []
    for _ in range(repeats):
        began = time.perf_counter()
        value = call()
        taken.append(time.perf_counter() - began)
    return median(taken), value


def climb(tracer: Tracer, rungs: List[Tuple[str, RungCall]],
          sketches: List[Shape], keys: Iterator[int], seconds: float,
          min_queries: int, crossover: Tuple[str, ...] = ()) -> int:
    """Send each sketch through every rung in turn, one span per call.

    Stops after ``seconds``, but never before ``min_queries`` sketches
    have climbed the whole ladder.  Returns how many did.

    Whichever of two rungs in one process runs second finds the
    sketch's data warm, which would read as a negative added cost; the
    two rungs named in ``crossover`` therefore trade places on every
    odd request, and the median of their paired differences sees both
    orders equally often.
    """
    swapped = list(rungs)
    if crossover:
        first, second = (index for index, (name, _) in enumerate(rungs)
                         if name in crossover)
        swapped[first], swapped[second] = rungs[second], rungs[first]
    began = time.perf_counter()
    climbed = 0
    for request_id, key in enumerate(keys):
        if request_id >= min_queries and \
                time.perf_counter() - began >= seconds:
            break
        for name, call in (swapped if request_id % 2 else rungs):
            with tracer.span(name, request_id) as span:
                answer, attrs = call(sketches[key])
            span.attrs.update(attrs, key=key, answer=answer)
        climbed += 1
    return climbed


def stats_attrs(stats: MatchStats) -> dict:
    """The matcher's work counters and stage timings, as span fields."""
    return {**{counter: getattr(stats, counter) for counter in COUNTERS},
            "guaranteed": stats.guaranteed,
            "epsilons": list(stats.epsilons),
            "timings_ms": {stage: seconds * 1e3
                           for stage, seconds in stats.timings.items()}}


def rung_spans(tracer: Tracer, name: str) -> Dict[int, Span]:
    return {span.request_id: span for span in tracer.named(name)}


def paired(tracer: Tracer, outer: str, inner: str
           ) -> Tuple[List[Span], List[Span]]:
    """The two rungs' spans for the requests both answered."""
    outer_spans, inner_spans = rung_spans(tracer, outer), \
        rung_spans(tracer, inner)
    shared = sorted(outer_spans.keys() & inner_spans.keys())
    return ([outer_spans[r] for r in shared],
            [inner_spans[r] for r in shared])


def added_ms(tracer: Tracer, outer: str, inner: str) -> float:
    outer_spans, inner_spans = paired(tracer, outer, inner)
    return paired_median([s.ms for s in outer_spans],
                         [s.ms for s in inner_spans])


def ratio(tracer: Tracer, outer: str, inner: str) -> float:
    """Median of the per-query latency ratios ``outer / inner``."""
    outer_spans, inner_spans = paired(tracer, outer, inner)
    return median([a.ms / b.ms for a, b in zip(outer_spans, inner_spans)])


def prefix_sum(tracer: Tracer, name: str, counter: str, prefix: int) -> int:
    return sum(span.attrs[counter] for span in tracer.named(name)
               if span.request_id < prefix)


def service_rung(service: RetrievalService, **kwargs) -> RungCall:
    def call(sketch: Shape):
        result = service.retrieve(sketch, k=K, **kwargs)
        if not result_ok(result) and not kwargs:
            raise RuntimeError(f"service answered {result.status}, "
                               f"failed shards {result.failed_shards}")
        return answer_of(result), {**stats_attrs(result.stats),
                                   "cached": result.cached}
    return call


def post_query(endpoint: Tuple[str, int], sketch: Shape) -> dict:
    """``POST /query`` on a fresh connection, as the balancer does."""
    connection = http.client.HTTPConnection(*endpoint, timeout=30)
    try:
        connection.request(
            "POST", "/query",
            body=json.dumps({"sketch": shape_to_dict(sketch), "k": K}),
            headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {payload}")
        return payload
    finally:
        connection.close()


def payload_answer(payload: dict) -> oracle.Answer:
    return [(match["shape_id"], match["distance"])
            for match in payload["matches"]]


class Judge:
    """Compares rung answers with the referee's, once per sketch."""

    def __init__(self, referee: oracle.Referee):
        self.referee = referee
        self.problems: List[str] = []

    def exact(self, tracer: Tracer, *names: str) -> None:
        """Every span of these rungs must carry the referee's answer."""
        for name in names:
            for span in tracer.named(name):
                truth = self.referee.truth(span.attrs["key"])
                if not oracle.same_answer(span.attrs["answer"], truth):
                    self.problems.append(
                        f"{name}: sketch {span.attrs['key']} answered "
                        f"{span.attrs['answer']}, referee {truth}")

    def distances(self, tracer: Tracer, *names: str) -> None:
        """A pruned rung may miss a shape, never misstate a distance."""
        for name in names:
            for span in tracer.named(name):
                key, answer = span.attrs["key"], span.attrs["answer"]
                if not oracle.distances_hold(answer,
                                              self.referee.copies(key)):
                    self.problems.append(
                        f"{name}: sketch {key} answered {answer} with a "
                        f"distance no copy of that shape has")

    def recall(self, tracer: Tracer, name: str) -> float:
        """Mean recall of one approximate rung over its distinct sketches."""
        recalls: Dict[int, float] = {}
        for span in tracer.named(name):
            key, answer = span.attrs["key"], span.attrs["answer"]
            recalls.setdefault(key, oracle.recall(answer,
                                                 self.referee.truth(key)))
        return sum(recalls.values()) / len(recalls) if recalls else 0.0


# ----------------------------------------------------------------------
def ladder_matcher(inputs: Inputs, seconds: float, workdir: Path,
                   tracer: Tracer) -> Traced:
    """``exact-1shard``: referee -> matcher -> 1-shard service, plus a
    replay of the matcher's two geometric stages on their own."""
    scale = inputs.scale
    workload = ExactOneShard(inputs, workdir)
    sketches = workload.sketches
    kinds = [query.kind for query in inputs.exact]
    metrics: Dict[str, float] = {}

    build_s, base = timed(lambda: oracle.reference_base(inputs.images))
    metrics["core.shapebase.build_s"] = build_s
    metrics["core.shapebase.entries"] = base.num_entries
    metrics["core.shapebase.copies_per_shape"] = \
        base.num_entries / base.num_shapes
    points = base.vertex_points
    metrics["rangesearch.kdtree.build_s"], _ = timed(
        lambda: make_index(points, "kdtree"))
    metrics["hashing.build_s"], _ = timed(
        lambda: ApproximateRetriever(
            oracle.reference_base(inputs.images),
            k_curves=workload.config.hash_curves))

    referee = oracle.Referee(base, sketches)
    matcher = GeometricSimilarityMatcher(base, beta=workload.config.beta)
    index = base.reader_view()[0]
    untraced = Tracer(enabled=False)
    state = {"epsilons": []}

    def matcher_rung(sketch: Shape):
        matches, stats = matcher.query(sketch, k=K)
        state["epsilons"] = list(stats.epsilons)
        return [(m.shape_id, m.distance) for m in matches], \
            stats_attrs(stats)

    def replay_rung(sketch: Shape):
        """The matcher's envelope and range-search stages alone, over
        the widths the matcher itself just used for this sketch."""
        normalized = matcher.normalize_query(sketch)
        cover = report = 0.0
        triangles = reported = 0
        inner = 0.0
        for outer in state["epsilons"]:
            began = time.perf_counter()
            band = band_cover_triangles(normalized, inner, outer,
                                        matcher.cap_sectors)
            middle = time.perf_counter()
            ids = index.report_triangles(band)
            report += time.perf_counter() - middle
            cover += middle - began
            triangles += len(band)
            reported += int(ids.size)
            inner = outer
        return [], {"cover_ms": cover * 1e3, "report_ms": report * 1e3,
                    "triangles": triangles, "reported": reported}

    with RetrievalService.from_base(base, workload.config) as service:
        traced_service = service_rung(service)

        def untraced_rung(sketch: Shape):
            with untraced.span("service.service", 0) as span:
                answer, _ = traced_service(sketch)
            return answer, {"untraced_ms": span.ms}

        for sketch in sketches[:scale.warmup]:
            traced_service(sketch)
            matcher.query(sketch, k=K)
        climbed = climb(
            tracer,
            [("oracle", lambda s: (referee.top_k(s, K), {})),
             ("core.matcher", matcher_rung),
             ("stage-replay", replay_rung),
             ("service.service.untraced", untraced_rung),
             ("service.service", traced_service)],
            sketches, itertools.cycle(range(len(sketches))), seconds,
            scale.count_prefix,
            crossover=("service.service.untraced", "service.service"))

    judge = Judge(referee)
    judge.exact(tracer, "core.matcher", "service.service",
                "service.service.untraced")
    matcher_spans = tracer.named("core.matcher")
    metrics["oracle.brute_ms"] = median(
        [span.ms for span in tracer.named("oracle")])
    for kind in (PLANTED, FOREIGN):
        spans = [span for span in matcher_spans
                 if kinds[span.attrs["key"]] == kind]
        metrics[f"core.matcher.{kind}.query_ms"] = median(
            [span.ms for span in spans])
        for stage in STAGES:
            metrics[f"core.matcher.{kind}.{stage}_ms"] = median(
                [span.attrs["timings_ms"].get(stage, 0.0)
                 for span in spans])
    metrics["core.matcher.stage_coverage"] = median(
        [sum(span.attrs["timings_ms"].values()) / span.ms
         for span in matcher_spans])
    prefix = scale.count_prefix
    for counter in COUNTERS:
        metrics[f"core.matcher.{counter}"] = prefix_sum(
            tracer, "core.matcher", counter, prefix)
    metrics["core.matcher.guaranteed_share"] = sum(
        span.attrs["guaranteed"] for span in matcher_spans
        if span.request_id < prefix) / prefix
    metrics["core.matcher.useful_vertex_ratio"] = (
        metrics["core.matcher.vertices_processed"] /
        metrics["core.matcher.vertices_reported"])
    replays = tracer.named("stage-replay")
    metrics["geometry.envelope.cover_ms"] = median(
        [span.attrs["cover_ms"] for span in replays])
    metrics["geometry.envelope.triangles"] = prefix_sum(
        tracer, "stage-replay", "triangles", prefix)
    metrics["rangesearch.kdtree.report_ms"] = median(
        [span.attrs["report_ms"] for span in replays])
    metrics["rangesearch.kdtree.reported_per_triangle"] = (
        prefix_sum(tracer, "stage-replay", "reported", prefix) /
        metrics["geometry.envelope.triangles"])
    metrics["service.service.added_ms"] = added_ms(
        tracer, "service.service", "core.matcher")
    traced, plain = paired(tracer, "service.service",
                           "service.service.untraced")
    metrics["trace.overhead_share"] = median(
        [a.ms / b.attrs["untraced_ms"] for a, b in zip(traced, plain)]) - 1
    return Traced(workload.name, metrics, not judge.problems, climbed, 0,
                  judge.problems[:5], tracer)


# ----------------------------------------------------------------------
def ladder_fanout(inputs: Inputs, seconds: float, workdir: Path,
                  tracer: Tracer) -> Traced:
    """``exact-sharded``: 1 shard -> 4 shards on threads -> 4 shards on
    two worker processes, same sketches, same answers."""
    scale = inputs.scale
    workload = ExactSharded(inputs, workdir)
    sketches = workload.sketches
    base = oracle.reference_base(inputs.images)
    process_config = ServiceConfig(
        cache_capacity=0, match_threshold=1.0, execution="process",
        processes=2, snapshot_dir=str(workdir / "publish"))
    metrics: Dict[str, float] = {}
    with RetrievalService.from_base(base, ExactOneShard.config) as one, \
            RetrievalService.from_base(base, workload.config) as threads:
        # The base's signature cache is warm by now, so what is left of
        # this build is starting the workers, publishing the shards and
        # attaching to them.
        attach_s, processes = timed(
            lambda: RetrievalService.from_base(base, process_config))
        metrics["service.procpool.attach_s"] = attach_s
        with processes:
            rungs = [("service.service", service_rung(one)),
                     ("service.shards", service_rung(threads)),
                     ("service.procpool", service_rung(processes))]
            for sketch in sketches[:scale.warmup]:
                for _, call in rungs:
                    call(sketch)
            climbed = climb(tracer, rungs, sketches,
                            itertools.cycle(range(len(sketches))), seconds,
                            scale.count_prefix)

    judge = Judge(oracle.Referee(base, sketches))
    judge.exact(tracer, *(name for name, _ in rungs))
    metrics["service.shards.fanout_added_ms"] = added_ms(
        tracer, "service.shards", "service.service")
    fan, single = paired(tracer, "service.shards", "service.service")
    fan_cpu = sum(span.cpu for span in fan)
    metrics["service.shards.cpu_ratio"] = fan_cpu / \
        sum(span.cpu for span in single)
    prefix = scale.count_prefix
    metrics["service.shards.work_amplification"] = (
        prefix_sum(tracer, "service.shards", "triangles_queried", prefix) /
        prefix_sum(tracer, "service.service", "triangles_queried", prefix))
    metrics["service.shards.candidate_amplification"] = (
        prefix_sum(tracer, "service.shards", "candidates_evaluated",
                   prefix) /
        prefix_sum(tracer, "service.service", "candidates_evaluated",
                   prefix))
    metrics["service.pool.cpu_utilization"] = fan_cpu / (
        sum(span.ms for span in fan) / 1e3 * workload.config.workers)
    metrics["service.procpool.query_ms"] = median(
        [span.ms for span in tracer.named("service.procpool")])
    metrics["service.procpool.vs_thread_ratio"] = ratio(
        tracer, "service.procpool", "service.shards")
    return Traced(workload.name, metrics, not judge.problems, climbed, 0,
                  judge.problems[:5], tracer)


# ----------------------------------------------------------------------
def spanned(tracer: Tracer, name: str,
            call: Callable[[int], Sample]) -> Callable[[int], Sample]:
    """``call`` with each request wrapped in a span."""
    counter = itertools.count()

    def traced_call(key: int) -> Sample:
        with tracer.span(name, next(counter)) as span:
            sample = call(key)
        span.attrs.update(key=key, ok=sample.ok, cached=sample.cached)
        return sample
    return traced_call


def counter_delta(before: List[dict], after: List[dict], name: str) -> int:
    return sum(b["counters"].get(name, 0) for b in after) - \
        sum(a["counters"].get(name, 0) for a in before)


def ladder_http(inputs: Inputs, seconds: float, workdir: Path,
                tracer: Tracer) -> Traced:
    """``http-hot``: half the time the workload itself under spans (the
    cache's hit ratio only means something on its own traffic), half
    the time its request stream through pruned service -> HTTP replica
    -> balancer, with the exact, cached and hash tiers beside them."""
    scale = inputs.scale
    workload = HttpHot(inputs, workdir)
    sketches = workload.sketches
    metrics: Dict[str, float] = {}

    # -- storage and sketch build, timed on their own --------------------
    fresh = oracle.reference_base(inputs.images)
    metrics["ann.sketch_build_s"], _ = timed(
        lambda: compute_entry_sketches(fresh, workload.config.ann.sketch))
    metrics["storage.persist.save_s"], size = timed(
        lambda: save_base(fresh, workload.snapshot, version=4,
                          hash_curves=workload.config.hash_curves,
                          ann_sketch=workload.config.ann.sketch))
    metrics["storage.persist.snapshot_bytes"] = size
    metrics["storage.persist.bytes_per_entry"] = size / fresh.num_entries
    # A load takes milliseconds, and the first one pays for imports.
    metrics["storage.persist.load_eager_s"], _ = timed(
        lambda: load_base(workload.snapshot, mmap=False), repeats=5)
    metrics["storage.persist.load_mmap_s"], base = timed(
        lambda: load_base(workload.snapshot, mmap=True), repeats=5)

    # -- the workload's own traffic --------------------------------------
    try:
        workload.setup()
        metrics["service.http.fleet_start_s"], _ = timed(
            lambda: ReplicaSet(workload.snapshot, replicas=1,
                               config=workload.config).start().stop())
        workload.call = spanned(tracer, "http-hot.request", workload.call)
        window = workload.measure(seconds / 2)
    finally:
        workload.close()
    verdict = workload.check(window)
    before, after = window.extra["stats_before"], window.extra["stats_after"]
    metrics["service.cache.hit_ratio"] = (
        counter_delta(before, after, "queries.cache_hits") /
        counter_delta(before, after, "queries.total"))
    metrics["service.cache.hit_ms"] = median(
        [s.ms for s in window.samples if s.cached])
    metrics["service.cache.miss_ms"] = median(
        [s.ms for s in window.samples if not s.cached])
    balancer_counters = window.extra["balancer"]["counters"]
    metrics["service.http.balancer_retries"] = \
        balancer_counters.get("balancer.retries", 0)
    metrics["service.http.shed"] = \
        counter_delta(before, after, "http.shed_overload") + \
        counter_delta(before, after, "http.shed_deadline")

    # -- the ladder --------------------------------------------------------
    # The HTTP rungs wrap the workload's own pruned service: the 2-3 ms
    # a hop adds would be lost in the run-to-run noise of a 50 ms exact
    # query, and an exact query is not what this workload's requests run.
    exact = ServiceConfig(num_shards=1, cache_capacity=0,
                          match_threshold=1.0)
    ann = ServiceConfig(num_shards=1, cache_capacity=0, ann=AnnConfig(),
                        ann_mode="always")
    cached = replace(ann, cache_capacity=scale.cache_capacity)
    # With an ANN tier configured and a budget below ``ann_hash_budget``
    # the service sends a query straight to the hash tier.
    tiered = replace(ann, ann_mode="auto")

    with RetrievalService.from_base(base, exact) as direct, \
            RetrievalService.from_base(base, ann) as pruned, \
            RetrievalService.from_base(base, cached) as with_cache, \
            RetrievalService.from_base(base, tiered) as hashed, \
            HttpRetrievalServer(pruned).start() as server, \
            ReplicaSet(workload.snapshot, replicas=1,
                       config=ann).start() as fleet, \
            Balancer(fleet.endpoints()) as balancer:
        replica = fleet.endpoints()[0]

        def balancer_rung(sketch: Shape):
            response = balancer.query(sketch, k=K)
            if response.status_code != 200:
                raise RuntimeError(f"balancer answered {response.payload}")
            return payload_answer(response.payload), {}

        rungs = [
            ("service.service", service_rung(direct)),
            ("ann", service_rung(pruned)),
            ("service.cache", service_rung(with_cache)),
            ("service.http.replica", lambda s: (
                payload_answer(post_query(server.address, s)), {})),
            ("service.http.post", lambda s: (
                payload_answer(post_query(replica, s)), {})),
            ("service.http.balancer", balancer_rung),
            ("hashing", service_rung(hashed, deadline=1e-4)),
        ]
        for key in range(scale.warmup):
            for _, call in rungs:
                call(sketches[key])
        climbed = climb(tracer, rungs, sketches,
                        iter(inputs.hot_ranks(9, 100_000).tolist()),
                        seconds / 2, scale.count_prefix,
                        crossover=("service.http.post",
                                   "service.http.balancer"))

    judge = Judge(oracle.Referee(base, sketches))
    judge.exact(tracer, "service.service")
    approximate = [name for name, _ in rungs if name != "service.service"]
    judge.distances(tracer, *approximate)
    metrics["service.http.replica_added_ms"] = added_ms(
        tracer, "service.http.replica", "ann")
    metrics["service.http.balancer_added_ms"] = added_ms(
        tracer, "service.http.balancer", "service.http.post")
    by_rung = {name: rung_spans(tracer, name) for name, _ in rungs}
    # What one hit saves: the requests the cache answered, against the
    # same requests computed.
    hits = [r for r, span in by_rung["service.cache"].items()
            if span.attrs["cached"]]
    metrics["service.cache.saved_ms"] = median(
        [by_rung["ann"][r].ms - by_rung["service.cache"][r].ms
         for r in hits])
    metrics["ann.query_ms"] = median(
        [span.ms for span in tracer.named("ann")])
    metrics["ann.candidates_per_query"] = prefix_sum(
        tracer, "ann", "candidates_evaluated",
        scale.count_prefix) / scale.count_prefix
    metrics["ann.recall_at_k"] = judge.recall(tracer, "ann")
    metrics["ann.speedup_vs_exact"] = ratio(tracer, "service.service",
                                            "ann")
    metrics["hashing.query_ms"] = median(
        [span.ms for span in tracer.named("hashing")])
    metrics["hashing.recall_at_k"] = judge.recall(tracer, "hashing")
    metrics["ann.stage_coverage"] = median(
        [sum(span.attrs["timings_ms"].values()) / span.ms
         for span in tracer.named("ann")])
    # How much of what the balancer's client waits for the rungs below
    # explain: the pruned service call, then each hop's added cost.
    shares = []
    for request_id, top in by_rung["service.http.balancer"].items():
        ms = {name: spans[request_id].ms for name, spans in by_rung.items()}
        shares.append((ms["ann"] +
                       ms["service.http.replica"] - ms["ann"] +
                       ms["service.http.balancer"] - ms["service.http.post"])
                      / top.ms)
    metrics["trace.attribution_share"] = median(shares)
    problems = verdict.problems + judge.problems
    failed = sum(not sample.ok for sample in window.samples)
    return Traced(workload.name, metrics,
                  verdict.correct and not judge.problems and not failed,
                  len(window.samples) + climbed, failed, problems[:5],
                  tracer)


# ----------------------------------------------------------------------
def ladder_stream(inputs: Inputs, seconds: float, workdir: Path,
                  tracer: Tracer) -> Traced:
    """``stream-mixed`` under spans, then what only a traced run pays
    for: the same checkpoint answered by a service rebuilt from
    scratch, and the write path's own counters."""
    scale = inputs.scale
    workload = StreamMixed(inputs, workdir)
    try:
        workload.setup()
        workload.call = spanned(tracer, "stream-mixed.read", workload.call)
        ingest = workload.ingest
        ids = itertools.count()

        def traced_ingest(image) -> None:
            with tracer.span("service.ingest", next(ids)) as span:
                ingest(image)
            span.attrs["image_id"] = image[0]
        workload.ingest = traced_ingest
        window = workload.measure(seconds)
        verdict = workload.check(window)
        snapshot = workload.service.snapshot()
    finally:
        workload.close()
    idle: List[Sample] = window.extra["checkpoint"]
    with RetrievalService.from_base(
            oracle.reference_base(workload.corpus()),
            ExactOneShard.config) as rebuilt:
        mismatches = sum(
            not oracle.same_answer(
                sample.answer,
                answer_of(rebuilt.retrieve(workload.sketches[sample.key],
                                           k=K)))
            for sample in idle)
    calls = window.extra["ingest_ms"]
    ingest_stats = snapshot["ingest"]
    sync = snapshot["procpool"]["sync"]
    reads = [sample.ms for sample in window.samples]
    metrics = {
        "service.ingest.call_p50_ms": percentile(calls, 50.0).value,
        "service.ingest.call_p80_ms":
            percentile(calls, 80.0, scale.min_tail).value,
        "service.ingest.folds": ingest_stats["folds"],
        "service.ingest.fold_ms_p50":
            (ingest_stats["fold_ms"] or {}).get("p50", 0.0),
        "service.ingest.backpressure_waits":
            ingest_stats["backpressure_waits"],
        "service.ingest.pending_delta_end": ingest_stats["pending_delta"],
        "service.ingest.quiesce_s": window.extra["quiesce_s"],
        "service.ingest.read_slowdown":
            median(reads) / median([sample.ms for sample in idle]),
        "service.ingest.checkpoint_mismatches": mismatches,
        "service.ingest.generator_lag_ms": median(window.extra["lag_ms"]),
        "service.procpool.full_publish_bytes": sync["full_bytes"],
        "service.procpool.full_rounds": sync["full_rounds"],
        "service.procpool.delta_rounds": sync["delta_rounds"],
        "service.procpool.delta_bytes_per_round":
            sync["delta_bytes"] / max(1, sync["delta_rounds"]),
    }
    failed = sum(not sample.ok for sample in window.samples) + \
        window.extra["ingest_failed"]
    problems = list(verdict.problems)
    if mismatches:
        problems.append(f"{mismatches} checkpoint answers differ from a "
                        f"service rebuilt from scratch")
    return Traced(workload.name, metrics,
                  verdict.correct and not mismatches and not failed,
                  len(window.samples) + len(calls) + failed, failed,
                  problems[:5], tracer)


LADDERS = {"exact-1shard": ladder_matcher, "exact-sharded": ladder_fanout,
           "http-hot": ladder_http, "stream-mixed": ladder_stream}


def run_traced(name: str, inputs: Inputs, seconds: float,
               workdir: Path) -> Traced:
    return LADDERS[name](inputs, seconds, workdir, Tracer())
