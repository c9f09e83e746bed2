"""Command-line interface: build, inspect and query shape bases.

Usage (``python -m repro ...``)::

    repro demo                                   # synthetic walkthrough
    repro build  --images imgs.json --out b.gsir [--alpha 0.1]
                 [--snapshot out.gsb] [--sign-curves 50] [--ann]
    repro stats  --base b.gsir
    repro query  --base b.gsir --sketch sk.json [-k 3] [--threshold T]
                 [--json] [--profile] [--ann]
    repro serve-bench [--workers 1,2,4] [--processes 2,4] [--shards 4]
                      [--no-cache] [--batch N] [--profile]
                      [--snapshot b.gsb] [--mmap]
                      [--ann] [--ann-mode auto|always]
                      [--http] [--replicas N] [--chaos SEED]
    repro serve  --http [--port 8787] [--replicas 2]
                 [--snapshot b.gsb | --images N]

``--ann`` flags select the polygon-LSH approximate tier
(:mod:`repro.ann`): ``build --ann`` embeds MinHash sketches in a v4
snapshot, ``query --ann`` answers from the LSH candidate set only, and
``serve-bench --ann`` serves the three-rung degradation ladder with
per-tier counters.

``imgs.json`` / ``sk.json`` use the format of
:mod:`repro.geometry.io`; a query sketch file should contain exactly
one shape (extra shapes are ignored with a warning).  ``serve-bench``
drives the :mod:`repro.service` tier with a closed-loop load generator
and reports throughput, latency percentiles and the service metrics.
``--processes N[,N...]`` adds process-execution sweeps: shard workers
run as separate processes attached zero-copy to published snapshots
(mmap'd files or shared memory), sidestepping the GIL; the run ends
with a thread-vs-process answer verification pass, and ``--chaos``
SIGKILLs one worker mid-bench to prove degraded-not-failed service.

``serve`` mounts the HTTP/JSON network tier
(:mod:`repro.service.http`): N replica processes warmed from one
snapshot behind a health-checking balancer on a single port.
``serve-bench --http`` drives the same fleet with a closed-loop
client fleet over the wire; ``--chaos`` there SIGKILLs a whole
replica (and, with ``--processes``, one worker inside a surviving
replica) mid-bench and fails unless every client response completes
``ok`` or ``degraded``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, Optional

from .core.matcher import GeometricSimilarityMatcher
from .core.shapebase import ShapeBase
from .geometry.io import load_images, load_shapes
from .storage.persist import load_base, save_base


def _ann_config(args: argparse.Namespace):
    """The :class:`repro.ann.AnnConfig` the ``--ann-*`` flags describe."""
    from .ann import AnnConfig
    return AnnConfig(tables=args.ann_tables, band_width=args.ann_band,
                     candidate_cap=args.ann_cap, grid=args.ann_grid,
                     seed=args.ann_seed)


def _add_ann_args(parser: argparse.ArgumentParser, ann_help: str) -> None:
    """The shared ``--ann`` flag family (build / query / serve-bench)."""
    group = parser.add_argument_group("approximate (LSH) tier")
    group.add_argument("--ann", action="store_true", help=ann_help)
    group.add_argument("--ann-tables", type=int, default=16,
                       dest="ann_tables",
                       help="LSH tables (default 16)")
    group.add_argument("--ann-band", type=int, default=2, dest="ann_band",
                       help="MinHash rows per LSH band (default 2)")
    group.add_argument("--ann-grid", type=int, default=32, dest="ann_grid",
                       help="area-grid resolution per axis (default 32)")
    group.add_argument("--ann-seed", type=int, default=0, dest="ann_seed",
                       help="MinHash family seed (default 0)")
    group.add_argument("--ann-cap", type=int, default=512, dest="ann_cap",
                       help="candidate-set cap per query (default 512)")


def _cmd_build(args: argparse.Namespace) -> int:
    import time

    if args.out is None and args.snapshot is None:
        print("error: build needs --out and/or --snapshot",
              file=sys.stderr)
        return 2
    ann_sketch = _ann_config(args).sketch if args.ann else None
    base = ShapeBase(alpha=args.alpha)
    images = load_images(args.images)
    all_shapes = []
    all_images = []
    next_id = 0
    for image_id, shapes in images:
        if image_id is None:
            image_id = next_id
        next_id = max(next_id, image_id + 1)
        all_shapes.extend(shapes)
        all_images.extend([image_id] * len(shapes))
    start = time.perf_counter()
    if all_shapes:
        base.add_shapes(all_shapes, image_ids=all_images)
    ingest_s = time.perf_counter() - start
    print(f"built base: {base.num_shapes} shapes over "
          f"{base.num_images} images -> {base.num_entries} copies "
          f"({ingest_s * 1e3:.1f} ms bulk ingest)")
    fmt = "v4" if ann_sketch is not None else "v3"
    if args.out is not None:
        written = save_base(base, args.out, ann_sketch=ann_sketch)
        print(f"wrote {written} bytes at {args.out} ({fmt})")
    if args.snapshot is not None:
        start = time.perf_counter()
        written = save_base(base, args.snapshot,
                            hash_curves=args.sign_curves,
                            ann_sketch=ann_sketch)
        snap_s = time.perf_counter() - start
        extras = f"signatures for {args.sign_curves} curves"
        if ann_sketch is not None:
            extras += (f" + {ann_sketch.num_hashes}-hash ANN sketches "
                       f"(grid {ann_sketch.grid})")
        print(f"wrote {fmt} snapshot: {written} bytes at {args.snapshot} "
              f"({snap_s * 1e3:.1f} ms, {extras} embedded)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .storage.persist import snapshot_info
    info = snapshot_info(args.base)
    base = load_base(args.base)
    print(f"format version:   v{info['version']}" +
          (f" ({info.get('signature_curves')}-curve signatures embedded)"
           if info.get("signature_curves") else ""))
    print(f"shapes:           {base.num_shapes}")
    print(f"images:           {base.num_images}")
    print(f"normalized copies: {base.num_entries}")
    print(f"indexed vertices: {base.total_vertices}")
    print(f"alpha:            {base.alpha}")
    if base.num_shapes:
        print(f"copies per shape: "
              f"{base.num_entries / base.num_shapes:.1f}")
    ann_hashes = info.get("ann_hashes")
    if ann_hashes:
        sketch_bytes = base.num_entries * int(ann_hashes) * 8
        print(f"ann sketches:     {ann_hashes} hashes/entry "
              f"(grid {info['ann_grid']}, seed {info['ann_seed']}), "
              f"{sketch_bytes} bytes embedded")
    else:
        print("ann sketches:     none (write them with "
              "`repro build --ann`)")
    return 0


def _load_sketch(path: str):
    shapes = load_shapes(path)
    if not shapes:
        raise ValueError("sketch file contains no shapes")
    if len(shapes) > 1:
        print(f"warning: sketch file has {len(shapes)} shapes; "
              f"using the first", file=sys.stderr)
    return shapes[0]


def _cmd_query(args: argparse.Namespace) -> int:
    try:
        base = load_base(args.base)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load base {args.base!r}: {exc}",
              file=sys.stderr)
        return 2
    if base.num_shapes == 0:
        print("the base is empty", file=sys.stderr)
        return 1
    try:
        sketch = _load_sketch(args.sketch)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load sketch {args.sketch!r}: {exc}",
              file=sys.stderr)
        return 2
    if args.ann:
        if args.threshold is not None:
            print("error: --ann is top-k only; it cannot honor "
                  "--threshold", file=sys.stderr)
            return 2
        from .ann import AnnPrunedMatcher
        config = _ann_config(args)
        if base.cached_sketches(config.sketch.key) is None:
            print(f"error: {args.base!r} has no embedded ANN sketches "
                  f"for (hashes={config.num_hashes}, "
                  f"grid={config.grid}, seed={config.seed}); "
                  f"rebuild the base with `repro build --ann` "
                  f"(matching --ann-* parameters)", file=sys.stderr)
            return 2
        matcher = AnnPrunedMatcher(base, config)
        matches, stats = matcher.query(sketch, k=args.k)
        method = "ann-topk"
    else:
        matcher = GeometricSimilarityMatcher(base)
        if args.threshold is not None:
            matches, stats = matcher.query_threshold(sketch,
                                                     args.threshold)
            method = "envelope-threshold"
        else:
            matches, stats = matcher.query(sketch, k=args.k)
            method = "envelope-topk"
    if args.json:
        print(json.dumps({
            "method": method,
            "matches": [{"rank": rank,
                         "shape_id": match.shape_id,
                         "image_id": match.image_id,
                         "distance": match.distance,
                         "approximate": match.approximate}
                        for rank, match in enumerate(matches, start=1)],
            "stats": {"iterations": stats.iterations,
                      "triangles_queried": stats.triangles_queried,
                      "range_queries": stats.range_queries,
                      "prior_stops": stats.prior_stops,
                      "vertices_reported": stats.vertices_reported,
                      "vertices_scanned": stats.vertices_scanned,
                      "vertices_processed": stats.vertices_processed,
                      "candidates_evaluated": stats.candidates_evaluated,
                      "guaranteed": stats.guaranteed,
                      "exhausted": stats.exhausted,
                      "aborted": stats.aborted,
                      "timings": stats.timings},
        }, indent=1))
        return 0
    print(f"{len(matches)} match(es) "
          f"({stats.iterations} envelope iterations, "
          f"{stats.candidates_evaluated} candidates evaluated)")
    for rank, match in enumerate(matches, start=1):
        print(f"  #{rank}: shape {match.shape_id} "
              f"(image {match.image_id}) distance {match.distance:.6f}")
    if args.profile:
        _print_profile(stats.timings)
        print(f"index work: triangles_queried={stats.triangles_queried} "
              f"range_queries={stats.range_queries} "
              f"prior_stops={stats.prior_stops} "
              f"vertices_reported={stats.vertices_reported} "
              f"vertices_scanned={stats.vertices_scanned}")
    return 0


def _print_profile(timings: dict, indent: str = "  ") -> None:
    """Per-stage wall-time breakdown from ``MatchStats.timings``."""
    total = sum(timings.values())
    print("per-stage wall time:")
    for key, seconds in sorted(timings.items(), key=lambda kv: -kv[1]):
        share = 100.0 * seconds / total if total else 0.0
        print(f"{indent}{key:<15s} {seconds * 1e3:9.3f} ms  "
              f"({share:5.1f}%)")


def _cmd_demo(args: argparse.Namespace) -> int:
    import numpy as np

    from .imaging.synthesis import generate_workload, make_query_set
    rng = np.random.default_rng(args.seed)
    workload = generate_workload(args.images, rng, shapes_per_image=4.0,
                                 noise=0.01)
    base = ShapeBase(alpha=0.1)
    workload.add_to(base)
    print(f"demo base: {base.num_shapes} shapes, "
          f"{base.num_entries} copies")
    matcher = GeometricSimilarityMatcher(base)
    for query, label in make_query_set(workload, 3, rng, noise=0.01):
        matches, stats = matcher.query(query, k=1)
        best = matches[0]
        print(f"query (prototype {label}) -> shape {best.shape_id} "
              f"in image {best.image_id}, distance {best.distance:.5f} "
              f"[{stats.iterations} iterations]")
    return 0


def _serve_bench_algebra(args: argparse.Namespace) -> int:
    """Mixed algebra workload against the service-tier query engine.

    Builds a base with planted selectivity skew, serves composite
    algebra queries through ``service.query_engine()`` interleaved with
    plain top-k retrieves, prints the service's per-operator algebra
    counters, then runs the planner mode comparison
    (:func:`repro.query.workload.compare_planner`) over the same
    workload.  With ``REPRO_BENCH_LABEL`` set the comparison rows are
    appended to ``BENCH_algebra.json``.
    """
    import os
    import time

    import numpy as np

    from .imaging.synthesis import distort
    from .query.workload import (ALGEBRA_THRESHOLD, algebra_base,
                                 compare_planner, composite_queries,
                                 record_trajectory)
    from .service import RetrievalService, ServiceConfig

    if args.snapshot is not None:
        print("error: --algebra builds its own skewed base; "
              "--snapshot is not supported", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    base, protos = algebra_base(args.images, rng)
    queries = composite_queries(protos, args.queries,
                                np.random.default_rng(args.seed + 1))
    sketches = [distort(proto, 0.008, rng)
                for name, proto in protos.items() if name != "absent"]
    print(f"algebra base: {base.num_shapes} shapes over "
          f"{base.num_images} images; {len(queries)} composite queries "
          f"+ {len(queries)} plain retrieves, threshold "
          f"{ALGEBRA_THRESHOLD}")

    config = ServiceConfig(
        num_shards=args.shards, workers=1,
        cache_capacity=0 if args.no_cache else args.cache_capacity,
        match_threshold=ALGEBRA_THRESHOLD)
    with RetrievalService.from_base(base, config) as service:
        engine = service.query_engine()
        engine.graphs                  # warm the shared relation graphs
        start = time.perf_counter()
        for index, query in enumerate(queries):
            service.retrieve(sketches[index % len(sketches)], k=args.k)
            engine.execute(query)
        wall = time.perf_counter() - start
        algebra = service.snapshot()["algebra"]
        print(f"mixed workload: {2 * len(queries)} requests in "
              f"{wall * 1e3:.1f} ms")
        print(json.dumps({"algebra": algebra}, indent=1, sort_keys=True))

    rows = compare_planner(base, queries)
    for row in rows:
        row["images"] = base.num_images
        row["shapes"] = base.num_shapes
    print()
    print(f"{'mode':<14} {'ms/query':>9} {'sim_checks':>11} "
          f"{'thresholdq':>11} {'pairs':>7} {'reordered':>10}")
    for row in rows:
        print(f"{row['mode']:<14} {row['ms_per_query']:>9.2f} "
              f"{row['sim_checks']:>11d} {row['threshold_queries']:>11d} "
              f"{row['pairs_checked']:>7d} {row['seeds_reordered']:>10d}")
    if args.json:
        print()
        for row in rows:
            print(json.dumps(row))
    label = os.environ.get("REPRO_BENCH_LABEL")
    if label:
        record_trajectory(rows, label, "BENCH_algebra.json")
    return 0


def _bench_exit(escaped: list, failures: list) -> int:
    """The shared serve-bench verdict across thread/process/http modes.

    Degraded answers under chaos are the mechanism working — they
    exit 0.  An escaped exception or a failed invariant (a kill that
    never landed, an errored client response, diverging answers)
    exits 1.  Every mode routes through here so the exit-code contract
    cannot drift between transports.
    """
    if escaped:
        print(f"error: {len(escaped)} exception(s) escaped the service "
              f"under load:", file=sys.stderr)
        for message in escaped[:5]:
            print(f"  {message}", file=sys.stderr)
    for reason in failures:
        print(f"error: {reason}", file=sys.stderr)
    return 1 if (escaped or failures) else 0


def _kill_worker_over_http(endpoint, index: int = 0):
    """Ask a replica's admin surface to SIGKILL one of its workers."""
    from .service.http import json_request

    _, _, payload = json_request(endpoint, "POST", "/admin/kill_worker",
                                 json.dumps({"index": index}).encode(),
                                 timeout=10)
    return payload.get("killed_worker")


def _serve_bench_http(args: argparse.Namespace, base, sketches,
                      ann_config, worker_counts: list,
                      process_counts: list) -> int:
    """Closed-loop clients against the replicated HTTP front door.

    The chaos mode here is fleet-level: at the half-way query one
    whole replica is SIGKILLed (and, in process mode, one worker
    inside a *surviving* replica — composing both failure domains over
    the wire).  The invariant is the PR's acceptance bar: every client
    response completes ``ok`` or ``degraded``, never errored, while
    the balancer evicts the corpse within its health-check interval;
    the bench then restarts the replica from the same published
    snapshot and proves it serves again.
    """
    import os
    import tempfile
    import threading
    import time

    from .service import ServiceConfig
    from .service.http import Balancer, NoHealthyReplicas, ReplicaSet
    from .service.streambench import pctl

    if args.replicas < 2 and args.chaos is not None:
        print("error: --http --chaos needs --replicas >= 2 (someone "
              "must survive the kill)", file=sys.stderr)
        return 2
    clients = worker_counts[-1]
    execution = "process" if process_counts else "thread"
    processes = process_counts[0] if process_counts else 0
    replica_workers = processes if process_counts else max(2, clients)

    tempdir = None
    snapshot_path = args.snapshot
    if snapshot_path is None:
        tempdir = tempfile.TemporaryDirectory(prefix="repro-http-bench-")
        snapshot_path = os.path.join(tempdir.name, "bench.gsb")
        written = save_base(
            base, snapshot_path,
            ann_sketch=ann_config.sketch if ann_config else None)
        print(f"published fleet snapshot: {written} bytes "
              f"at {snapshot_path}")

    config = ServiceConfig(
        num_shards=args.shards, workers=replica_workers,
        cache_capacity=0 if args.no_cache else args.cache_capacity,
        max_pending=args.max_pending, deadline=args.deadline,
        ann=ann_config, ann_mode=args.ann_mode,
        execution=execution, processes=processes)

    kill_at = args.queries // 2 if args.chaos is not None else None
    victim = (args.chaos % args.replicas) if kill_at is not None else None
    during_until = (kill_at + max(args.queries // 6, 5)
                    if kill_at is not None else None)
    deadline_ms = args.deadline * 1000.0 if args.deadline else None

    outcomes: list = []          # (index, phase, class, seconds, attempts)
    escaped: list = []
    failures: list = []
    position = {"next": 0}
    kill_state: dict = {"replica_pid": None, "worker": None}
    lock = threading.Lock()

    def phase_of(index: int) -> str:
        if kill_at is None or index < kill_at:
            return "before"
        return "during" if index < during_until else "after"

    try:
        with ReplicaSet(snapshot_path, replicas=args.replicas,
                        config=config,
                        allow_admin=execution == "process") as fleet, \
                Balancer(fleet.endpoints(), health_interval=0.1,
                         retry_budget=3) as balancer:
            print(f"fleet: {args.replicas} replicas ({execution} "
                  f"execution, {replica_workers} workers each) at "
                  + ", ".join(f"{h}:{p}" for h, p in fleet.endpoints())
                  + f"; {clients} closed-loop clients")
            if kill_at is not None:
                note = f"chaos: SIGKILL replica {victim} at query {kill_at}"
                if execution == "process":
                    note += (f" + SIGKILL one worker inside replica "
                             f"{(victim + 1) % args.replicas}")
                print(note)

            def client() -> None:
                while True:
                    with lock:
                        index = position["next"]
                        if index >= args.queries:
                            return
                        position["next"] = index + 1
                    if kill_at is not None and index >= kill_at:
                        with lock:
                            claim = kill_state["replica_pid"] is None
                            if claim:
                                kill_state["replica_pid"] = -1
                        if claim:
                            kill_state["replica_pid"] = fleet.kill(victim)
                            if execution == "process":
                                sibling = (victim + 1) % args.replicas
                                try:
                                    kill_state["worker"] = \
                                        _kill_worker_over_http(
                                            fleet.endpoints()[sibling])
                                except OSError as exc:
                                    with lock:
                                        escaped.append(
                                            f"admin kill failed: {exc}")
                    sketch = sketches[index % len(sketches)]
                    started = time.perf_counter()
                    try:
                        response = balancer.query(
                            sketch, k=args.k, deadline_ms=deadline_ms)
                    except NoHealthyReplicas as exc:
                        with lock:
                            escaped.append(f"NoHealthyReplicas: {exc}")
                        return
                    except Exception as exc:
                        with lock:
                            escaped.append(f"{type(exc).__name__}: {exc}")
                        return
                    elapsed = time.perf_counter() - started
                    payload = response.payload
                    if response.status_code == 200 and \
                            payload.get("degraded"):
                        klass = "degraded"
                    elif response.status_code == 200 and \
                            payload.get("status") == "ok":
                        klass = "ok"
                    elif response.status_code == 503:
                        klass = "overloaded"
                    else:
                        klass = "errored"
                    with lock:
                        outcomes.append((index, phase_of(index), klass,
                                         elapsed, response.attempts))

            start = time.perf_counter()
            threads = [threading.Thread(target=client,
                                        name=f"http-client-{i}")
                       for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start

            counts = {"ok": 0, "degraded": 0, "overloaded": 0,
                      "errored": 0}
            for _, _, klass, _, _ in outcomes:
                counts[klass] += 1
            retries = sum(attempts - 1
                          for _, _, _, _, attempts in outcomes)
            busy_routes = balancer.metrics.counter(
                "balancer.busy_routes").value
            phases = {}
            for phase in ("before", "during", "after"):
                lat = sorted(seconds for _, ph, _, seconds, _ in outcomes
                             if ph == phase)
                if lat:
                    phases[phase] = {
                        "queries": len(lat),
                        "p50_ms": round(pctl(lat, 50.0) * 1e3, 2),
                        "p99_ms": round(pctl(lat, 99.0) * 1e3, 2)}
            all_lat = sorted(seconds
                             for _, _, _, seconds, _ in outcomes)

            restart_checks: dict = {}
            if kill_at is not None:
                if kill_state["replica_pid"] in (None, -1):
                    failures.append("the replica kill never landed")
                # Eviction: the health checker must notice the corpse.
                evict_deadline = time.monotonic() + 5.0
                while victim in balancer.healthy() and \
                        time.monotonic() < evict_deadline:
                    time.sleep(0.05)
                evicted = victim not in balancer.healthy()
                if not evicted:
                    failures.append(f"balancer never evicted killed "
                                    f"replica {victim}")
                # Warm standby: restart from the same snapshot and
                # prove it serves again.
                address = fleet.restart(victim)
                balancer.replace_endpoint(victim, address)
                balancer.check_health()
                readmitted = victim in balancer.healthy()
                probe = balancer.query(sketches[0], k=args.k)
                resumed = probe.ok
                restart_checks = {"evicted": evicted,
                                  "readmitted": readmitted,
                                  "resumed": resumed}
                if not (readmitted and resumed):
                    failures.append(
                        f"restarted replica {victim} did not resume "
                        f"serving (readmitted={readmitted}, "
                        f"probe ok={resumed})")
                if counts["errored"]:
                    failures.append(
                        f"{counts['errored']} client responses errored "
                        f"under the replica kill (every response must "
                        f"be ok or degraded)")
            elif counts["errored"]:
                failures.append(f"{counts['errored']} client responses "
                                f"errored")
            completed = len(outcomes)
            if not escaped and completed < args.queries:
                failures.append(f"only {completed} of {args.queries} "
                                f"queries completed")

            row = {
                "mode": f"http-{execution}-{args.replicas}r{clients}c",
                "transport": "http",
                "execution": execution,
                "replicas": args.replicas,
                "clients": clients,
                "shards": args.shards,
                "queries": args.queries,
                "completed": completed,
                "outcomes": counts,
                "balancer_retries": retries,
                "busy_routes": busy_routes,
                "wall_s": round(wall, 4),
                "throughput_qps": (round(completed / wall, 2)
                                   if wall else 0.0),
                "latency_p50_ms": round(pctl(all_lat, 50.0) * 1e3, 2),
                "latency_p99_ms": round(pctl(all_lat, 99.0) * 1e3, 2),
                "phases": phases,
            }
            if kill_at is not None:
                row["killed_replica"] = victim
                row["killed_pid"] = kill_state["replica_pid"]
                if kill_state["worker"] is not None:
                    row["killed_worker_in_replica"] = kill_state["worker"]
                row.update(restart_checks)

            print()
            print(f"{'phase':<8} {'queries':>8} {'p50ms':>9} {'p99ms':>9}")
            for phase in ("before", "during", "after"):
                stats = phases.get(phase)
                if stats:
                    print(f"{phase:<8} {stats['queries']:>8d} "
                          f"{stats['p50_ms']:>9.2f} "
                          f"{stats['p99_ms']:>9.2f}")
            print(f"outcomes: {counts['ok']} ok, "
                  f"{counts['degraded']} degraded, "
                  f"{counts['overloaded']} overloaded, "
                  f"{counts['errored']} errored; "
                  f"{retries} balancer retries, "
                  f"{busy_routes} busy routes; "
                  f"{row['throughput_qps']} qps overall")
            if restart_checks:
                print(f"failover: evicted={restart_checks['evicted']}, "
                      f"restarted replica readmitted="
                      f"{restart_checks['readmitted']}, "
                      f"serving again={restart_checks['resumed']}")
            if args.json:
                print()
                print(json.dumps(row))
            label = os.environ.get("REPRO_BENCH_LABEL")
            if label:
                from .query.workload import record_trajectory
                record_trajectory([row], label, "BENCH_matcher.json")
    finally:
        if tempdir is not None:
            tempdir.cleanup()
    return _bench_exit(escaped, failures)


def _serve_bench_stream(args: argparse.Namespace) -> int:
    """Continuous ingest concurrent with closed-loop queries.

    Thin wrapper over :func:`repro.service.streambench.run_stream_scenario`
    (idle baseline -> stream segments with a concurrent ingest thread ->
    quiesced bit-for-bit checkpoints against a rebuilt static base;
    --chaos SIGKILLs a process worker mid-stream).  Formats the rows,
    appends them to ``BENCH_stream.json`` when ``REPRO_BENCH_LABEL`` is
    set, and exits 1 on escaped exceptions, checkpoint divergence or a
    chaos kill that never landed.
    """
    import os

    from .service.streambench import run_stream_scenario

    try:
        worker_counts = [int(w) for w in str(args.workers).split(",")]
        process_counts = [int(p) for p in str(args.processes).split(",")
                          if p.strip()]
    except ValueError:
        print("error: --workers/--processes expect comma-separated "
              "integers", file=sys.stderr)
        return 2
    modes = [("thread", worker_counts[0])]
    modes += [("process", procs) for procs in process_counts[:1]]

    batches = max(1, args.stream_batches)
    batch_size = max(1, args.stream_batch)
    checkpoints = max(1, min(args.stream_checkpoints, batches))
    print(f"stream: {args.images} base images; ingesting {batches} "
          f"batches x {batch_size} shapes with concurrent closed-loop "
          f"queries; {checkpoints} consistency checkpoints")

    rows, escaped, failures = run_stream_scenario(
        images=args.images, queries=args.queries,
        distinct=args.distinct, k=args.k, shards=args.shards,
        modes=modes, batches=batches, batch_size=batch_size,
        checkpoints=checkpoints, max_pending=args.max_pending,
        ann=_ann_config(args) if args.ann else None,
        ann_mode=args.ann_mode,
        ingest_pause=args.stream_pause,
        publish_compact_every=args.stream_compact_every,
        chaos=args.chaos, seed=args.seed)

    print()
    print("mode         idle_p99  stream_p99  quiet_p99  x     "
          "ingest/s  waits  folds  checkpoints")
    for row in rows:
        print(f"{row['mode']:<12} {row['idle_p99_ms']:<9.2f} "
              f"{row['stream_p99_ms']:<11.2f} "
              f"{row['final_idle_p99_ms']:<10.2f} "
              f"{row['p99_interference']:<5.2f} "
              f"{row['ingest_rate_sps']:<9.1f} "
              f"{row['backpressure_waits']:<6d} {row['folds']:<6d} "
              f"{row['checkpoints']}/{row['checkpoint_mismatches']} "
              f"mismatched")
    for row in rows:
        if "sync" in row:
            sync = row["sync"]
            print(f"{row['mode']}: {sync['delta_rounds']} delta rounds "
                  f"({sync['delta_bytes']} B), {sync['full_rounds']} "
                  f"full rounds ({sync['full_bytes']} B)")
    if args.json:
        print()
        for row in rows:
            print(json.dumps(row))
    label = os.environ.get("REPRO_BENCH_LABEL")
    if label:
        from .query.workload import record_trajectory
        from .service.streambench import STREAM_TRAJECTORY_HEADER
        record_trajectory(rows, label, "BENCH_stream.json",
                          header=STREAM_TRAJECTORY_HEADER)
    return _bench_exit(escaped, failures)


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    """Closed-loop load generation against the retrieval service."""
    import threading
    import time

    import numpy as np

    from .imaging.synthesis import generate_workload, make_query_set
    from .service import FaultPlan, RetrievalService, ServiceConfig

    if args.algebra:
        return _serve_bench_algebra(args)
    if args.stream:
        return _serve_bench_stream(args)

    try:
        worker_counts = [int(w) for w in str(args.workers).split(",")]
    except ValueError:
        print(f"error: --workers expects comma-separated integers, "
              f"got {args.workers!r}", file=sys.stderr)
        return 2
    if any(workers < 1 for workers in worker_counts):
        print("error: --workers values must be at least 1",
              file=sys.stderr)
        return 2
    try:
        process_counts = [int(p) for p in str(args.processes).split(",")
                          if p.strip()]
    except ValueError:
        print(f"error: --processes expects comma-separated integers, "
              f"got {args.processes!r}", file=sys.stderr)
        return 2
    if any(procs < 1 for procs in process_counts):
        print("error: --processes values must be at least 1",
              file=sys.stderr)
        return 2
    if args.mmap and args.snapshot is None:
        print("error: --mmap needs --snapshot", file=sys.stderr)
        return 2

    if args.snapshot is not None:
        start = time.perf_counter()
        try:
            base = load_base(args.snapshot, mmap=args.mmap)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load snapshot {args.snapshot!r}: {exc}",
                  file=sys.stderr)
            return 2
        load_s = time.perf_counter() - start
        if base.num_shapes == 0:
            print("error: snapshot base is empty", file=sys.stderr)
            return 2
        # Stored shapes double as the query set: planted exact matches,
        # which is what the cold-start measurement needs (no synthesis).
        sketches = [base.shapes[sid]
                    for sid in list(base.shapes)[:args.distinct]]
        print(f"snapshot {args.snapshot}: {base.num_shapes} shapes, "
              f"{base.num_entries} copies loaded in {load_s * 1e3:.1f} ms "
              f"({base.snapshot_backing} backing)")
    else:
        rng = np.random.default_rng(args.seed)
        workload = generate_workload(args.images, rng,
                                     shapes_per_image=4.0, noise=0.01)
        base = ShapeBase(alpha=0.1)
        workload.add_to(base)
        sketches = [query for query, _ in
                    make_query_set(workload, args.distinct,
                                   np.random.default_rng(args.seed + 1),
                                   noise=0.01)]
    print(f"base: {base.num_shapes} shapes over {base.num_images} images; "
          f"{args.queries} queries ({len(sketches)} distinct) per config")

    ann_config = _ann_config(args) if args.ann else None
    if ann_config is not None:
        print(f"ann tier: {args.ann_mode} mode, "
              f"{ann_config.tables} tables x {ann_config.band_width} "
              f"rows, grid {ann_config.grid}, cap "
              f"{ann_config.candidate_cap}")

    if args.http:
        return _serve_bench_http(args, base, sketches, ann_config,
                                 worker_counts, process_counts)

    chaos_plan = None
    if args.chaos is not None:
        chaos_plan = FaultPlan.default(args.chaos, args.shards)
        print(f"chaos: seed {args.chaos} -> {chaos_plan!r} "
              f"(replayable: same seed, same schedule)")
        if process_counts:
            print(f"chaos (process mode): SIGKILL worker "
                  f"{args.chaos} % nprocs at query {args.queries // 2}")

    # One sweep point per (execution, parallelism) pair: every --workers
    # value in thread mode, then every --processes value with as many
    # closed-loop clients as worker processes.
    modes = [("thread", workers) for workers in worker_counts]
    modes += [("process", procs) for procs in process_counts]

    # Priming pass: first-touch numpy/allocator costs land here instead
    # of biasing whichever configuration happens to run first.  Its
    # construction time is the cold start proper: shard the base and
    # build every shard's kd-tree and hash table in parallel.
    start = time.perf_counter()
    with RetrievalService.from_base(base, ServiceConfig(
            num_shards=args.shards, workers=1, cache_capacity=0,
            ann=ann_config, ann_mode=args.ann_mode)) as primer:
        cold_s = time.perf_counter() - start
        print(f"cold start (shard + parallel warm, {args.shards} shards): "
              f"{cold_s * 1e3:.1f} ms")
        for sketch in sketches:
            primer.retrieve(sketch, k=args.k)

    rows = []
    escaped: list = []
    for execution, workers in modes:
        # Thread-mode chaos replays the seeded fault plan; process-mode
        # chaos kills a real worker process instead (the failure the
        # process tier exists to survive).
        config_plan = (chaos_plan.replay()
                       if chaos_plan is not None and execution == "thread"
                       else None)
        config = ServiceConfig(
            num_shards=args.shards, workers=workers,
            cache_capacity=0 if args.no_cache else args.cache_capacity,
            max_pending=args.max_pending, deadline=args.deadline,
            fault_plan=config_plan, retry_seed=args.seed,
            ann=ann_config, ann_mode=args.ann_mode,
            execution=execution, processes=workers)
        service = RetrievalService.from_base(base, config)

        # Closed loop: one client per worker; each client issues its
        # next query (or batch of queries, with --batch) only after the
        # previous one completed.
        position = {"next": 0}
        lock = threading.Lock()
        profile_totals: dict = {}
        degraded_count = {"n": 0}
        batch_size = max(0, args.batch)
        kill_at = (args.queries // 2
                   if args.chaos is not None and execution == "process"
                   else None)
        victim = (args.chaos % workers) if kill_at is not None else None
        kill_state: dict = {"pid": None}

        def _record_profile(results) -> None:
            with lock:
                for result in results:
                    for key, seconds in result.stats.timings.items():
                        profile_totals[key] = (profile_totals.get(key, 0.0)
                                               + seconds)

        def client() -> None:
            while True:
                with lock:
                    index = position["next"]
                    if index >= args.queries:
                        return
                    take = (min(batch_size, args.queries - index)
                            if batch_size else 1)
                    position["next"] = index + take
                if kill_at is not None and index >= kill_at:
                    with lock:
                        if kill_state["pid"] is None:
                            kill_state["pid"] = \
                                service.procpool.kill_worker(victim)
                chunk = [sketches[(index + j) % len(sketches)]
                         for j in range(take)]
                try:
                    results = service.retrieve_batch(chunk, k=args.k)
                except Exception as exc:
                    # Under chaos this is the invariant violation the
                    # smoke run exists to catch: no exception may
                    # escape retrieve/retrieve_batch.
                    with lock:
                        escaped.append(f"{type(exc).__name__}: {exc}")
                    return
                with lock:
                    degraded_count["n"] += sum(
                        1 for r in results if r.failed_shards)
                if args.profile:
                    _record_profile(results)

        start = time.perf_counter()
        clients = [threading.Thread(target=client, name=f"client-{i}")
                   for i in range(workers)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        wall = time.perf_counter() - start

        snapshot = service.snapshot()
        latency = snapshot["histograms"]["latency.total"]
        served = snapshot["counters"].get("queries.served", 0)
        tier_latency = {}
        for tier, name in (("exact", "latency.envelope"),
                           ("ann", "latency.ann"),
                           ("hash", "latency.fallback")):
            hist = snapshot["histograms"].get(name)
            if hist is not None:
                tier_latency[tier] = {
                    "p50_ms": round(hist["p50"] * 1e3, 2),
                    "p99_ms": round(hist["p99"] * 1e3, 2)}
        row = {
            "mode": f"{execution}-{workers}",
            "execution": execution,
            "workers": workers,
            "shards": args.shards,
            "cache": not args.no_cache,
            "queries": args.queries,
            "served": served,
            "shed": snapshot["counters"].get("queries.shed", 0),
            "wall_s": round(wall, 4),
            "throughput_qps": round(served / wall, 2) if wall else 0.0,
            "latency_p50_ms": round(latency["p50"] * 1e3, 2),
            "latency_p90_ms": round(latency["p90"] * 1e3, 2),
            "latency_p99_ms": round(latency["p99"] * 1e3, 2),
            "cache_hit_ratio": round(snapshot["rates"]["cache_hit_ratio"],
                                     4),
            "fallback_ratio": round(snapshot["rates"]["fallback_ratio"], 4),
            "tiers": dict(snapshot["tiers"]["counts"]),
            "tier_latency": tier_latency,
        }
        candidates = snapshot["tiers"].get("ann_candidates")
        if candidates:
            row["ann_candidates_p50"] = round(candidates["p50"], 1)
            row["ann_candidates_p90"] = round(candidates["p90"], 1)
        if args.chaos is not None:
            row["degraded"] = degraded_count["n"]
            row["shard_failures"] = snapshot["counters"].get(
                "shards.failures", 0)
            row["retries"] = snapshot["counters"].get("shards.retries", 0)
            row["breaker_skipped"] = snapshot["counters"].get(
                "shards.breaker_skipped", 0)
            if config_plan is not None:
                row["faults_injected"] = dict(config_plan.counts())
            if kill_at is not None:
                row["killed_worker"] = victim
                row["killed_pid"] = kill_state["pid"]
                row["alive_workers"] = service.procpool.alive_workers()
        if execution == "process":
            row["procpool"] = service.procpool.info()
        rows.append(row)
        if args.profile:
            print(f"\n--- profile ({row['mode']}) ---")
            _print_profile(profile_totals)
        if args.metrics:
            print(f"\n--- metrics ({row['mode']}) ---")
            print(json.dumps(snapshot, indent=1))
        service.close()

    header = ("mode         qps      p50ms    p90ms    p99ms    "
              "cache    fallback shed")
    print()
    print(header)
    for row in rows:
        print(f"{row['mode']:<12} {row['throughput_qps']:<8.2f} "
              f"{row['latency_p50_ms']:<8.2f} {row['latency_p90_ms']:<8.2f} "
              f"{row['latency_p99_ms']:<8.2f} {row['cache_hit_ratio']:<8.4f} "
              f"{row['fallback_ratio']:<8.4f} {row['shed']}")

    # Per-tier, per-mode throughput: which rung answered, how fast.
    print()
    print("mode         tier   answers  qps      p50ms    p99ms")
    for row in rows:
        for tier in ("exact", "ann", "hash"):
            count = row["tiers"].get(tier, 0)
            if not count:
                continue
            tier_qps = (round(count / row["wall_s"], 2)
                        if row["wall_s"] else 0.0)
            stats = row["tier_latency"].get(tier)
            p50 = f"{stats['p50_ms']:<8.2f}" if stats else "-       "
            p99 = f"{stats['p99_ms']:<8.2f}" if stats else "-       "
            line = (f"{row['mode']:<12} {tier:<6} {count:<8d} "
                    f"{tier_qps:<8.2f} {p50} {p99}")
            if tier == "ann" and "ann_candidates_p50" in row:
                line += (f"  candidates p50 {row['ann_candidates_p50']} "
                         f"p90 {row['ann_candidates_p90']}")
            print(line)

    failures: list = []
    if args.chaos is not None:
        print()
        for row in rows:
            line = (f"chaos {row['mode']}: "
                    f"{row['degraded']} degraded answers, "
                    f"{row['shard_failures']} shard failures, "
                    f"{row['retries']} retries, "
                    f"{row['breaker_skipped']} breaker skips")
            if "faults_injected" in row:
                line += f", faults {row['faults_injected']}"
            if "killed_worker" in row:
                line += (f", killed worker {row['killed_worker']} "
                         f"(pid {row['killed_pid']}), alive "
                         f"{row['alive_workers']}")
            print(line)
        for row in rows:
            if "killed_worker" in row and not row["degraded"]:
                failures.append(
                    f"{row['mode']} survived a worker kill with no "
                    f"degraded answers — the kill never landed")
    elif process_counts:
        # Answer-equality pass: every distinct sketch must resolve to
        # the same ranked matches in thread and process mode.
        mismatches = _verify_process_mode(
            base, sketches, args, ann_config, process_counts[0])
        print()
        if mismatches:
            failures.append(f"thread/process answers diverge on "
                            f"{mismatches} of {len(sketches)} sketches")
        else:
            print(f"verified: {len(sketches)} sketches answer "
                  f"identically in thread and process mode")

    if args.json:
        print()
        for row in rows:
            print(json.dumps(row))
    return _bench_exit(escaped, failures)


def _verify_process_mode(base, sketches, args, ann_config,
                         processes: int) -> int:
    """Mismatch count between thread- and process-mode answers.

    Fresh single-worker services on both sides (no cache, no chaos):
    any divergence is a wire-marshalling or attach bug, not load noise.
    """
    from .service import RetrievalService, ServiceConfig

    def _config(execution: str) -> "ServiceConfig":
        return ServiceConfig(
            num_shards=args.shards, workers=processes, cache_capacity=0,
            ann=ann_config, ann_mode=args.ann_mode, execution=execution,
            processes=processes)

    def _answers(service) -> list:
        return [[(m.shape_id, m.image_id, m.distance,
                  m.approximate) for m in
                 service.retrieve(sketch, k=args.k).matches]
                for sketch in sketches]

    with RetrievalService.from_base(base, _config("thread")) as threaded:
        expected = _answers(threaded)
    with RetrievalService.from_base(base, _config("process")) as proc:
        actual = _answers(proc)
    return sum(1 for a, b in zip(expected, actual) if a != b)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the replicated HTTP front door until interrupted."""
    import os
    import tempfile
    import time

    from .service import ServiceConfig
    from .service.http import Balancer, BalancerServer, ReplicaSet

    if not args.http:
        print("error: only the HTTP front door is implemented; "
              "pass --http", file=sys.stderr)
        return 2
    if args.replicas < 1:
        print("error: --replicas must be at least 1", file=sys.stderr)
        return 2

    ann_config = _ann_config(args) if args.ann else None
    tempdir = None
    snapshot_path = args.snapshot
    if snapshot_path is None:
        # No corpus given: publish a synthetic one so the quickstart
        # (and its curl examples) work without a dataset at hand.
        import numpy as np

        from .imaging.synthesis import generate_workload
        rng = np.random.default_rng(args.seed)
        workload = generate_workload(args.images, rng,
                                     shapes_per_image=4.0, noise=0.01)
        base = ShapeBase(alpha=0.1)
        workload.add_to(base)
        tempdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
        snapshot_path = os.path.join(tempdir.name, "serve.gsb")
        save_base(base, snapshot_path,
                  ann_sketch=ann_config.sketch if ann_config else None)
        print(f"no --snapshot: published a synthetic "
              f"{base.num_shapes}-shape base at {snapshot_path}")

    config = ServiceConfig(
        num_shards=args.shards, workers=args.workers,
        deadline=args.deadline, ann=ann_config, ann_mode=args.ann_mode,
        execution="process" if args.processes else "thread",
        processes=args.processes)
    try:
        with ReplicaSet(snapshot_path, replicas=args.replicas,
                        config=config) as fleet, \
                Balancer(fleet.endpoints()) as balancer, \
                BalancerServer(balancer, host=args.host,
                               port=args.port) as front:
            host, port = front.address
            print(f"serving {args.replicas} replica(s) behind "
                  f"http://{host}:{port}")
            print(f"  curl -s http://{host}:{port}/readyz")
            print(f"  curl -s http://{host}:{port}/query "
                  f"-H 'X-Deadline-Ms: 50' -d '{{\"sketch\": "
                  f"{{\"closed\": true, \"vertices\": "
                  f"[[0,0],[4,0],[2,3]]}}, \"k\": 3}}'")
            print("  503 + Retry-After means shed: queue full or the "
                  "deadline budget already spent")
            print("Ctrl-C to stop")
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                print("\nshutting down")
    finally:
        if tempdir is not None:
            tempdir.cleanup()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GeoSIR: geometric-similarity shape retrieval")
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="build a base from JSON")
    build.add_argument("--images", required=True,
                       help="JSON file of images/shapes")
    build.add_argument("--out", default=None, help="output .gsir file")
    build.add_argument("--snapshot", default=None, metavar="PATH",
                       help="also write an array-native v3 snapshot with "
                            "precomputed hashing signatures (loads with "
                            "zero re-normalization)")
    build.add_argument("--sign-curves", type=int, default=50,
                       dest="sign_curves",
                       help="hash-curve family size for the signatures "
                            "embedded in --snapshot (default 50)")
    build.add_argument("--alpha", type=float, default=0.1,
                       help="alpha-diameter tolerance (default 0.1)")
    _add_ann_args(build,
                  "embed per-entry ANN MinHash sketches (v4 snapshot); "
                  "`query --ann` and the service's LSH tier then warm "
                  "with zero recompute")
    build.set_defaults(func=_cmd_build)

    stats = commands.add_parser("stats", help="inspect a stored base")
    stats.add_argument("--base", required=True, help=".gsir file")
    stats.set_defaults(func=_cmd_stats)

    query = commands.add_parser("query", help="query a stored base")
    query.add_argument("--base", required=True, help=".gsir file")
    query.add_argument("--sketch", required=True,
                       help="JSON file with the query shape")
    query.add_argument("-k", type=int, default=1,
                       help="number of best matches (default 1)")
    query.add_argument("--threshold", type=float, default=None,
                       help="return all matches within this distance "
                            "instead of the k best")
    query.add_argument("--json", action="store_true",
                       help="machine-readable output (matches, distances, "
                            "method, stats)")
    query.add_argument("--profile", action="store_true",
                       help="print the per-stage wall-time breakdown "
                            "(normalize, range search, exact measures)")
    _add_ann_args(query,
                  "answer via the LSH-pruned approximate tier "
                  "(requires a base built with `build --ann` using the "
                  "same --ann-* parameters)")
    query.set_defaults(func=_cmd_query)

    serve = commands.add_parser(
        "serve-bench",
        help="closed-loop load benchmark of the retrieval service")
    serve.add_argument("--images", type=int, default=24,
                       help="synthetic base size (default 24)")
    serve.add_argument("--snapshot", default=None, metavar="PATH",
                       help="serve a stored base instead of a synthetic "
                            "one; load time and cold start (shard + "
                            "parallel warm) are reported")
    serve.add_argument("--queries", type=int, default=60,
                       help="total queries per configuration (default 60)")
    serve.add_argument("--distinct", type=int, default=12,
                       help="distinct sketches cycled through (default 12)")
    serve.add_argument("--workers", default="1,2,4",
                       help="comma-separated worker counts to sweep "
                            "(default 1,2,4)")
    serve.add_argument("--processes", default="",
                       help="also sweep process execution with these "
                            "comma-separated worker-process counts: "
                            "shards are served from separate processes "
                            "attached zero-copy to published snapshots, "
                            "and the run ends with a thread-vs-process "
                            "answer verification pass (default: thread "
                            "mode only)")
    serve.add_argument("--mmap", action="store_true",
                       help="map the --snapshot file read-only instead "
                            "of copying it into the heap (v3/v4 "
                            "snapshots)")
    serve.add_argument("--shards", type=int, default=4,
                       help="number of shards (default 4)")
    serve.add_argument("--cache-capacity", type=int, default=256,
                       dest="cache_capacity",
                       help="query-result cache entries (default 256)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the query-result cache")
    serve.add_argument("--max-pending", type=int, default=None,
                       dest="max_pending",
                       help="admission bound (default unbounded)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-query deadline in seconds "
                            "(default unlimited)")
    serve.add_argument("-k", type=int, default=1,
                       help="matches per query (default 1)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--json", action="store_true",
                       help="also emit one JSON row per configuration")
    serve.add_argument("--metrics", action="store_true",
                       help="print the full metrics registry per "
                            "configuration")
    serve.add_argument("--batch", type=int, default=0,
                       help="drive the service's batched retrieval path "
                            "with this many queries per call "
                            "(default 0 = one query per call)")
    serve.add_argument("--profile", action="store_true",
                       help="print the aggregated per-stage wall-time "
                            "breakdown per configuration")
    serve.add_argument("--algebra", action="store_true",
                       help="mixed algebra workload: composite queries "
                            "through the service-tier query engine "
                            "interleaved with plain retrieves, the "
                            "service's per-operator algebra counters, "
                            "and the planner-vs-unplanned comparison "
                            "(rows appended to BENCH_algebra.json when "
                            "REPRO_BENCH_LABEL is set)")
    serve.add_argument("--stream", action="store_true",
                       help="streaming-ingest scenario: an ingest "
                            "thread pushes shape batches through the "
                            "copy-on-write write path (admission "
                            "backpressure, folds at the append, delta "
                            "publication) while closed-loop clients "
                            "keep querying; "
                            "quiesced checkpoints assert the live base "
                            "answers bit-for-bit like a rebuilt static "
                            "one (rows appended to BENCH_stream.json "
                            "when REPRO_BENCH_LABEL is set)")
    serve.add_argument("--stream-batches", type=int, default=12,
                       help="ingest batches per streaming run "
                            "(default 12)")
    serve.add_argument("--stream-batch", type=int, default=8,
                       help="shapes per ingest batch (default 8)")
    serve.add_argument("--stream-checkpoints", type=int, default=3,
                       help="consistency checkpoints spread over the "
                            "stream (default 3)")
    serve.add_argument("--stream-pause", type=float, default=0.0,
                       help="seconds between ingest batches — the "
                            "modelled stream arrival cadence (default "
                            "0: ingest as fast as backpressure allows)")
    serve.add_argument("--stream-compact-every", type=int, default=None,
                       help="process-tier compaction cadence: full "
                            "republish after this many delta rounds "
                            "(default: the service default)")
    serve.add_argument("--chaos", type=int, default=None, metavar="SEED",
                       help="inject a seeded fault plan (one haunted "
                            "shard: exceptions, latency, corrupted "
                            "answers); the run fails if any exception "
                            "escapes the service — same seed, same "
                            "fault schedule.  In process mode (with "
                            "--processes) the chaos is a SIGKILL of "
                            "worker SEED %% nprocs mid-bench instead")
    _add_ann_args(serve,
                  "enable the LSH-pruned tier on every shard and route "
                  "queries per --ann-mode")
    serve.add_argument("--ann-mode", choices=("auto", "always"),
                       default="always", dest="ann_mode",
                       help="'always' answers every query through the "
                            "ANN tier; 'auto' walks the deadline-driven "
                            "ladder exact -> ann -> hash (default "
                            "always)")
    serve.add_argument("--http", action="store_true",
                       help="drive the replicated HTTP front door over "
                            "the wire instead of the in-process "
                            "service; --chaos then SIGKILLs a whole "
                            "replica mid-bench (plus one in-replica "
                            "worker with --processes) and the run "
                            "fails unless every client response "
                            "completes ok or degraded")
    serve.add_argument("--replicas", type=int, default=2,
                       help="replica processes behind the balancer "
                            "with --http (default 2)")
    serve.set_defaults(func=_cmd_serve_bench)

    servecmd = commands.add_parser(
        "serve",
        help="run the replicated HTTP/JSON front door "
             "(POST /query, GET /stats /healthz /readyz)")
    servecmd.add_argument("--http", action="store_true",
                          help="serve the HTTP/JSON protocol "
                               "(required; the only protocol)")
    servecmd.add_argument("--host", default="127.0.0.1",
                          help="bind address (default 127.0.0.1)")
    servecmd.add_argument("--port", type=int, default=8787,
                          help="front-door port (default 8787; 0 picks "
                               "an ephemeral port)")
    servecmd.add_argument("--replicas", type=int, default=2,
                          help="replica processes warmed from the same "
                               "snapshot (default 2)")
    servecmd.add_argument("--snapshot", default=None, metavar="PATH",
                          help="serve this v3/v4 snapshot (replicas "
                               "attach zero-copy); default: publish a "
                               "synthetic base")
    servecmd.add_argument("--images", type=int, default=24,
                          help="synthetic base size when no --snapshot "
                               "(default 24)")
    servecmd.add_argument("--seed", type=int, default=0)
    servecmd.add_argument("--shards", type=int, default=4,
                          help="shards per replica (default 4)")
    servecmd.add_argument("--workers", type=int, default=2,
                          help="worker threads per replica (default 2)")
    servecmd.add_argument("--processes", type=int, default=0,
                          help="serve each replica's shards from this "
                               "many worker processes (default 0 = "
                               "thread execution)")
    servecmd.add_argument("--deadline", type=float, default=None,
                          help="default per-query deadline in seconds "
                               "(clients override per request with the "
                               "X-Deadline-Ms header)")
    _add_ann_args(servecmd,
                  "enable the LSH-pruned middle tier on every replica")
    servecmd.add_argument("--ann-mode", choices=("auto", "always"),
                          default="auto", dest="ann_mode",
                          help="tier policy (default auto: the "
                               "deadline-driven ladder)")
    servecmd.set_defaults(func=_cmd_serve)

    demo = commands.add_parser("demo", help="synthetic walkthrough")
    demo.add_argument("--images", type=int, default=15)
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=_cmd_demo)

    experiment = commands.add_parser(
        "experiment", help="regenerate one of the paper's figures")
    experiment.add_argument("name",
                            help="experiment name (or 'list')")
    experiment.add_argument("--no-chart", action="store_true",
                            help="table only, no ASCII chart")
    experiment.set_defaults(func=_cmd_experiment)
    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS
    if args.name == "list":
        for name, fn in sorted(EXPERIMENTS.items()):
            summary = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {summary}")
        return 0
    try:
        fn = EXPERIMENTS[args.name]
    except KeyError:
        print(f"unknown experiment {args.name!r}; try 'list'",
              file=sys.stderr)
        return 2
    result = fn()
    print(result.render(chart=not args.no_chart))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout consumer went away (e.g. `repro query --json | head`);
        # exit quietly like other well-behaved CLI tools.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":       # pragma: no cover
    raise SystemExit(main())
