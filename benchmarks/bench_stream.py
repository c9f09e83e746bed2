"""Write path under live traffic: the PR 10 acceptance benchmark.

Runs :func:`repro.service.streambench.run_stream_scenario` (the same
engine behind ``repro serve-bench --stream``) over a sweep of corpus
sizes, in thread mode and process mode, and enforces the two headline
gates **at the largest size, in process mode** — the configuration
that serves production traffic:

* **interference** — query p99 while the ingest thread streams batches
  through the copy-on-write write path must stay within
  ``INTERFERENCE_CAP`` (2x) of the idle p99 measured on the *same
  (final) corpus* after quiesce — corpus growth is not interference.
  Writers append behind published epochs and a shard base folds its
  own tail on the append that crosses the threshold, so readers never
  queue on a write lock;
* **delta publication** — the bytes shipped to process workers per
  pure-append version bump must be at least ``DELTA_ADVANTAGE`` (10x)
  smaller than a full snapshot republish.  Deltas carry only the new
  rows; full republish cost grows with the whole corpus.

Checkpoint consistency (live core+delta answers bit-for-bit equal to a
service rebuilt from scratch over the same corpus, in *both* execution
modes) is asserted unconditionally at every size — a divergence
anywhere fails the run regardless of the perf numbers.

Rows are appended to ``BENCH_stream.json`` when ``--label`` is given
or ``REPRO_BENCH_LABEL`` is set (same trajectory protocol as the
other BENCH_*.json files).

Usage::

    PYTHONPATH=src python benchmarks/bench_stream.py --smoke
    PYTHONPATH=src python benchmarks/bench_stream.py \
        --sizes 30,60,120 --label "my-change"
"""

import argparse
import os
import sys
from pathlib import Path

from repro.query.workload import record_trajectory
from repro.service.streambench import (STREAM_TRAJECTORY_HEADER,
                                       run_stream_scenario)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_stream.json"
SMOKE_SIZES = (12, 32)
#: Smoke batches are smaller so the 10x delta-vs-full gate is judged
#: fairly at CI scale: a delta round scales with the batch, a full
#: republish with the whole corpus.
SMOKE_BATCH = 4
SIZES = (16, 32, 64)
BATCH = 6
#: Stream-phase p99 may be at most this multiple of the idle p99.
INTERFERENCE_CAP = 2.0
#: Full republish must move at least this many times the bytes of a
#: delta round.
DELTA_ADVANTAGE = 10.0


#: Seconds between ingest batches — the modelled stream arrival
#: cadence.  Back-to-back batches saturate a core with encode work,
#: which on the 1-core CI host measures CPU starvation, not write-path
#: interference (the thing this benchmark gates on).
INGEST_PAUSE = 0.05
#: Process-tier compaction cadence: a full republish replaces the
#: delta rounds after this many of them.  Worker brute tails do not
#: depend on it (each worker folds its tails past ``_TAIL_MIN`` on
#: every delta round).
COMPACT_EVERY = 4


def run(sizes, seed=20020604, chaos=None, batch_size=BATCH):
    """One streaming sweep; returns all rows (size-annotated)."""
    rows = []
    for num_images in sizes:
        batches = max(6, num_images // 4)
        size_rows, escaped, failures = run_stream_scenario(
            images=num_images,
            queries=24, distinct=10, k=3,
            shards=4,
            modes=[("thread", 2), ("process", 2)],
            batches=batches, batch_size=batch_size, checkpoints=3,
            ingest_pause=INGEST_PAUSE,
            publish_compact_every=COMPACT_EVERY,
            chaos=chaos, seed=seed)
        for row in size_rows:
            row["images"] = num_images
            rows.append(row)
        if escaped:
            raise AssertionError(
                f"escaped exceptions at {num_images} images: {escaped}")
        if failures:
            raise AssertionError(
                f"scenario failures at {num_images} images: {failures}")
    return rows


def render(rows):
    lines = [f"{'images':>7} {'mode':<12} {'corpus':>7} {'idle_p99':>9} "
             f"{'stream_p99':>11} {'quiet_p99':>10} {'x':>6} "
             f"{'ingest/s':>9} {'waits':>6} {'folds':>6} {'ckpt':>5}"]
    for row in rows:
        lines.append(
            f"{row['images']:>7d} {row['mode']:<12} "
            f"{row['corpus_shapes']:>7d} {row['idle_p99_ms']:>9.2f} "
            f"{row['stream_p99_ms']:>11.2f} "
            f"{row['final_idle_p99_ms']:>10.2f} "
            f"{row['p99_interference']:>6.2f} "
            f"{row['ingest_rate_sps']:>9.1f} "
            f"{row['backpressure_waits']:>6d} {row['folds']:>6d} "
            f"{row['checkpoints']:>4d}/{row['checkpoint_mismatches']}")
    for row in rows:
        if "sync" in row:
            sync = row["sync"]
            lines.append(
                f"    {row['images']} images {row['mode']}: "
                f"{sync['delta_rounds']} delta rounds avg "
                f"{row.get('delta_bytes_per_round', 0)} B vs "
                f"{sync['full_rounds']} full rounds avg "
                f"{row.get('full_bytes_per_round', 0)} B")
    print("\n".join(lines))


def check_acceptance(rows):
    """The PR gates, judged at the largest size in process mode."""
    largest = max(row["images"] for row in rows)
    process = [row for row in rows
               if row["images"] == largest
               and row["execution"] == "process"]
    failures = []
    if not process:
        return [f"no process-mode row at {largest} images"]
    row = process[0]
    if row["checkpoint_mismatches"]:
        failures.append(
            f"{row['checkpoint_mismatches']} checkpoint divergences")
    if row["final_idle_p99_ms"] and \
            row["stream_p99_ms"] > \
            INTERFERENCE_CAP * row["final_idle_p99_ms"]:
        failures.append(
            f"stream p99 {row['stream_p99_ms']:.2f} ms > "
            f"{INTERFERENCE_CAP}x same-corpus idle p99 "
            f"{row['final_idle_p99_ms']:.2f} ms")
    delta = row.get("delta_bytes_per_round")
    full = row.get("full_bytes_per_round")
    if not delta or not full:
        failures.append("no delta/full publication rounds to compare "
                        f"(delta={delta}, full={full})")
    elif full < DELTA_ADVANTAGE * delta:
        failures.append(
            f"delta round {delta} B is only "
            f"{full / delta:.1f}x smaller than a full republish "
            f"{full} B (need >= {DELTA_ADVANTAGE}x)")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", default=None,
                        help="comma-separated base image counts "
                             f"(default {','.join(map(str, SIZES))}; "
                             "sized for a small CI host — raise them "
                             "on real hardware)")
    parser.add_argument("--seed", type=int, default=20020604)
    parser.add_argument("--chaos", type=int, default=None, metavar="SEED",
                        help="SIGKILL process worker SEED %% nprocs "
                             "mid-stream at every size; checkpoints "
                             "must still pass after revive+resync")
    parser.add_argument("--smoke", action="store_true",
                        help=f"quick CI sizes {SMOKE_SIZES}")
    parser.add_argument("--label", default=None,
                        help="append rows to BENCH_stream.json under "
                             "this label (default: REPRO_BENCH_LABEL)")
    args = parser.parse_args(argv)

    if args.smoke:
        sizes, batch_size = SMOKE_SIZES, SMOKE_BATCH
    elif args.sizes:
        sizes = tuple(int(s) for s in args.sizes.split(","))
        batch_size = BATCH
    else:
        sizes, batch_size = SIZES, BATCH
    rows = run(sizes, seed=args.seed, chaos=args.chaos,
               batch_size=batch_size)
    render(rows)

    label = args.label or os.environ.get("REPRO_BENCH_LABEL")
    if label:
        record_trajectory(rows, label, BENCH_JSON,
                          header=STREAM_TRAJECTORY_HEADER)
        print(f"\nrecorded trajectory point {label!r} -> {BENCH_JSON}")

    failures = check_acceptance(rows)
    if failures:
        print("\nFAIL: streaming acceptance gates not met at the "
              "largest size:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    largest = max(row["images"] for row in rows)
    row = [r for r in rows if r["images"] == largest
           and r["execution"] == "process"][0]
    print(f"\nOK: at {largest} images (process mode) stream p99 is "
          f"{row['p99_interference']:.2f}x idle p99 and a delta round "
          f"ships {row['full_bytes_per_round'] / row['delta_bytes_per_round']:.1f}x "
          f"less data than a full republish")
    return 0


if __name__ == "__main__":
    sys.exit(main())
