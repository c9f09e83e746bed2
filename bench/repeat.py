"""Do two sets of runs of the same code tell the same story?

Each run is a fresh ``python3 -m bench`` process, as the benchmark's
contract runs it.  Run ``i`` of every set uses seed ``seed + i``; the
workload order alternates between sets so neither always runs on a
warm (or tired) machine.  A pair of sets ``agree`` on a metric when
their medians are within the metric's bound of each other and both
sets' quartile spreads are too; it ``differs`` when the medians are
further apart than the bound and the spreads cannot explain it; it is
``unresolved`` when the spread is wider than the bound, whichever way
the medians fall.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence

from . import spec
from .stats import quartile_spread

AGREE, UNRESOLVED, DIFFERS = "agree", "unresolved", "differs"

#: Per-layer work counters that must repeat exactly for one seed on the
#: three read-only workloads (timings never do; these always should).
EXACT_COUNTS = (
    "core.shapebase.entries", "core.matcher.iterations",
    "core.matcher.triangles_queried", "core.matcher.vertices_reported",
    "core.matcher.vertices_processed", "core.matcher.candidates_evaluated",
    "geometry.envelope.triangles", "service.shards.work_amplification",
    "service.shards.candidate_amplification",
    "storage.persist.snapshot_bytes", "ann.candidates_per_query",
)
READ_ONLY = ("exact-1shard", "exact-sharded", "http-hot")


def contract_run(workload: str, seed: int, seconds: float, scale: str,
                 trace: int) -> dict:
    """One ``python3 -m bench`` process; its last line, parsed."""
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--scale", scale]
    finished = subprocess.run(command, cwd=spec.ROOT, text=True,
                              capture_output=True, timeout=900)
    if finished.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited "
                           f"{finished.returncode}:\n{finished.stderr}")
    return json.loads(finished.stdout.strip().splitlines()[-1])


def judge(first: Sequence[float], second: Sequence[float],
          bound: float) -> str:
    """``agree`` / ``unresolved`` / ``differs`` for one metric."""
    base = statistics.median(first)
    change = abs(statistics.median(second) - base) / abs(base) if base \
        else 0.0
    steady = max(quartile_spread(first), quartile_spread(second)) <= bound
    if change <= bound:
        return AGREE if steady else UNRESOLVED
    apart = max(first) < min(second) or max(second) < min(first)
    return DIFFERS if steady or apart else UNRESOLVED


def quartiles(values: Sequence[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    first, middle, third = statistics.quantiles(values, n=4)
    return f"{middle:.4g} [{first:.4g}, {third:.4g}]"


def repeat(sets: int, runs: int, seed: int, seconds: float,
           scale: str) -> int:
    """Run the sets, print the comparison; non-zero when a pair of
    sets differs or a work counter fails to repeat."""
    values: List[Dict[str, Dict[str, List[float]]]] = []
    counts: List[Dict[str, Dict[str, float]]] = []
    for index in range(sets):
        order = spec.WORKLOADS if index % 2 == 0 else spec.WORKLOADS[::-1]
        values.append({w: {m: [] for m in spec.END_TO_END} for w in order})
        for run in range(runs):
            for workload in order:
                result = contract_run(workload, seed + run, seconds, scale, 0)
                for metric, entry in result["metrics"].items():
                    values[index][workload][metric].append(entry["value"])
                print(f"set {index + 1} run {run + 1} {workload}: "
                      f"correct={result['correct']}", file=sys.stderr)
        counts.append({
            workload: {name: entry["value"] for name, entry in
                       contract_run(workload, seed, seconds, scale,
                                    1)["metrics"].items()
                       if name in EXACT_COUNTS}
            for workload in READ_ONLY})

    failed = False
    for first, second in zip(range(sets - 1), range(1, sets)):
        print(f"\nset {first + 1} vs set {second + 1} "
              f"({runs} runs each, median [q1, q3])")
        for workload in spec.WORKLOADS:
            for metric, entry in spec.END_TO_END.items():
                a = values[first][workload][metric]
                b = values[second][workload][metric]
                verdict = judge(a, b, entry["bound"])
                failed |= verdict == DIFFERS
                print(f"  {workload:14} {metric:16} {quartiles(a):>28} "
                      f"{quartiles(b):>28} {entry['unit']:6} "
                      f"bound {entry['bound']:.2f}  {verdict}")
        for workload in READ_ONLY:
            for name in EXACT_COUNTS:
                a, b = counts[first][workload][name], \
                    counts[second][workload][name]
                if a != b:
                    failed = True
                    print(f"  {workload:14} {name}: {a} then {b} — "
                          f"a work counter did not repeat")
    return 1 if failed else 0
