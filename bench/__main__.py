"""Command line of the benchmark (see ``bench/README.md``).

``python3 -m bench --workload W --seed S --seconds N --trace 0|1`` is
one run in the form ``BENCHMARK.json`` promises: the last line of
standard output is one JSON object.  ``run``, ``trace`` and ``repeat``
are the same runs arranged for a person to read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy

from . import spec
from .inputs import SCALES, make_inputs
from .ladder import run_traced
from .repeat import repeat
from .workloads import run_end_to_end

RESULTS = Path(__file__).resolve().parent / "results"


@contextmanager
def run_directory() -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards.

    ``repro`` and ``multiprocessing`` take temporary files from
    ``tempfile``; pointing it here keeps every byte a run writes under
    ``bench/results/``.
    """
    RESULTS.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS))
    previous = tempfile.tempdir
    tempfile.tempdir = str(path)
    os.environ["TMPDIR"] = str(path)
    try:
        yield path
    finally:
        tempfile.tempdir = previous
        shutil.rmtree(path, ignore_errors=True)


def environment(seed: int, scale: str, seconds: float) -> dict:
    """The header every stored result carries."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=spec.ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"            # a checkout without its history
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed, "scale": scale,
            "seconds": seconds}


def one_run(workload: str, seed: int, seconds: float, scale: str,
            trace: bool):
    inputs = make_inputs(seed, SCALES[scale])
    with run_directory() as workdir:
        if not trace:
            return run_end_to_end(workload, inputs, seconds, workdir)
        traced = run_traced(workload, inputs, seconds, workdir)
    traced.tracer.write(RESULTS / f"trace-seed{seed}" /
                        f"{workload}.spans.jsonl")
    return traced


def contract_line(result, metrics: Dict[str, dict]) -> str:
    """The result line.  A layer the workload never crossed reads 0;
    an end-to-end metric a run failed to produce is an error."""
    values = result.metrics
    if metrics is spec.PER_LAYER:
        values = {name: values.get(name, 0.0) for name in metrics}
    return json.dumps({"correct": result.correct,
                       "attempted": result.attempted,
                       "failed": result.failed,
                       "metrics": spec.with_units(values, metrics)})


def contract(args: argparse.Namespace) -> int:
    result = one_run(args.workload, args.seed, args.seconds, args.scale,
                     bool(args.trace))
    for problem in result.problems:
        print(problem, file=sys.stderr)
    print(contract_line(result, spec.PER_LAYER if args.trace
                        else spec.END_TO_END))
    return 0 if result.correct else 1


def show(result, metrics: Dict[str, dict]) -> None:
    print(f"\n{result.workload}: correct={result.correct} "
          f"attempted={result.attempted} failed={result.failed}")
    for problem in result.problems:
        print(f"  ! {problem}")
    counts = getattr(result, "samples", {})
    for name, entry in metrics.items():
        if name in result.metrics:
            note = f"  (n={counts[name]})" if name in counts else ""
            print(f"  {name:44} {result.metrics[name]:14.4f} "
                  f"{entry['unit']}{note}")


def every_workload(args: argparse.Namespace, trace: bool) -> int:
    """``run`` / ``trace``: all four workloads, printed and stored."""
    header = environment(args.seed, args.scale, args.seconds)
    print(json.dumps(header))
    metrics = spec.PER_LAYER if trace else spec.END_TO_END
    stored = {"environment": header, "workloads": {}}
    correct = True
    for workload in spec.WORKLOADS:
        result = one_run(workload, args.seed, args.seconds, args.scale,
                         trace)
        show(result, metrics)
        correct &= result.correct
        stored["workloads"][workload] = {
            "correct": result.correct, "attempted": result.attempted,
            "failed": result.failed, "metrics": result.metrics}
    kind = "trace" if trace else "run"
    path = RESULTS / f"{kind}-seed{args.seed}" / "result.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stored, indent=1))
    print(f"\nstored in {path.relative_to(spec.ROOT)}"
          + (" beside the spans" if trace else ""))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__)
    parser.add_argument("command", nargs="?", default="contract",
                        choices=("contract", "run", "trace", "repeat"))
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.command == "run":
        return every_workload(args, trace=False)
    if args.command == "trace":
        return every_workload(args, trace=True)
    if args.command == "repeat":
        return repeat(args.sets, args.runs, args.seed, args.seconds,
                      args.scale)
    if args.workload is None:
        parser.error("--workload is required")
    return contract(args)


if __name__ == "__main__":
    sys.exit(main())
