"""Smoke test of the benchmark itself (not part of tier-1).

``python3 -m pytest bench/test_smoke.py`` runs every workload once
untraced and once traced at ``--scale smoke`` — about a minute — and
checks what ``BENCHMARK.json`` promises about names, not about speed.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Dict, Set

import numpy as np
import pytest

from bench import procstat, spec
from bench.__main__ import RESULTS, contract_line, one_run
from bench.inputs import SMOKE, make_inputs
from bench.repeat import EXACT_COUNTS, READ_ONLY

SEED = 7
SECONDS = 1.0


def left_behind() -> Set[str]:
    """Shared-memory segments, ``repro-*`` temporary directories and
    run directories that exist right now."""
    found = {str(path) for path in Path("/dev/shm").glob("*")}
    for directory in (Path(tempfile.gettempdir()), RESULTS):
        found |= {str(path) for pattern in ("repro-*", "run-*")
                  for path in directory.glob(pattern)}
    return found


@pytest.fixture(scope="module")
def runs() -> Dict[str, dict]:
    """Every workload untraced and traced, the read-only ones traced
    twice; after each run, what it left alive or on disk."""
    before = left_behind()
    results: Dict[str, dict] = {"plain": {}, "traced": {}, "again": {},
                                "leaks": {}}
    for workload in spec.WORKLOADS:
        kinds = [("plain", False), ("traced", True)]
        if workload in READ_ONLY:
            kinds.append(("again", True))
        for kind, trace in kinds:
            results[kind][workload] = one_run(workload, SEED, SECONDS,
                                              SMOKE.name, trace)
            results["leaks"][workload, kind] = (
                procstat.descendants(), left_behind() - before)
    return results


def test_every_end_to_end_metric_is_emitted_with_its_unit(runs):
    for workload in spec.WORKLOADS:
        result = runs["plain"][workload]
        assert result.correct, result.problems
        assert result.failed == 0 and result.attempted >= 1
        line = json.loads(contract_line(result, spec.END_TO_END))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(spec.END_TO_END)
        for name, entry in line["metrics"].items():
            assert entry["unit"] == spec.END_TO_END[name]["unit"]
            assert entry["value"] > 0, (workload, name)


def test_every_per_layer_metric_is_emitted_by_some_workload(runs):
    emitted: Set[str] = set()
    for workload in spec.WORKLOADS:
        result = runs["traced"][workload]
        assert result.correct, result.problems
        unnamed = set(result.metrics) - set(spec.PER_LAYER)
        assert not unnamed, f"{workload} emits {unnamed}, BENCHMARK.json " \
                            f"does not name them"
        emitted |= set(result.metrics)
    assert emitted == set(spec.PER_LAYER)


def test_work_counters_repeat_exactly_for_one_seed(runs):
    for workload in READ_ONLY:
        first, second = (runs[kind][workload].metrics
                         for kind in ("traced", "again"))
        for name in EXACT_COUNTS:
            assert first.get(name) == second.get(name), (workload, name)
    assert runs["traced"]["exact-1shard"].metrics[
        "core.matcher.triangles_queried"] > 0


def test_the_seed_decides_the_query_list():
    def vertices(seed: int) -> np.ndarray:
        return np.concatenate([query.shape.vertices for query in
                               make_inputs(seed, SMOKE).exact])
    assert np.array_equal(vertices(SEED), vertices(SEED))
    assert not np.array_equal(vertices(SEED), vertices(SEED + 1))


def test_nothing_is_left_behind(runs):
    for (workload, kind), (alive, files) in runs["leaks"].items():
        assert not alive, f"{workload} ({kind}) left processes {alive}"
        assert not files, f"{workload} ({kind}) left {sorted(files)}"
