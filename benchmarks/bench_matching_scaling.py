"""Section 2.5: expected poly-logarithmic matching complexity.

The paper proves an expected O(log^4 n) bound and notes the observed
behaviour is "much better".  Regeneration logic:
:func:`repro.experiments.matching_scaling` (planted exact-match queries
— the output-sensitive regime; see EXPERIMENTS.md finding 3).
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments import matching_scaling
from .conftest import write_table

SIZES = tuple(int(s) for s in os.environ.get(
    "REPRO_BENCH_SCALING_SIZES", "15,30,60,120").split(","))
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_matcher.json"


def record_trajectory(result) -> None:
    """Append one point to the matcher-performance trajectory.

    ``BENCH_matcher.json`` tracks per-query cost across the PR series;
    the CI smoke job appends a point per run (as a build artifact).
    Gated on ``REPRO_BENCH_LABEL`` so ad-hoc local runs do not dirty
    the committed history.
    """
    label = os.environ.get("REPRO_BENCH_LABEL")
    if not label:
        return
    if BENCH_JSON.exists():
        history = json.loads(BENCH_JSON.read_text())
    else:
        history = {"benchmark": "matching_scaling",
                   "metric": "per_query_ms", "trajectory": []}
    history["trajectory"].append({
        "label": label,
        "rows": [{"n": int(row[0]),
                  "per_query_ms": round(float(row[1]), 3),
                  "vertices_processed": round(float(row[2]), 1),
                  "iterations": round(float(row[3]), 2),
                  "triangles_queried": round(float(row[4]), 1),
                  "range_queries": round(float(row[5]), 2)}
                 for row in result.rows],
    })
    BENCH_JSON.write_text(json.dumps(history, indent=2) + "\n")


@pytest.fixture(scope="module")
def scaling():
    result = matching_scaling(sizes=SIZES)
    write_table("matching_scaling", [result.render()])
    record_trajectory(result)
    return result


def test_scaling_sublinear_time(scaling, benchmark):
    benchmark(lambda: None)
    assert scaling.metrics["n_ratio"] >= 6.0     # sweep actually spans
    assert scaling.metrics["time_ratio"] < 0.6 * scaling.metrics["n_ratio"]


def test_scaling_sublinear_vertices_processed(scaling, benchmark):
    """K (vertices in envelopes) grows sublinearly with n."""
    benchmark(lambda: None)
    assert scaling.metrics["K_ratio"] < 0.8 * scaling.metrics["n_ratio"]


def test_scaling_iterations_stay_small(scaling, benchmark):
    benchmark(lambda: None)
    assert all(row[3] <= 40 for row in scaling.rows)


def test_single_query_benchmark(base, matcher, query_set, benchmark):
    query, _ = query_set[0]
    matches, _ = benchmark(matcher.query, query, 1)
    assert matches
