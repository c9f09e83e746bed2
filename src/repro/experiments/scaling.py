"""Section 2.5: per-query cost vs base size (the poly-log claim).

The output-sensitive regime the paper's analysis lives in: every query
is a randomly transformed copy of a *stored* shape, so the guarantee
fires as soon as the planted match is confirmed and the work counters
reflect the algorithm, not a floor imposed by the query distance (see
EXPERIMENTS.md, finding 3).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.matcher import GeometricSimilarityMatcher
from .common import ExperimentResult, build_workload_base


def matching_scaling(sizes: Sequence[int] = (15, 30, 60, 120),
                     queries_per_size: int = 4,
                     seed: int = 99) -> ExperimentResult:
    """Per-query time, K and iterations across a geometric size sweep."""
    rows = []
    series_time = []
    series_k = []
    metrics = {}
    first = None
    for num_images in sizes:
        _, base = build_workload_base(num_images, seed)
        matcher = GeometricSimilarityMatcher(base)
        query_rng = np.random.default_rng(seed + 7)
        shape_ids = query_rng.choice(base.shape_ids(),
                                     size=queries_per_size, replace=False)
        queries = [base.shapes[int(sid)]
                   .rotated(float(query_rng.uniform(0, 6)))
                   .scaled(float(query_rng.uniform(0.5, 2.0)))
                   for sid in shape_ids]
        times, processed, iterations = [], [], []
        triangles, range_queries = [], []
        for query in queries:
            start = time.perf_counter()
            matcher.query(query, k=1)
            times.append(time.perf_counter() - start)
            _, stats = matcher.query(query, k=1)
            processed.append(stats.vertices_processed)
            iterations.append(stats.iterations)
            triangles.append(stats.triangles_queried)
            range_queries.append(stats.range_queries)
        n = base.total_vertices
        point = {"n": n, "time": float(np.mean(times)),
                 "K": float(np.mean(processed)),
                 "iterations": float(np.mean(iterations))}
        if first is None:
            first = point
        rows.append([n, point["time"] * 1e3, point["K"],
                     point["iterations"], float(np.mean(triangles)),
                     float(np.mean(range_queries))])
        series_time.append((float(n), point["time"] * 1e3))
        series_k.append((float(n), point["K"]))
        metrics[f"time_at_{n}"] = point["time"]
        metrics[f"K_at_{n}"] = point["K"]
    last_n = rows[-1][0]
    metrics["n_ratio"] = last_n / rows[0][0]
    metrics["time_ratio"] = rows[-1][1] / rows[0][1]
    metrics["K_ratio"] = (rows[-1][2] or 1.0) / (rows[0][2] or 1.0)
    return ExperimentResult(
        name="scaling",
        title="Section 2.5: per-query cost vs total vertices n",
        headers=["n", "ms/query", "K (vertices processed)", "iterations",
                 "triangles queried", "range queries"],
        rows=rows, metrics=metrics,
        series=[("query ms", series_time), ("K", series_k)],
        notes=[f"n grew {metrics['n_ratio']:.1f}x; time "
               f"{metrics['time_ratio']:.1f}x; K "
               f"{metrics['K_ratio']:.1f}x (poly-log: both far below "
               f"the n ratio)"])
