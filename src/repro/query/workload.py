"""Controlled algebra workloads and the planner comparison harness.

The planner's wins come from *selectivity skew*: a conjunctive term
with one rare (or absent) operand should evaluate that operand first
and touch the common operands only inside the surviving images — or
not at all when the seed is empty.  :func:`algebra_base` builds bases
with exactly that skew, with known prototypes:

* ``common*`` — low-V_S shapes planted in most images (big result
  sets, high estimated selectivity);
* ``rare`` — a crisp high-V_S star planted in a small fraction of the
  images (small result set, low estimate);
* ``absent`` — an even crisper star planted in *no* image (empty
  result set; the V_S estimator ranks it cheapest without ever having
  seen it).

:func:`composite_queries` derives a seeded mixed query workload over
those prototypes, and :func:`compare_planner` times the same workload
through the unplanned baseline, the planner, and the planner with the
subplan cache — the rows behind ``BENCH_algebra.json`` and
``serve-bench --algebra``.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.shapebase import ShapeBase
from ..geometry.polyline import Shape
from ..imaging.synthesis import (distort, notched_box, place_randomly,
                                 random_blob, star_polygon,
                                 zigzag_polyline)
from ..service.service import RetrievalService, ServiceConfig
from .algebra import QueryNode, Similar, contain, disjoint, overlap
from .executor import QueryEngine

#: Similarity threshold the algebra workloads run at.  Chosen against
#: the prototype pool below: in-family distances (instances distorted
#: by ~1% boundary noise) stay under ~0.015 while every cross-family
#: distance measured through the matcher exceeds 0.028, so the planted
#: selectivity skew survives the threshold query.
ALGEBRA_THRESHOLD = 0.02


def algebra_prototypes(rng: np.random.Generator) -> Dict[str, Shape]:
    """The skewed prototype set (see the module docstring).

    The families were picked empirically for mutual separation under
    the (asymmetric) average-distance measure — few-vertex convex
    polygons sit close to spiky stars' boundaries, so commons are a
    triangle, a notched box and an open zigzag, the rare prototype a
    smooth high-V_S blob and the absent one a 12-spike star.
    """
    return {
        "common_a": Shape.regular_polygon(3, phase=float(rng.uniform(0, 1))),
        "common_b": notched_box(float(rng.uniform(0.35, 0.45))),
        "common_c": zigzag_polyline(rng, 12, amplitude=0.3),
        "rare": random_blob(rng, 20, irregularity=0.3),
        "absent": star_polygon(points=12, inner=0.55,
                               phase=float(rng.uniform(0, math.pi))),
    }


def algebra_base(num_images: int, rng: np.random.Generator,
                 rare_every: int = 6, noise: float = 0.01,
                 alpha: float = 0.1
                 ) -> Tuple[ShapeBase, Dict[str, Shape]]:
    """A base with planted selectivity skew.

    Every image carries two or three common instances (chosen round-
    robin so the common prototypes stay dense); every ``rare_every``-th
    image additionally carries a ``rare`` instance, sometimes placed to
    overlap a common one.  The ``absent`` prototype is never planted.
    """
    if num_images < 1:
        raise ValueError("num_images must be positive")
    protos = algebra_prototypes(rng)
    commons = [protos["common_a"], protos["common_b"], protos["common_c"]]
    shapes: List[Shape] = []
    image_ids: List[int] = []
    for image_id in range(num_images):
        count = 2 + (image_id % 2)
        for slot in range(count):
            proto = commons[(image_id + slot) % len(commons)]
            instance = place_randomly(distort(proto, noise, rng), rng)
            shapes.append(instance)
            image_ids.append(image_id)
        if image_id % rare_every == 0:
            instance = distort(protos["rare"], noise, rng)
            anchor = shapes[-1]
            if image_id % (2 * rare_every) == 0:
                # Drop the star onto the last common instance so
                # overlap/contain predicates have planted positives.
                xmin, ymin, xmax, ymax = anchor.bbox()
                scale = 0.9 * max(xmax - xmin, ymax - ymin) / 2.0
                instance = instance.scaled(scale).translated(
                    (xmin + xmax) / 2.0, (ymin + ymax) / 2.0)
            else:
                instance = place_randomly(instance, rng)
            shapes.append(instance)
            image_ids.append(image_id)
    base = ShapeBase(alpha=alpha)
    base.add_shapes(shapes, image_ids=image_ids)
    return base, protos


def composite_queries(protos: Dict[str, Shape], count: int,
                      rng: np.random.Generator,
                      noise: float = 0.008) -> List[QueryNode]:
    """A seeded mixed workload of composite query trees.

    Each query re-distorts its prototypes (fresh leaves, so uncached
    modes really recompute) and cycles through the patterns the
    planner is supposed to exploit: rare-seeded conjunctions, absent
    operands (empty seed, the rest of the term skipped), restricted
    topological filters, unions and complements.
    """
    def instance(name: str) -> Shape:
        return distort(protos[name], noise, rng)

    queries: List[QueryNode] = []
    for index in range(count):
        pattern = index % 6
        if pattern == 0:
            queries.append(Similar(instance("common_a")) &
                           Similar(instance("rare")))
        elif pattern == 1:
            queries.append(Similar(instance("common_a")) &
                           Similar(instance("common_b")) &
                           Similar(instance("absent")))
        elif pattern == 2:
            queries.append(overlap(instance("common_a"),
                                   instance("common_b")) &
                           Similar(instance("rare")))
        elif pattern == 3:
            queries.append((Similar(instance("rare")) |
                            Similar(instance("absent"))) &
                           Similar(instance("common_b")))
        elif pattern == 4:
            queries.append(Similar(instance("common_c")) &
                           ~Similar(instance("rare")))
        else:
            queries.append(contain(instance("rare"),
                                   instance("common_c")) &
                           Similar(instance("common_a")))
    return queries


#: The three execution modes the benchmark compares.
PLANNER_MODES: Tuple[Tuple[str, bool, int], ...] = (
    ("unplanned", False, 0),
    ("planned", True, 0),
    ("planned+cache", True, 256),
)


def compare_planner(base: ShapeBase, queries: Sequence[QueryNode],
                    similarity_threshold: float = ALGEBRA_THRESHOLD
                    ) -> List[dict]:
    """Run one workload through every planner mode; one row per mode.

    Each mode serves ``base`` on its own one-shard service whose
    ``cache_capacity`` is the mode's, so the leaf and subplan caches
    are per mode; its relation graphs are warmed before timing.
    Result sets are checked identical across modes — a planner that
    wins by being wrong fails here, not in production.
    """
    rows: List[dict] = []
    reference_results: Optional[List[frozenset]] = None
    for mode, planner, capacity in PLANNER_MODES:
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=1, workers=1, cache_capacity=capacity))
        engine = QueryEngine(service, similarity_threshold,
                             planner=planner)
        engine.graphs                    # warm outside the timed region
        engine.counters.reset()
        start = time.perf_counter()
        results = [frozenset(engine.execute(query)) for query in queries]
        wall = time.perf_counter() - start
        if reference_results is None:
            reference_results = results
        elif results != reference_results:
            raise AssertionError(
                f"mode {mode!r} disagrees with {PLANNER_MODES[0][0]!r}")
        counters = engine.counters.as_dict()
        rows.append({
            "mode": mode,
            "queries": len(queries),
            "wall_s": wall,
            "ms_per_query": wall * 1e3 / max(1, len(queries)),
            "sim_checks": (counters["similarity_checks"]
                           + counters["candidate_evaluations"]),
            "result_images": sum(len(r) for r in results),
            **counters,
        })
    return rows


def record_trajectory(rows: Sequence[dict], label: str, path,
                      header: Optional[dict] = None) -> None:
    """Append one labeled point to a ``BENCH_*.json`` history.

    Same protocol as ``BENCH_build.json`` / ``BENCH_ann.json``: the
    callers gate on ``REPRO_BENCH_LABEL`` so ad-hoc runs do not dirty
    the committed trajectory.  ``header`` seeds the benchmark/metric/
    protocol fields when the file does not exist yet; without it the
    algebra-planner header (this module's own benchmark) is used.
    """
    path = Path(path)
    if path.exists():
        history = json.loads(path.read_text())
    elif header is not None:
        history = {**header, "trajectory": []}
    else:
        history = {
            "benchmark": "algebra_planner",
            "metric": "sim_checks and ms/query, planned vs unplanned",
            "protocol": (
                "repro.query.workload: bases with planted selectivity "
                "skew (three common prototype families, one rare star "
                "planted every 6th image, one absent) and a seeded "
                "mixed composite-query workload (rare/absent-seeded "
                "conjunctions, topological filters, unions, "
                "complements).  compare_planner runs the identical "
                "workload through the unplanned DNF baseline, the "
                "selectivity-ordered planner, and the planner with the "
                "subplan cache; result sets are asserted identical "
                "across modes.  sim_checks = similarity_checks + "
                "candidate_evaluations.  Points are appended when "
                "REPRO_BENCH_LABEL is set (the CI algebra-smoke job "
                "does this on every run)."),
            "trajectory": [],
        }
    history["trajectory"].append({
        "label": label,
        "rows": [{key: (round(float(value), 4)
                        if isinstance(value, float) else value)
                  for key, value in row.items()}
                 for row in rows],
    })
    path.write_text(json.dumps(history, indent=2) + "\n")
