"""Brute-force referee: exhaustive score, sort, top-k.

No index, no envelopes, no candidate filter: one boundary-distance
pass from the normalized query over every stored vertex, the mean per
normalized copy (the paper's ``h_avg``), the minimum per shape, a sort.
Every answer the benchmark accepts is compared with this, and its own
cost is the ``oracle.brute_ms`` floor row of the layer ladder.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro import Shape, ShapeBase
from repro.geometry.nearest import BoundaryDistance
from repro.geometry.transform import normalize_about_diameter

from .inputs import K, Image

#: Distances are sums of the same float64 terms in another order.
TOLERANCE = 1e-9

#: An answer in the form every entry point is reduced to.
Answer = List[Tuple[int, float]]       # (shape_id, distance), best first


def reference_base(images: Iterable[Image], alpha: float = 0.1) -> ShapeBase:
    """The corpus as a plain :class:`ShapeBase`, images in order."""
    base = ShapeBase(alpha=alpha)
    for image_id, shapes in images:
        base.add_shapes(shapes, image_ids=[image_id] * len(shapes))
    return base


class Referee:
    """Exact top-k over one fixed corpus, for one list of sketches."""

    def __init__(self, base: ShapeBase, sketches: Sequence[Shape] = ()):
        self._sketches = sketches
        self._copies: Dict[int, Dict[int, List[float]]] = {}
        entries = list(base)
        self._vertices = np.concatenate(
            [entry.shape.vertices for entry in entries], axis=0)
        counts = np.array([entry.shape.num_vertices for entry in entries])
        self._starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        self._counts = counts
        self._shape_of_entry = np.array([entry.shape_id
                                         for entry in entries])

    def copy_distances(self, sketch: Shape) -> Dict[int, List[float]]:
        """``shape_id -> h_avg`` of each of its normalized copies,
        ascending."""
        normalized = normalize_about_diameter(sketch).shape
        per_vertex = BoundaryDistance(normalized).distances(self._vertices)
        per_entry = np.add.reduceat(per_vertex, self._starts) / self._counts
        copies: Dict[int, List[float]] = {}
        for shape_id, value in zip(self._shape_of_entry.tolist(),
                                   per_entry.tolist()):
            copies.setdefault(shape_id, []).append(value)
        for values in copies.values():
            values.sort()
        return copies

    def top_k(self, sketch: Shape, k: int) -> Answer:
        return top_k(self.copy_distances(sketch), k)

    def copies(self, key: int) -> Dict[int, List[float]]:
        """:meth:`copy_distances` of sketch ``key``, computed once."""
        if key not in self._copies:
            self._copies[key] = self.copy_distances(self._sketches[key])
        return self._copies[key]

    def truth(self, key: int) -> Answer:
        """The top ``K`` every answer to sketch ``key`` is held to."""
        return top_k(self.copies(key), K)


def top_k(copies: Dict[int, List[float]], k: int) -> Answer:
    """Best copy per shape, sorted, first ``k``."""
    ranked = sorted(((shape_id, values[0])
                     for shape_id, values in copies.items()),
                    key=lambda item: (item[1], item[0]))
    return ranked[:k]


def recall(answer: Answer, truth: Answer) -> float:
    """``|answer ∩ truth| / k`` by shape id."""
    wanted = {shape_id for shape_id, _ in truth}
    return len(wanted & {shape_id for shape_id, _ in answer}) / len(truth)


def same_answer(answer: Answer, truth: Answer) -> bool:
    """Exact-tier check: the referee's shapes at the referee's distances."""
    return (len(answer) == len(truth) and recall(answer, truth) == 1.0 and
            all(abs(got - want) <= TOLERANCE
                for (_, got), (_, want) in zip(answer, truth)))


def distances_hold(answer: Answer, copies: Dict[int, List[float]]) -> bool:
    """Approximate-tier check.  A pruned search may miss a shape, or
    score only some of its normalized copies, but every distance it
    reports must be the true ``h_avg`` of a copy of that shape, best
    first."""
    values = [value for _, value in answer]
    return (values == sorted(values) and
            all(any(abs(value - copy) <= TOLERANCE
                    for copy in copies.get(shape_id, ()))
                for shape_id, value in answer))
