"""Per-image shape-relation graphs (paper Section 5).

For every image I the system maintains a directed graph G_I whose nodes
are the shapes of I and whose labeled edges record pairwise topology:
``v1 ->contain v2`` when v1 contains v2 and ``v1 ->overlap v2`` when the
two overlap (stored in both directions, overlap being symmetric).
Disjoint pairs get no edge.  Each edge carries the signed angle between
the two shapes' diameters, which the ``theta`` argument of the
topological predicates compares against.
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.diameter import diameter
from ..geometry.polyline import Shape
from ..geometry.predicates import (boundaries_contact, points_in_polygon,
                                   segments_intersect)
from ..geometry.primitives import EPSILON, signed_angle

CONTAIN = "contain"
OVERLAP = "overlap"
TANGENT = "tangent"
DISJOINT = "disjoint"

RELATIONS = (CONTAIN, OVERLAP, TANGENT, DISJOINT)

#: Wildcard angle accepted by all predicates.
ANY_ANGLE = "any"


def diameter_vector(shape: Shape) -> Tuple[float, float]:
    """Canonically-oriented diameter vector of a shape.

    The paper recovers diameters by applying the stored inverse
    transforms to ((0,0), (1,0)); a database shape has two stored
    orientations per diameter, so for the *graph* we fix a canonical
    direction: positive x-component, ties broken toward positive y.
    """
    (i, j), _ = diameter(shape.vertices)
    v = shape.vertices
    dx, dy = float(v[j][0] - v[i][0]), float(v[j][1] - v[i][1])
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy
    return (dx, dy)


def diameter_angle(a: Shape, b: Shape) -> float:
    """Signed angle rotating a's diameter onto b's, in ``(-pi, pi]``."""
    return signed_angle(diameter_vector(a), diameter_vector(b))


class _BuildStats:
    """Graph-construction accounting (memoization effectiveness)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.graphs_built = 0
        self.pair_tests = 0
        self.bbox_skips = 0

    def add(self, graphs: int = 0, pairs: int = 0, skips: int = 0) -> None:
        with self._lock:
            self.graphs_built += graphs
            self.pair_tests += pairs
            self.bbox_skips += skips

    def reset(self) -> None:
        with self._lock:
            self.graphs_built = 0
            self.pair_tests = 0
            self.bbox_skips = 0


#: Process-wide construction counters; tests assert that repeated
#: engine construction over an unchanged base builds nothing new.
GRAPH_BUILD_STATS = _BuildStats()


def _boundaries_intersect(a: Shape, b: Shape) -> Tuple[bool, bool]:
    """``(touching, properly_crossing)`` for the two boundaries.

    One broadcasted predicate call over all edge pairs (see
    :func:`repro.geometry.predicates.boundaries_contact`); equal to the
    scalar double loop :func:`_boundaries_intersect_scalar` pair for
    pair.
    """
    sa, ea = a.edges()
    sb, eb = b.edges()
    return boundaries_contact(sa, ea, sb, eb)


def _boundaries_intersect_scalar(a: Shape, b: Shape) -> Tuple[bool, bool]:
    """Reference implementation: pairwise scalar predicate loops."""
    from ..geometry.predicates import segments_properly_intersect
    sa, ea = a.edges()
    sb, eb = b.edges()
    touching = False
    for p1, q1 in zip(sa, ea):
        for p2, q2 in zip(sb, eb):
            if segments_properly_intersect(p1, q1, p2, q2):
                return True, True
            if not touching and segments_intersect(p1, q1, p2, q2):
                touching = True
    return touching, False


def relation_between(a: Shape, b: Shape) -> str:
    """Topological relation of ``a`` to ``b``.

    Returns ``"contain"`` (a contains b), ``"contained_by"`` (b contains
    a), ``"overlap"``, ``"tangent"`` or ``"disjoint"``.  Tangency — the
    abstract's contain/tangent/overlap trio — means the boundaries
    touch without properly crossing and neither interior engulfs the
    other.  Containment requires the container to be closed; full
    containment with an inner tangency still counts as containment.
    """
    touching, crossing = _boundaries_intersect(a, b)
    a_in_b = b.closed and bool(points_in_polygon(a.vertices,
                                                 b.vertices).all())
    b_in_a = a.closed and bool(points_in_polygon(b.vertices,
                                                 a.vertices).all())
    if not touching:
        if b_in_a and not a_in_b:
            return CONTAIN
        if a_in_b and not b_in_a:
            return "contained_by"
        if a_in_b and b_in_a:
            return OVERLAP          # coincident boundaries
        return DISJOINT
    if b_in_a and not a_in_b:
        return CONTAIN
    if a_in_b and not b_in_a:
        return "contained_by"
    if crossing:
        return OVERLAP
    return TANGENT


class RelationEdge:
    """One labeled, angle-annotated edge of an image graph."""

    __slots__ = ("source", "target", "label", "angle")

    def __init__(self, source: int, target: int, label: str, angle: float):
        self.source = source
        self.target = target
        self.label = label
        self.angle = angle

    def __repr__(self) -> str:
        return (f"RelationEdge({self.source} ->{self.label} {self.target}, "
                f"angle={self.angle:.3f})")


class ImageGraph:
    """G_I = (V_I, E_I): shapes of one image plus their relations."""

    def __init__(self, image_id: int):
        self.image_id = image_id
        self.shapes: Dict[int, Shape] = {}
        self._out: Dict[int, List[RelationEdge]] = {}
        self._in: Dict[int, List[RelationEdge]] = {}

    # -- construction ---------------------------------------------------
    def add_shape(self, shape_id: int, shape: Shape) -> None:
        if shape_id in self.shapes:
            raise ValueError(f"shape {shape_id} already in image graph")
        # Relate against all existing members before inserting.
        for other_id, other in self.shapes.items():
            GRAPH_BUILD_STATS.add(pairs=1)
            self._relate(shape_id, shape, other_id, other)
        self.shapes[shape_id] = shape
        self._out.setdefault(shape_id, [])
        self._in.setdefault(shape_id, [])

    def _relate(self, shape_id: int, shape: Shape,
                other_id: int, other: Shape) -> None:
        """Classify one pair and record its edges (if any)."""
        relation = relation_between(shape, other)
        if relation == DISJOINT:
            return
        angle = diameter_angle(shape, other)
        if relation == CONTAIN:
            self._add_edge(shape_id, other_id, CONTAIN, angle)
        elif relation == "contained_by":
            self._add_edge(other_id, shape_id, CONTAIN, -angle)
        else:
            # overlap and tangent are symmetric: one edge each way.
            self._add_edge(shape_id, other_id, relation, angle)
            self._add_edge(other_id, shape_id, relation, -angle)

    @classmethod
    def from_shapes(cls, image_id: int,
                    members: Sequence[Tuple[int, Shape]]) -> "ImageGraph":
        """Build a whole image's graph in one pass.

        Equivalent to :meth:`add_shape` in member order, but pairs
        whose bounding boxes are separated by more than the predicate
        epsilon are classified disjoint without touching the boundary
        predicates at all — separated boxes can neither touch nor
        contain each other, so the skip is exact.  The surviving pairs
        run through the batched boundary predicate.
        """
        graph = cls(image_id)
        members = list(members)
        if not members:
            return graph
        boxes = np.array([m[1].bbox() for m in members], dtype=np.float64)
        pairs = 0
        skips = 0
        for k, (shape_id, shape) in enumerate(members):
            for j in range(k):
                other_id, other = members[j]
                separated = (
                    boxes[k, 2] < boxes[j, 0] - EPSILON or
                    boxes[j, 2] < boxes[k, 0] - EPSILON or
                    boxes[k, 3] < boxes[j, 1] - EPSILON or
                    boxes[j, 3] < boxes[k, 1] - EPSILON)
                if separated:
                    skips += 1
                    continue
                pairs += 1
                graph._relate(shape_id, shape, other_id, other)
            graph.shapes[shape_id] = shape
            graph._out.setdefault(shape_id, [])
            graph._in.setdefault(shape_id, [])
        GRAPH_BUILD_STATS.add(graphs=1, pairs=pairs, skips=skips)
        return graph

    def _add_edge(self, source: int, target: int, label: str,
                  angle: float) -> None:
        edge = RelationEdge(source, target, label, angle)
        self._out.setdefault(source, []).append(edge)
        self._in.setdefault(target, []).append(edge)

    # -- queries ----------------------------------------------------------
    def out_edges(self, shape_id: int,
                  label: Optional[str] = None) -> List[RelationEdge]:
        edges = self._out.get(shape_id, [])
        if label is None:
            return list(edges)
        return [e for e in edges if e.label == label]

    def in_edges(self, shape_id: int,
                 label: Optional[str] = None) -> List[RelationEdge]:
        edges = self._in.get(shape_id, [])
        if label is None:
            return list(edges)
        return [e for e in edges if e.label == label]

    def relation(self, s1: int, s2: int) -> Tuple[str, Optional[float]]:
        """Relation and angle from s1 to s2 as recorded in the graph."""
        for edge in self._out.get(s1, []):
            if edge.target == s2:
                return edge.label, edge.angle
        for edge in self._in.get(s1, []):
            if edge.source == s2 and edge.label == CONTAIN:
                return "contained_by", -edge.angle
        return DISJOINT, None

    def disjoint_pairs(self) -> Iterable[Tuple[int, int]]:
        """All unordered shape pairs with no edge (the disjoint pairs)."""
        ids = sorted(self.shapes)
        for i, s1 in enumerate(ids):
            related = {e.target for e in self._out.get(s1, [])}
            related |= {e.source for e in self._in.get(s1, [])}
            for s2 in ids[i + 1:]:
                if s2 not in related:
                    yield (s1, s2)

    @property
    def num_edges(self) -> int:
        return sum(len(edges) for edges in self._out.values())

    def __len__(self) -> int:
        return len(self.shapes)

    def __repr__(self) -> str:
        return (f"ImageGraph(image={self.image_id}, shapes={len(self)}, "
                f"edges={self.num_edges})")


def build_image_graphs(entries: Iterable[Tuple[int, Shape, Optional[int]]]
                       ) -> Dict[int, "ImageGraph"]:
    """Group ``(shape_id, shape, image_id)`` rows into per-image graphs.

    Rows with ``image_id is None`` are skipped (shapes without an image
    cannot participate in image-level topology).  Each image's graph is
    built through the batched :meth:`ImageGraph.from_shapes` path.
    """
    members: Dict[int, List[Tuple[int, Shape]]] = {}
    for shape_id, shape, image_id in entries:
        if image_id is None:
            continue
        members.setdefault(image_id, []).append((shape_id, shape))
    return {image_id: ImageGraph.from_shapes(image_id, rows)
            for image_id, rows in members.items()}


#: owner object -> (version, graphs).  Weak keys: a dropped base drops
#: its graphs.  One entry per owner; a version bump (ingest/remove)
#: replaces the entry on the next request.
_GRAPH_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_GRAPH_MEMO_LOCK = threading.Lock()


def image_graphs(owner, version: int,
                 entries_fn) -> Dict[int, "ImageGraph"]:
    """Per-owner, per-version memoized image graphs.

    ``owner`` is the object whose mutation counter ``version`` tracks
    (the engine's service's shard set); ``entries_fn()`` yields
    ``(shape_id, shape, image_id)`` rows.  Every engine over the same
    service shares one set of graphs, and graphs
    are rebuilt exactly once per version — the construction counters in
    :data:`GRAPH_BUILD_STATS` let tests pin this down.
    """
    with _GRAPH_MEMO_LOCK:
        memo = _GRAPH_MEMO.get(owner)
        if memo is not None and memo[0] == version:
            return memo[1]
        graphs = build_image_graphs(entries_fn())
        _GRAPH_MEMO[owner] = (version, graphs)
        return graphs


def angle_matches(angle: Optional[float], theta, tolerance: float) -> bool:
    """Does a recorded angle satisfy the predicate's theta?

    ``theta`` is either :data:`ANY_ANGLE` or a value in ``[-2pi, 2pi]``;
    values are compared modulo 2*pi with the given tolerance.
    """
    if theta == ANY_ANGLE:
        return True
    if angle is None:
        return False
    delta = (angle - float(theta)) % (2.0 * math.pi)
    if delta > math.pi:
        delta = 2.0 * math.pi - delta
    return delta <= tolerance
