"""A deliberately naive oracle for the query algebra and for top-k.

:class:`ReferenceExecutor` answers every query by brute force:

* ``shape_similar`` and ``top_k`` measure every copy of every shape with
  scalar :func:`~repro.core.measures.directed_average_distance` calls
  (never the tiers' batched kernel) under the tiers' rules: best copy by
  ``(value, entry_id)``, similar at ``<= threshold + EPSILON``, top-k by
  ``(distance, shape_id)``; no envelope schedule, no index;
* topological operators re-classify every ordered shape pair of every
  image with :func:`~repro.query.graph.relation_between` — no relation
  graphs, no selectivity-driven strategy choice;
* composite queries evaluate by direct set semantics on the AST —
  union, intersection, complement against the image universe — with no
  DNF rewrite, no planning, no caching of any kind.

Slow by design and independent of everything the planner and the
retrieval tiers do, it is the ground truth: the planner must reproduce
its algebra answers (``tests/test_algebra_differential.py``) and every
guaranteed top-k answer its ``top_k``, bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..core.matcher import Match
from ..core.measures import directed_average_distance
from ..core.shapebase import ShapeBase
from ..geometry.nearest import BoundaryDistance
from ..geometry.polyline import Shape
from ..geometry.primitives import EPSILON
from ..geometry.transform import normalize_about_diameter
from .algebra import (ComplementNode, IntersectionNode, QueryNode, Similar,
                      Topological, UnionNode)
from .graph import (ANY_ANGLE, CONTAIN, angle_matches, diameter_angle,
                    relation_between)


class ReferenceExecutor:
    """Brute-force evaluation of algebra and top-k queries over one base."""

    def __init__(self, base: ShapeBase, similarity_threshold: float = 0.05,
                 angle_tolerance: float = 0.15):
        if similarity_threshold < 0:
            raise ValueError("similarity_threshold must be non-negative")
        self.base = base
        self.similarity_threshold = float(similarity_threshold)
        self.angle_tolerance = float(angle_tolerance)

    # -- primitives ----------------------------------------------------
    def all_images(self) -> Set[int]:
        return set(self.base.image_ids())

    def _best_copies(self, query: Shape) -> Dict[int, Tuple[float, int]]:
        """Per shape, its best ``(h_avg, entry_id)`` over all copies."""
        normalized = normalize_about_diameter(query).shape
        engine = BoundaryDistance(normalized)
        best: Dict[int, Tuple[float, int]] = {}
        for shape_id in self.base.shape_ids():
            for entry_id in self.base.entries_of_shape(shape_id):
                measured = (directed_average_distance(
                    self.base.entry(entry_id).shape, normalized, engine),
                    entry_id)
                if shape_id not in best or measured < best[shape_id]:
                    best[shape_id] = measured
        return best

    def shape_similar(self, query: Shape) -> Set[int]:
        threshold = self.similarity_threshold + EPSILON
        return {shape_id for shape_id, (value, _) in
                self._best_copies(query).items() if value <= threshold}

    def top_k(self, sketch: Shape, k: int) -> List[Match]:
        """The exact ``k`` best shapes, each at its best copy's
        ``h_avg``, ordered by ``(distance, shape_id)``."""
        if k < 1:
            raise ValueError("k must be >= 1")
        ranked = sorted(self._best_copies(sketch).items(),
                        key=lambda item: (item[1][0], item[0]))[:k]
        return [Match(shape_id=shape_id,
                      image_id=self.base.image_of_shape(shape_id),
                      distance=value, entry_id=entry_id)
                for shape_id, (value, entry_id) in ranked]

    def similar(self, query: Shape) -> Set[int]:
        images = set()
        for shape_id in self.shape_similar(query):
            image_id = self.base.image_of_shape(shape_id)
            if image_id is not None:
                images.add(image_id)
        return images

    def _pair_holds(self, a: Shape, b: Shape, relation: str,
                    theta) -> bool:
        found = relation_between(a, b)
        if relation == CONTAIN:
            if found != CONTAIN:
                return False
        elif found != relation:
            return False
        if theta == ANY_ANGLE:
            return True
        return angle_matches(diameter_angle(a, b), theta,
                             self.angle_tolerance)

    def topological(self, relation: str, q1: Shape, q2: Shape,
                    theta=ANY_ANGLE) -> Set[int]:
        set1 = self.shape_similar(q1)
        set2 = self.shape_similar(q2)
        result: Set[int] = set()
        for image_id in self.base.image_ids():
            members = self.base.shapes_of_image(image_id)
            found = False
            for s1 in members:
                if s1 not in set1:
                    continue
                for s2 in members:
                    if s2 == s1 or s2 not in set2:
                        continue
                    if self._pair_holds(self.base.shapes[s1],
                                        self.base.shapes[s2],
                                        relation, theta):
                        found = True
                        break
                if found:
                    break
            if found:
                result.add(image_id)
        return result

    # -- composite queries ---------------------------------------------
    def execute(self, node: QueryNode) -> Set[int]:
        """Direct set semantics on the AST — no rewriting, no plan."""
        if isinstance(node, Similar):
            return self.similar(node.query_shape)
        if isinstance(node, Topological):
            return self.topological(node.relation, node.q1, node.q2,
                                    node.theta)
        if isinstance(node, UnionNode):
            return self.execute(node.left) | self.execute(node.right)
        if isinstance(node, IntersectionNode):
            return self.execute(node.left) & self.execute(node.right)
        if isinstance(node, ComplementNode):
            return self.all_images() - self.execute(node.operand)
        raise TypeError(f"unknown query node {type(node).__name__}")
