"""Kd-tree triangle range search.

A static, array-backed 2-d tree whose nodes own *contiguous* slices of a
permutation array, so a subtree fully inside the query triangle is
reported as one numpy slice — that is what makes the output-sensitive
``+ kappa`` term of the paper's query bound cheap in practice.

Pruning uses a separating-axis triangle/AABB test; leaves are resolved
with the vectorized point-in-triangle predicate.  On the uniform-ish
vertex distributions the paper assumes, queries over the O(m) skinny
envelope triangles touch O(poly-log n + kappa) nodes on average.

Batch queries (``report_triangles`` / ``count_triangles``) answer all
of an envelope ring's cover triangles in one *flat* traversal: the
frontier is a pair array ``(node, triangle)`` advanced one tree level
at a time, with every live pair classified against its node box in a
single vectorized separating-axis pass (:class:`_TriangleBatch`).  A
node fully inside *some* triangle is emitted once as a slice and all
pairs on it retire — the union over triangles is what the matcher
consumes, so fused reporting stays exact while the per-triangle,
per-node Python loop disappears.  ``candidates`` is that traversal
stopped at the leaves: partially overlapped leaves are emitted whole
and the caller refines them, which is all the fattening matcher needs.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..geometry.predicates import points_in_triangle
from ..geometry.primitives import EPSILON
from .base import Point, TriangleRangeIndex, as_triangle_array


class _TrianglePruner:
    """Per-query precomputation for fast triangle/AABB classification.

    The same query triangle is tested against many tree-node boxes; the
    separating-axis data (bbox and the three edge-normal projections of
    the triangle) is computed once here instead of per node.
    """

    __slots__ = ("xmin", "xmax", "ymin", "ymax", "axes")

    def __init__(self, a: Point, b: Point, c: Point):
        xs = (a[0], b[0], c[0])
        ys = (a[1], b[1], c[1])
        self.xmin, self.xmax = min(xs), max(xs)
        self.ymin, self.ymax = min(ys), max(ys)
        vertices = (a, b, c)
        axes = []
        for i in range(3):
            p, q = vertices[i], vertices[(i + 1) % 3]
            nx, ny = q[1] - p[1], p[0] - q[0]
            projections = [nx * vx + ny * vy for vx, vy in vertices]
            axes.append((nx, ny, min(projections), max(projections)))
        self.axes = axes

    def classify(self, bxmin: float, bymin: float, bxmax: float,
                 bymax: float) -> int:
        """0 = disjoint, 1 = partial overlap, 2 = box inside triangle."""
        if self.xmax < bxmin - EPSILON or self.xmin > bxmax + EPSILON or \
                self.ymax < bymin - EPSILON or self.ymin > bymax + EPSILON:
            return 0
        inside = (bxmin >= self.xmin and bxmax <= self.xmax and
                  bymin >= self.ymin and bymax <= self.ymax)
        for nx, ny, lo, hi in self.axes:
            # Project the box on the axis via its extreme corners.
            if nx >= 0.0:
                box_lo_x, box_hi_x = bxmin, bxmax
            else:
                box_lo_x, box_hi_x = bxmax, bxmin
            if ny >= 0.0:
                box_lo_y, box_hi_y = bymin, bymax
            else:
                box_lo_y, box_hi_y = bymax, bymin
            box_lo = nx * box_lo_x + ny * box_lo_y
            box_hi = nx * box_hi_x + ny * box_hi_y
            if hi < box_lo - EPSILON or lo > box_hi + EPSILON:
                return 0
            # Box fully on the inner side of this edge?
            if inside:
                inside = lo - EPSILON <= box_lo and box_hi <= hi + EPSILON
        return 2 if inside else 1


class _TriangleBatch:
    """Stacked SAT data for a whole batch of query triangles.

    The same quantities :class:`_TrianglePruner` derives per triangle —
    bbox plus the three edge-normal projection ranges — precomputed for
    all ``m`` triangles as ``(m, ...)`` arrays, so one traversal level
    classifies every live (node, triangle) pair with a handful of
    vectorized operations.  The arithmetic mirrors the scalar pruner
    operation for operation, which keeps batched and per-triangle
    classification decisions identical.
    """

    __slots__ = ("tris", "bbox", "nx", "ny", "lo", "hi")

    def __init__(self, tris: np.ndarray):
        self.tris = tris                                   # (m, 3, 2)
        xs, ys = tris[:, :, 0], tris[:, :, 1]
        self.bbox = np.column_stack([xs.min(axis=1), ys.min(axis=1),
                                     xs.max(axis=1), ys.max(axis=1)])
        nxt = tris[:, [1, 2, 0], :]
        self.nx = nxt[:, :, 1] - tris[:, :, 1]             # (m, 3)
        self.ny = tris[:, :, 0] - nxt[:, :, 0]
        proj = (self.nx[:, :, None] * xs[:, None, :] +
                self.ny[:, :, None] * ys[:, None, :])      # (m, 3, 3)
        self.lo = proj.min(axis=2)
        self.hi = proj.max(axis=2)

    def classify_pairs(self, boxes: np.ndarray, tri_ids: np.ndarray):
        """Classify ``(node box, triangle)`` pairs in one pass.

        ``boxes`` is ``(p, 4)`` as ``(xmin, ymin, xmax, ymax)``;
        ``tri_ids`` selects each pair's triangle.  Returns boolean
        masks ``(disjoint, inside)`` matching the scalar pruner's kinds
        0 and 2 (everything else is a partial overlap).
        """
        bxmin, bymin = boxes[:, 0], boxes[:, 1]
        bxmax, bymax = boxes[:, 2], boxes[:, 3]
        tb = self.bbox[tri_ids]
        disjoint = ((tb[:, 2] < bxmin - EPSILON) |
                    (tb[:, 0] > bxmax + EPSILON) |
                    (tb[:, 3] < bymin - EPSILON) |
                    (tb[:, 1] > bymax + EPSILON))
        inside = ((bxmin >= tb[:, 0]) & (bxmax <= tb[:, 2]) &
                  (bymin >= tb[:, 1]) & (bymax <= tb[:, 3]))
        nx, ny = self.nx[tri_ids], self.ny[tri_ids]        # (p, 3)
        lo, hi = self.lo[tri_ids], self.hi[tri_ids]
        box_lo_x = np.where(nx >= 0.0, bxmin[:, None], bxmax[:, None])
        box_hi_x = np.where(nx >= 0.0, bxmax[:, None], bxmin[:, None])
        box_lo_y = np.where(ny >= 0.0, bymin[:, None], bymax[:, None])
        box_hi_y = np.where(ny >= 0.0, bymax[:, None], bymin[:, None])
        box_lo = nx * box_lo_x + ny * box_lo_y
        box_hi = nx * box_hi_x + ny * box_hi_y
        disjoint |= ((hi < box_lo - EPSILON) |
                     (lo > box_hi + EPSILON)).any(axis=1)
        inside &= ((lo - EPSILON <= box_lo) &
                   (box_hi <= hi + EPSILON)).all(axis=1)
        return disjoint, inside & ~disjoint

    def points_in_any(self, px: np.ndarray, py: np.ndarray,
                      tri_ids: np.ndarray) -> np.ndarray:
        """Exact containment of point i in triangle ``tri_ids[i]``.

        Same half-plane + bbox arithmetic as
        :func:`~repro.geometry.predicates.points_in_triangle`, applied
        elementwise to (point, triangle) pairs.
        """
        t = self.tris[tri_ids]
        ax, ay = t[:, 0, 0], t[:, 0, 1]
        bx, by = t[:, 1, 0], t[:, 1, 1]
        cx, cy = t[:, 2, 0], t[:, 2, 1]
        d1 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        d2 = (cx - bx) * (py - by) - (cy - by) * (px - bx)
        d3 = (ax - cx) * (py - cy) - (ay - cy) * (px - cx)
        has_neg = (d1 < -EPSILON) | (d2 < -EPSILON) | (d3 < -EPSILON)
        has_pos = (d1 > EPSILON) | (d2 > EPSILON) | (d3 > EPSILON)
        tb = self.bbox[tri_ids]
        in_box = ((px >= tb[:, 0] - EPSILON) & (px <= tb[:, 2] + EPSILON) &
                  (py >= tb[:, 1] - EPSILON) & (py <= tb[:, 3] + EPSILON))
        return ~(has_neg & has_pos) & in_box


class KdTreeIndex(TriangleRangeIndex):
    """Array-backed static kd-tree over a 2-d point set."""

    def __init__(self, points: np.ndarray, leaf_size: int = 32):
        super().__init__(points)
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.leaf_size = int(leaf_size)
        n = len(self.points)
        self._perm = np.arange(n)
        # Node arrays; grown as lists during construction.
        starts: List[int] = []
        ends: List[int] = []
        lefts: List[int] = []
        rights: List[int] = []
        boxes: List[tuple] = []
        if n:
            stack = [(0, n, -1, False)]      # (start, end, parent, is_right)
            while stack:
                start, end, parent, is_right = stack.pop()
                node = len(starts)
                if parent >= 0:
                    if is_right:
                        rights[parent] = node
                    else:
                        lefts[parent] = node
                slice_points = self.points[self._perm[start:end]]
                boxes.append((slice_points[:, 0].min(), slice_points[:, 1].min(),
                              slice_points[:, 0].max(), slice_points[:, 1].max()))
                starts.append(start)
                ends.append(end)
                lefts.append(-1)
                rights.append(-1)
                if end - start <= self.leaf_size:
                    continue
                xmin, ymin, xmax, ymax = boxes[-1]
                dim = 0 if (xmax - xmin) >= (ymax - ymin) else 1
                mid = (start + end) // 2
                segment = self._perm[start:end]
                order = np.argpartition(self.points[segment, dim],
                                        mid - start)
                self._perm[start:end] = segment[order]
                stack.append((mid, end, node, True))
                stack.append((start, mid, node, False))
        self._starts = np.asarray(starts, dtype=np.int64)
        self._ends = np.asarray(ends, dtype=np.int64)
        self._lefts = np.asarray(lefts, dtype=np.int64)
        self._rights = np.asarray(rights, dtype=np.int64)
        self._boxes = np.asarray(boxes, dtype=np.float64) if boxes else \
            np.zeros((0, 4))
        # Plain tuples for the traversal hot loop (numpy scalar indexing
        # is ~5x slower than tuple unpacking).
        self._box_tuples = [(float(b[0]), float(b[1]), float(b[2]),
                             float(b[3])) for b in boxes]
        # Point count at the last full build; removed() rebuilds once
        # fewer than half of those points survive.
        self._built_n = n
        leaves = self._boxes[self._lefts < 0]
        self._resolution = float(np.median(np.hypot(
            leaves[:, 2] - leaves[:, 0],
            leaves[:, 3] - leaves[:, 1]))) if n else 0.0

    def removed(self, keep_mask: np.ndarray) -> "KdTreeIndex":
        """Shrink the tree to ``points[keep_mask]`` without rebuilding.

        The node topology and bounding boxes are *shared* with the old
        tree: boxes become conservative supersets of their surviving
        points, which keeps every disjoint / fully-inside classification
        correct (a superset box inside a triangle still implies all its
        points are; a superset box disjoint from it would have been
        disjoint anyway had it shrunk).  Only the permutation array and
        the node start/end offsets are recomputed, in O(n).  Once fewer
        than half of the last fully-built point set survives, the boxes
        are stale enough that a fresh build pays for itself.
        """
        keep = np.asarray(keep_mask, dtype=bool)
        if keep.shape != (len(self.points),):
            raise ValueError("keep_mask must have one flag per point")
        kept = int(keep.sum())
        if kept < max(1, self._built_n) * 0.5:
            return KdTreeIndex(self.points[keep], leaf_size=self.leaf_size)
        clone = object.__new__(KdTreeIndex)
        new_points = self.points[keep]
        new_points.setflags(write=False)
        clone.points = new_points
        clone.leaf_size = self.leaf_size
        kept_at = keep[self._perm]           # survival per perm position
        prefix = np.concatenate(([0], np.cumsum(kept_at)))
        new_id = np.cumsum(keep) - 1         # old point id -> new id
        clone._perm = new_id[self._perm[kept_at]]
        clone._starts = prefix[self._starts]
        clone._ends = prefix[self._ends]
        clone._lefts = self._lefts
        clone._rights = self._rights
        clone._boxes = self._boxes
        clone._box_tuples = self._box_tuples
        clone._built_n = self._built_n
        clone._resolution = self._resolution
        return clone

    @property
    def resolution(self) -> float:
        """Median leaf-box diagonal: bands thinner than a leaf cross the
        same leaves and cost the same :meth:`candidates` traversal."""
        return self._resolution

    # ------------------------------------------------------------------
    def report_triangle(self, a: Point, b: Point, c: Point) -> np.ndarray:
        if len(self.points) == 0:
            return np.zeros(0, dtype=np.int64)
        pruner = _TrianglePruner(a, b, c)
        boxes = self._box_tuples
        lefts = self._lefts
        chunks: List[np.ndarray] = []
        stack = [0]
        while stack:
            node = stack.pop()
            box = boxes[node]
            kind = pruner.classify(box[0], box[1], box[2], box[3])
            if kind == 0:
                continue
            start, end = self._starts[node], self._ends[node]
            if kind == 2:
                chunks.append(self._perm[start:end])
                continue
            left = lefts[node]
            if left < 0:            # leaf
                slice_perm = self._perm[start:end]
                mask = points_in_triangle(self.points[slice_perm], a, b, c)
                if mask.any():
                    chunks.append(slice_perm[mask])
                continue
            stack.append(left)
            stack.append(self._rights[node])
        if not chunks:
            return np.zeros(0, dtype=np.int64)
        out = np.concatenate(chunks)
        out.sort()
        return out

    def count_triangle(self, a: Point, b: Point, c: Point) -> int:
        if len(self.points) == 0:
            return 0
        pruner = _TrianglePruner(a, b, c)
        boxes = self._box_tuples
        total = 0
        stack = [0]
        while stack:
            node = stack.pop()
            box = boxes[node]
            kind = pruner.classify(box[0], box[1], box[2], box[3])
            if kind == 0:
                continue
            start, end = self._starts[node], self._ends[node]
            if kind == 2:
                total += int(end - start)
                continue
            left = self._lefts[node]
            if left < 0:
                slice_perm = self._perm[start:end]
                total += int(points_in_triangle(self.points[slice_perm],
                                                a, b, c).sum())
                continue
            stack.append(left)
            stack.append(self._rights[node])
        return total

    # ------------------------------------------------------------------
    # Batch queries: one flat traversal for a whole triangle batch.
    # ------------------------------------------------------------------
    def _descend(self, batch: _TriangleBatch, union: bool):
        """The flat traversal every batch query shares.

        The frontier of live ``(node, triangle)`` pairs starts as every
        triangle on the root and advances one tree level at a time, so
        a level costs O(1) vectorized passes.  Returns the pairs that
        left it other than by being disjoint, as four arrays
        ``(inside_nodes, inside_tris, leaf_nodes, leaf_tris)``: pairs
        whose node box lies inside their triangle, and leaf pairs whose
        box the triangle only partially overlaps.  With ``union`` a
        node inside *any* triangle retires every pair on it — reporting
        emits such a node once, so no emitted node has an emitted
        ancestor and no leaf pair sits on one; without it the pairs
        stay independent, which is what per-triangle counting needs.
        """
        lefts, rights = self._lefts, self._rights
        covered = np.zeros(len(lefts), dtype=bool)
        nodes = np.zeros(len(batch.tris), dtype=np.int64)
        tri_ids = np.arange(len(batch.tris), dtype=np.int64)
        inside_nodes: List[np.ndarray] = []
        inside_tris: List[np.ndarray] = []
        leaf_nodes: List[np.ndarray] = []
        leaf_tris: List[np.ndarray] = []
        while len(nodes):
            disjoint, inside = batch.classify_pairs(self._boxes[nodes],
                                                    tri_ids)
            inside_nodes.append(nodes[inside])
            inside_tris.append(tri_ids[inside])
            if union:
                covered[inside_nodes[-1]] = True
                live = ~(disjoint | covered[nodes])
            else:
                live = ~(disjoint | inside)
            nodes, tri_ids = nodes[live], tri_ids[live]
            is_leaf = lefts[nodes] < 0
            leaf_nodes.append(nodes[is_leaf])
            leaf_tris.append(tri_ids[is_leaf])
            nodes, tri_ids = nodes[~is_leaf], tri_ids[~is_leaf]
            tri_ids = np.concatenate([tri_ids, tri_ids])
            nodes = np.concatenate([lefts[nodes], rights[nodes]])
        return (np.concatenate(inside_nodes), np.concatenate(inside_tris),
                np.concatenate(leaf_nodes), np.concatenate(leaf_tris))

    def _node_points(self, nodes: np.ndarray):
        """Point ids under each of ``nodes``, concatenated in node order.

        Returns ``(point_ids, lengths)``: one gather through the
        permutation for all the nodes' slices, and each node's span so
        callers can ``np.repeat`` per-node data alongside.
        """
        starts = self._starts[nodes]
        lengths = self._ends[nodes] - starts
        total = int(lengths.sum())
        first = np.cumsum(lengths) - lengths
        pos = np.arange(total, dtype=np.int64) - np.repeat(first, lengths)
        return self._perm[np.repeat(starts, lengths) + pos], lengths

    def _batch_leaf_hits(self, batch: _TriangleBatch, nodes: np.ndarray,
                         tri_ids: np.ndarray):
        """Resolve partially-overlapped leaf pairs in one pass.

        Expands every (leaf, triangle) pair into its point instances and
        applies the exact point-in-triangle predicate elementwise;
        returns ``(point_ids, tri_ids)`` of the instances that hit.
        """
        point_idx, lengths = self._node_points(nodes)
        t = np.repeat(tri_ids, lengths)
        pts = self.points[point_idx]
        mask = batch.points_in_any(pts[:, 0], pts[:, 1], t)
        return point_idx[mask], t[mask]

    def report_triangles(self, triangles) -> np.ndarray:
        tris = as_triangle_array(triangles)
        if len(self.points) == 0 or len(tris) == 0:
            return np.zeros(0, dtype=np.int64)
        batch = _TriangleBatch(tris)
        inside_nodes, _, leaf_nodes, leaf_tris = self._descend(batch, True)
        # Emitted subtrees are pairwise disjoint and disjoint from the
        # leaf hits, so a plain sort suffices after the leaf dedup.
        hits, _ = self._batch_leaf_hits(batch, leaf_nodes, leaf_tris)
        out = np.concatenate([
            self._node_points(np.unique(inside_nodes))[0], np.unique(hits)])
        out.sort()
        return out

    def candidates(self, triangles) -> np.ndarray:
        """:meth:`report_triangles` at leaf resolution.

        The same traversal with the leaf stage removed: a subtree
        inside some triangle and a leaf partially overlapped by some
        triangle are both emitted whole, so no point is tested against
        a triangle.  Emitted nodes are never nested, which makes the
        ids unique.
        """
        tris = as_triangle_array(triangles)
        if len(self.points) == 0 or len(tris) == 0:
            return np.zeros(0, dtype=np.int64)
        inside_nodes, _, leaf_nodes, _ = self._descend(
            _TriangleBatch(tris), True)
        return self._node_points(
            np.unique(np.concatenate([inside_nodes, leaf_nodes])))[0]

    def count_triangles(self, triangles) -> np.ndarray:
        tris = as_triangle_array(triangles)
        m = len(tris)
        if len(self.points) == 0 or m == 0:
            return np.zeros(m, dtype=np.int64)
        batch = _TriangleBatch(tris)
        # Per-triangle semantics: a covered subtree credits its span to
        # that pair's triangle only — no cross-triangle pruning here,
        # unlike the union report.
        inside_nodes, inside_tris, leaf_nodes, leaf_tris = self._descend(
            batch, False)
        spans = self._ends[inside_nodes] - self._starts[inside_nodes]
        counts = np.bincount(inside_tris, weights=spans.astype(np.float64),
                             minlength=m).astype(np.int64)
        _, hit_tris = self._batch_leaf_hits(batch, leaf_nodes, leaf_tris)
        counts += np.bincount(hit_tris, minlength=m)
        return counts

    # ------------------------------------------------------------------
    def report_box(self, xmin: float, ymin: float, xmax: float,
                   ymax: float) -> np.ndarray:
        if len(self.points) == 0:
            return np.zeros(0, dtype=np.int64)
        chunks: List[np.ndarray] = []
        stack = [0]
        while stack:
            node = stack.pop()
            bxmin, bymin, bxmax, bymax = self._boxes[node]
            if bxmin > xmax or bxmax < xmin or bymin > ymax or bymax < ymin:
                continue
            start, end = self._starts[node], self._ends[node]
            if (bxmin >= xmin and bxmax <= xmax and
                    bymin >= ymin and bymax <= ymax):
                chunks.append(self._perm[start:end])
                continue
            left = self._lefts[node]
            if left < 0:
                slice_perm = self._perm[start:end]
                pts = self.points[slice_perm]
                mask = ((pts[:, 0] >= xmin) & (pts[:, 0] <= xmax) &
                        (pts[:, 1] >= ymin) & (pts[:, 1] <= ymax))
                if mask.any():
                    chunks.append(slice_perm[mask])
                continue
            stack.append(left)
            stack.append(self._rights[node])
        if not chunks:
            return np.zeros(0, dtype=np.int64)
        out = np.concatenate(chunks)
        out.sort()
        return out
