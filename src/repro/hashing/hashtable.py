"""The geometric hash table and approximate retrieval (paper Section 3).

Every shape-base entry is inserted under its four characteristic curves
(one bucket per ``(quarter, curve)`` pair).  A query shape is hashed the
same way; the union of its four buckets (optionally widened to
neighbouring curves) is the candidate set, which is then ranked by the
exact average-distance measure.  With enough curves the expected bucket
occupancy is constant, so retrieval is logarithmic in the number of
curves — the paper's complexity claim.

Entries go in a batch at a time (one entry is a batch of one): the
batch's ids are grouped by bucket key and every touched bucket is
replaced once by its union with the group, so building a table copies
each posting once rather than once per later insert into its bucket.
Buckets are replaced, never mutated, so readers need no lock.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.matcher import Match, best_per_shape, rank
from ..core.measures import entry_measures
from ..core.shapebase import ShapeBase
from ..geometry.nearest import BoundaryDistance
from ..geometry.polyline import Shape
from ..geometry.transform import normalize_about_diameter
from .characteristic import (EMPTY_QUARTER, Quadruple,
                             characteristic_quadruple, compute_signatures)
from .curves import HashCurveFamily

BucketKey = Tuple[int, int]       # (quarter, curve index)


class GeometricHashTable:
    """Buckets of entry ids keyed by (quarter, characteristic curve)."""

    def __init__(self, family: HashCurveFamily):
        self.family = family
        self._buckets: Dict[BucketKey, Set[int]] = {}
        self._signatures: Dict[int, Quadruple] = {}

    def insert(self, entry_id: int, quadruple: Quadruple) -> None:
        """Register one entry under its four characteristic curves."""
        self.insert_batch([entry_id], [quadruple])

    def insert_batch(self, entry_ids: Sequence[int],
                     quadruples: Sequence[Quadruple]) -> None:
        """Register entries under their characteristic curves, each
        touched bucket replaced once.

        Buckets are *replaced*, not mutated: a reader holding the old
        set (``candidates`` unions buckets without a lock) never sees
        it change size mid-iteration, so a live table can absorb
        concurrent ingest.
        """
        groups: Dict[BucketKey, List[int]] = {}
        for entry_id, quadruple in zip(entry_ids, quadruples):
            self._signatures[entry_id] = quadruple
            for quarter, curve in enumerate(quadruple, start=1):
                if curve != EMPTY_QUARTER:
                    groups.setdefault((quarter, curve), []).append(entry_id)
        for key, group in groups.items():
            self._buckets[key] = self._buckets.get(key, set()) | set(group)

    def remove(self, entry_id: int) -> None:
        quadruple = self._signatures.pop(entry_id, None)
        if quadruple is None:
            return
        for quarter, curve in enumerate(quadruple, start=1):
            bucket = self._buckets.get((quarter, curve))
            if bucket is not None and entry_id in bucket:
                remaining = bucket - {entry_id}
                if remaining:
                    self._buckets[(quarter, curve)] = remaining
                else:
                    del self._buckets[(quarter, curve)]

    def signature(self, entry_id: int) -> Optional[Quadruple]:
        return self._signatures.get(entry_id)

    def candidates(self, quadruple: Quadruple,
                   neighbor_radius: int = 0) -> Set[int]:
        """Union of the buckets of the query's curves (plus neighbours).

        ``neighbor_radius`` widens each lookup to the ``2r`` adjacent
        curves — the paper notes that close shapes may land on
        *neighbouring* curves.
        """
        found: Set[int] = set()
        for quarter, curve in enumerate(quadruple, start=1):
            if curve == EMPTY_QUARTER:
                continue
            lo = max(1, curve - neighbor_radius)
            hi = min(self.family.k, curve + neighbor_radius)
            for index in range(lo, hi + 1):
                found |= self._buckets.get((quarter, index), set())
        return found

    def occupancy(self) -> Counter:
        """Histogram: bucket size -> number of buckets (diagnostics)."""
        return Counter(len(bucket) for bucket in self._buckets.values())

    @property
    def num_buckets(self) -> int:
        return len(self._buckets)

    def __len__(self) -> int:
        return len(self._signatures)


class ApproximateRetriever:
    """Hashing-based approximate matcher over a :class:`ShapeBase`.

    This is the fallback path of the GeoSIR pipeline: when the
    envelope-fattening matcher exhausts its epsilon budget without a
    sufficiently similar shape, the hash table supplies approximate
    candidates in (expected) constant bucket size.
    """

    def __init__(self, base: ShapeBase, k_curves: int = 50,
                 neighbor_radius: int = 1):
        self.base = base
        self.family = HashCurveFamily(k_curves)
        self.neighbor_radius = int(neighbor_radius)
        self.table = GeometricHashTable(self.family)
        quadruples = compute_signatures(base, self.family)
        self.table.insert_batch(range(len(quadruples)), quadruples)

    def add_entries(self, entry_ids) -> None:
        """Patch freshly appended base entries into the live table.

        The incremental half of the streaming write path: instead of
        rebuilding the retriever on ingest, only the new entries are
        hashed and inserted (reusing the base's signature cache rows
        when the ingest path has already appended them).  Bit-for-bit
        equivalent to a rebuild because insertion is order-independent
        set union.
        """
        entry_ids = [int(e) for e in entry_ids]
        self.table.insert_batch(entry_ids, compute_signatures(
            self.base, self.family, entry_ids))

    def query(self, query: Shape, k: int = 1,
              neighbor_radius: Optional[int] = None) -> List[Match]:
        """Up to ``k`` approximate matches: the candidates' exact
        measures from one :func:`~repro.core.measures.entry_measures`
        call, ranked by the matcher's one rule."""
        normalized = query.normalized.shape
        radius = self.neighbor_radius if neighbor_radius is None \
            else neighbor_radius
        candidates = sorted(self.table.candidates(
            characteristic_quadruple(normalized, self.family), radius))
        values = entry_measures(BoundaryDistance(normalized), self.base,
                                candidates)
        return rank(self.base, best_per_shape(self.base, candidates, values),
                    k, approximate=True)

    def signature_of(self, shape: Shape) -> Quadruple:
        """Characteristic quadruple of an arbitrary (raw) shape."""
        return characteristic_quadruple(
            normalize_about_diameter(shape).shape, self.family)
