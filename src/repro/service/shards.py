"""Sharding: the shape base partitioned into independent retrieval units.

A *shard* is a self-contained slice of the corpus: its own
:class:`~repro.core.ShapeBase` (a disjoint subset of the shapes, ids
preserved) plus the two retrieval structures built over it — the
envelope-fattening matcher and the geometric-hashing retriever.  Since
every shape lives in exactly one shard and the exact measure of a
(query, shape) pair does not depend on what else is in the base,
merging per-shard top-k lists by distance reproduces the unsharded
answer exactly; that equivalence is the service layer's core
correctness invariant (``tests/test_service.py``).

Shape ids are routed to shards by :func:`shard_for`, a deterministic
multiplicative hash — the same ids land on the same shards across
processes and runs, which keeps persisted bases, caches and replicas
in agreement without coordination.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple

from ..ann import AnnConfig, AnnPrunedMatcher, compute_entry_sketches
from ..core.matcher import BestFirstMatcher, Match, MatchStats
from ..core.shapebase import ShapeBase, validate_shape
from ..geometry.polyline import Shape
from ..hashing.hashtable import ApproximateRetriever
from ..rangesearch import IncrementalIndex

_MASK64 = (1 << 64) - 1
_SPLITMIX = 0x9E3779B97F4A7C15


def shard_for(shape_id: int, num_shards: int) -> int:
    """Deterministic shard index for a shape id (splitmix-style mix).

    Pure integer arithmetic — no process-seeded hashing — so the
    assignment is stable across runs, machines and Python versions.
    The bit mix decorrelates the index from arithmetic structure in
    the ids (sequential ids, per-image strides) so shards stay
    balanced.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    # splitmix64 finalizer: two multiply-xorshift rounds are needed to
    # decorrelate the low bits (a single round leaves sequential ids
    # nearly constant modulo small shard counts).
    x = (shape_id + _SPLITMIX) & _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    x ^= x >> 31
    return x % num_shards


class Shard:
    """One partition of the corpus with its own retrieval structures.

    The matcher and hashing retriever are built lazily (ingest streams
    should not pay index builds per shape); :meth:`warm` forces the
    builds, which the service does once before admitting concurrent
    traffic.

    Writes follow a copy-on-write epoch discipline so queries never
    block behind ingest:

    * **Appends** mutate the live base in place but only ever *replace*
      arrays (old contents as a prefix) and publish the range index
      last; warm structures are patched incrementally (hash table
      inserts, LSH adds, cache-row appends) instead of dropped.  A
      reader's consistent capture (``ShapeBase.reader_view``, the
      matcher's scratch checkout) stays valid through any interleaving.
    * **Removals** — the id-compacting mutation no prefix property can
      cover — build a :meth:`ShapeBase.clone_cow`, remove on the clone
      and swap it in as a new ``epoch``; in-flight readers finish
      against the old base, new structures rebuild lazily from the
      compacted caches.
    * **Folds** of the incremental index tail run off the write path
      (:meth:`fold`): the static rebuild happens without the lock and
      the swap is a single guarded reference assignment.

    ``write_lock`` serializes mutations, structure builds and delta
    publication; the query path never acquires it.  ``epoch`` moves
    only on a removal, so the process tier can ship every other change
    as an append delta.
    """

    def __init__(self, index: int, base: ShapeBase, beta: float = 0.25,
                 hash_curves: int = 50, ann: Optional[AnnConfig] = None):
        self.index = index
        self.base = base
        self.beta = float(beta)
        self.hash_curves = int(hash_curves)
        self.ann_config = ann
        self._matcher: Optional[BestFirstMatcher] = None
        self._retriever: Optional[ApproximateRetriever] = None
        self._ann: Optional[AnnPrunedMatcher] = None
        self.write_lock = threading.RLock()
        #: Bumped only when a removal swaps in a copy-on-write clone;
        #: appends and folds leave it alone.
        self.epoch = 0

    # -- structures -----------------------------------------------------
    @property
    def matcher(self) -> BestFirstMatcher:
        """The served exact matcher (best-first once it leaves the
        index; :class:`~repro.core.matcher.BestFirstMatcher`)."""
        if self._matcher is None:
            with self.write_lock:
                if self._matcher is None:
                    self._matcher = BestFirstMatcher(self.base,
                                                     beta=self.beta)
        return self._matcher

    @property
    def retriever(self) -> ApproximateRetriever:
        if self._retriever is None:
            with self.write_lock:
                if self._retriever is None:
                    self._retriever = ApproximateRetriever(
                        self.base, k_curves=self.hash_curves)
        return self._retriever

    @property
    def ann(self) -> AnnPrunedMatcher:
        """The approximate tier's pruned matcher (requires config)."""
        if self.ann_config is None:
            raise RuntimeError(
                f"shard {self.index} has no ANN tier configured")
        if self._ann is None:
            with self.write_lock:
                if self._ann is None:
                    self._ann = AnnPrunedMatcher(self.base,
                                                 self.ann_config)
        return self._ann

    def warm(self) -> None:
        """Build every lazy structure now (index, hash table, ANN)."""
        if self.base.num_entries:
            self.base.index
        self.matcher
        self.retriever
        if self.ann_config is not None:
            self.ann

    @property
    def warmed(self) -> bool:
        """All lazy structures built — no build latency left to pay.

        Readiness probes poll this (never :meth:`warm`): checking must
        not trigger the builds it reports on.
        """
        if self._matcher is None or self._retriever is None:
            return False
        return self.ann_config is None or self._ann is not None

    @property
    def warmed_hash(self) -> bool:
        """The hash (salvage) tier alone is built — process mode's
        parent-side readiness, where workers own the other tiers."""
        return self._retriever is not None

    # -- ingest ---------------------------------------------------------
    def add_shapes(self, shapes: Sequence[Shape],
                   image_ids: Sequence[Optional[int]],
                   shape_ids: Sequence[int]) -> List[int]:
        """Bulk-ingest pre-routed shapes through the vectorized path."""
        with self.write_lock:
            first_entry = self.base.num_entries
            ids = self.base.add_shapes(shapes, image_ids=image_ids,
                                       shape_ids=shape_ids)
            self._patch_added(first_entry)
        return ids

    def _patch_added(self, first_entry: int) -> None:
        """Patch warm structures with the entries appended past
        ``first_entry`` (matcher needs nothing: it reads through the
        base and its scratch pool re-keys on the version)."""
        new_ids = range(first_entry, self.base.num_entries)
        if self._retriever is not None:
            self._retriever.add_entries(new_ids)
        if self._ann is not None:
            self._ann.add_entries(new_ids)

    def remove_shapes(self, shape_ids: Sequence[int]) -> None:
        """Remove shapes by swapping in one copy-on-write epoch.

        Entry-id compaction breaks the append-only prefix contract the
        lock-free readers rely on, so removal is the slow path: clone
        the base (structure-shared), remove the whole batch on the
        clone, swap.  Derived structures rebuild lazily — cheaply, since
        the clone carries the compacted signature/sketch caches.
        """
        with self.write_lock:
            clone = self.base.clone_cow()
            clone.remove_shapes(shape_ids)      # KeyError leaves us intact
            self.base = clone
            self._matcher = None
            self._retriever = None
            self._ann = None
            self.epoch += 1

    # -- folds ----------------------------------------------------------
    @property
    def delta_points(self) -> int:
        """Unfolded points in the incremental index tail."""
        return self.base.index_delta_size

    def needs_fold(self) -> bool:
        index = self.base._index
        return (isinstance(index, IncrementalIndex) and
                index.needs_fold())

    def fold(self) -> bool:
        """Fold the incremental tail into a fresh static build.

        The expensive rebuild runs *without* the write lock (ingest and
        queries proceed meanwhile); the swap is a guarded atomic
        reference assignment.  Returns False — fold skipped — when a
        concurrent mutation landed first.  Query answers are identical before and after
        (``IncrementalIndex`` reports exactly what a fresh build over
        the same points reports).
        """
        base = self.base
        index = base._index
        if not isinstance(index, IncrementalIndex) or \
                index.tail_size == 0:
            return False
        folded = index.fold(base.backend)
        with self.write_lock:
            if self.base is base and base._index is index:
                base._index = folded
                return True
        return False

    # -- retrieval: one sequence-form op per tier ------------------------
    def query_batch(self, sketches: Sequence[Shape], k: int,
                    abort: Optional[Callable[[], bool]] = None,
                    priors: Optional[Sequence[Sequence[float]]] = None
                    ) -> List[Tuple[List[Match], MatchStats]]:
        """Exact top-k for a sequence of sketches.

        Delegates to the matcher's amortized multi-query path (one
        scratch checkout for the whole sequence); results are in input
        order, one ``(matches, stats)`` pair per sketch.  ``priors``
        are, per sketch, exact distances other shards already found
        (see :meth:`BestFirstMatcher.query_batch`): they let this shard
        stop on the corpus-wide k-th best instead of its own.
        """
        return self.matcher.query_batch(sketches, k=k, abort=abort,
                                        priors=priors)

    def query_threshold_batch(self, sketches: Sequence[Shape],
                              threshold: float,
                              abort: Optional[Callable[[], bool]] = None
                              ) -> List[Tuple[List[Match], MatchStats]]:
        """All shard shapes within ``threshold`` of each sketch.

        The algebra engine's ``similar`` leaves arrive through this
        path; one scratch checkout, results in input order.
        """
        return self.matcher.query_threshold_batch(sketches, threshold,
                                                  abort=abort)

    def ann_query_batch(self, sketches: Sequence[Shape], k: int,
                        abort: Optional[Callable[[], bool]] = None
                        ) -> List[Tuple[List[Match], MatchStats]]:
        """LSH-pruned exact top-k for a sequence of sketches (the
        middle tier)."""
        return self.ann.query_batch(sketches, k=k, abort=abort)

    def hash_query(self, sketch: Shape, k: int) -> List[Match]:
        """Hashing-fallback top-k within this shard."""
        if self.base.num_entries == 0:
            return []
        return self.retriever.query(sketch, k=k)

    @property
    def num_shapes(self) -> int:
        return self.base.num_shapes

    def __repr__(self) -> str:
        return (f"Shard({self.index}, shapes={self.base.num_shapes}, "
                f"entries={self.base.num_entries})")


def merge_topk(per_shard: Sequence[Sequence[Match]], k: int) -> List[Match]:
    """Merge per-shard top-k lists into the global top-k.

    Shards are disjoint (a shape id appears in at most one list) and
    distances are base-independent exact measures, so a sort by
    ``(distance, shape_id)`` — the id as a deterministic tie-break —
    reproduces the unsharded ranking.
    """
    merged = [match for matches in per_shard for match in matches]
    merged.sort(key=lambda m: (m.distance, m.shape_id))
    return merged[:k]


class ShardSet:
    """All shards of one corpus plus the deterministic router.

    Build either empty (``ShardSet(num_shards=4)``) and stream shapes
    in, or from an existing base (:meth:`from_base`), which routes the
    base's shapes through the same partitioner so both construction
    paths yield identical shards.  ``version`` counts mutations; the
    query cache keys its entries on it.
    """

    def __init__(self, num_shards: int = 4, alpha: float = 0.1,
                 backend: str = "kdtree", beta: float = 0.25,
                 hash_curves: int = 50, ann: Optional[AnnConfig] = None):
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_shards = int(num_shards)
        self.shards = [Shard(i, ShapeBase(alpha=alpha, backend=backend),
                             beta=beta, hash_curves=hash_curves, ann=ann)
                       for i in range(self.num_shards)]
        self.version = 0
        self._next_shape_id = 0
        self._lock = threading.Lock()

    @classmethod
    def from_base(cls, base: ShapeBase, num_shards: int = 4,
                  beta: float = 0.25, hash_curves: int = 50,
                  ann: Optional[AnnConfig] = None) -> "ShardSet":
        """Partition an existing base (shape ids preserved)."""
        shard_set = cls(num_shards=num_shards, alpha=base.alpha,
                        backend=base.backend, beta=beta,
                        hash_curves=hash_curves, ann=ann)
        if ann is not None and base.num_entries:
            # Sketch the whole base once before splitting: subsets
            # carry the cache rows, so shards (and later re-splits of
            # the same base) never recompute.  A v4 snapshot arrives
            # with this cache pre-filled — zero sketching on warm-up.
            compute_entry_sketches(base, ann.sketch)
        for shard, part in zip(shard_set.shards, base.split(num_shards)):
            shard.base = part               # nothing built on it yet
        with shard_set._lock:
            shard_set._next_shape_id = (max(base.shapes) + 1
                                        if base.shapes else 0)
            shard_set.version += 1
        return shard_set

    # -- ingest ---------------------------------------------------------
    def add_shape(self, shape: Shape,
                  image_id: Optional[int] = None) -> int:
        """Route one shape to its shard (a batch of one); returns the
        assigned id."""
        return self.add_shapes([shape], image_id)[0]

    def add_shapes(self, shapes: Sequence[Shape],
                   image_id: Optional[int] = None, *,
                   image_ids: Optional[Sequence[Optional[int]]] = None
                   ) -> List[int]:
        """Bulk ingest: one id block, one vectorized add per shard.

        Shapes are validated up front — before any id is consumed or
        version bumped, so a rejected shape leaves no torn state — ids
        are assigned in one locked block, then each shard receives its
        whole slice through :meth:`ShapeBase.add_shapes`: per-shard
        work is one batched normalization.
        """
        shapes = list(shapes)
        if not shapes:
            return []
        if image_ids is None:
            per_image: List[Optional[int]] = [image_id] * len(shapes)
        else:
            per_image = list(image_ids)
            if len(per_image) != len(shapes):
                raise ValueError("image_ids must match shapes in length")
        for shape in shapes:
            validate_shape(shape)
        with self._lock:
            first = self._next_shape_id
            ids = list(range(first, first + len(shapes)))
            self._next_shape_id = first + len(shapes)
        by_shard: dict = {}
        for shape, sid, iid in zip(shapes, ids, per_image):
            group = by_shard.setdefault(shard_for(sid, self.num_shards),
                                        ([], [], []))
            group[0].append(shape)
            group[1].append(iid)
            group[2].append(sid)
        for shard_index, (group_shapes, group_images, group_ids) \
                in sorted(by_shard.items()):
            self.shards[shard_index].add_shapes(group_shapes, group_images,
                                                group_ids)
        # Version bumps *after* the shard mutations: an observer that
        # sees the new version (cache keys, process-tier sync) is
        # guaranteed the rows are already in place.
        with self._lock:
            self.version += 1
        return ids

    def remove_shapes(self, shape_ids: Sequence[int]) -> None:
        """Remove shapes from their shards with one version bump.

        Every id is checked against its shard before any shard is
        touched: an unknown id raises ``KeyError`` and nothing mutates.
        Each touched shard applies its part as one copy-on-write epoch
        swap, so concurrent readers never see the id compaction
        mid-flight.
        """
        by_shard: dict = {}
        for shape_id in shape_ids:
            shard = self.shard_of(shape_id)
            if shape_id not in shard.base.shapes:
                raise KeyError(f"shape id {shape_id} not in the base")
            by_shard.setdefault(shard.index, []).append(shape_id)
        if not by_shard:
            return
        for shard_index, ids in sorted(by_shard.items()):
            self.shards[shard_index].remove_shapes(ids)
        with self._lock:
            self.version += 1

    @property
    def delta_points(self) -> int:
        """Unfolded index-tail points summed over all shards
        (``snapshot()["ingest"]["pending_delta"]``)."""
        return sum(shard.delta_points for shard in self.shards)

    def shard_of(self, shape_id: int) -> Shard:
        return self.shards[shard_for(shape_id, self.num_shards)]

    def warm(self, pool=None) -> None:
        """Build every shard's structures; in parallel when given a
        :class:`~repro.service.pool.WorkerPool`."""
        if pool is not None:
            pool.map_over(Shard.warm, list(self.shards))
        else:
            for shard in self.shards:
                shard.warm()

    # -- statistics -----------------------------------------------------
    @property
    def num_shapes(self) -> int:
        return sum(s.num_shapes for s in self.shards)

    @property
    def num_entries(self) -> int:
        return sum(s.base.num_entries for s in self.shards)

    def shape_counts(self) -> List[int]:
        """Per-shard shape counts (balance diagnostics)."""
        return [s.num_shapes for s in self.shards]

    def __iter__(self):
        return iter(self.shards)

    def __len__(self) -> int:
        return self.num_shards

    def __repr__(self) -> str:
        return (f"ShardSet(shards={self.num_shards}, "
                f"shapes={self.shape_counts()})")
