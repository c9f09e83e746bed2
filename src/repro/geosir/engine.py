"""GeoSIR: the end-to-end prototype system (paper Section 6).

One facade over the whole stack:

* **ingestion** — images arrive either as vector shape lists or as
  binary rasters; rasters go through boundary extraction and segment
  approximation, and every polyline is decomposed into simple pieces
  before entering the shape base;
* **retrieval** — a sketch query first runs the incremental-fattening
  matcher; when that exhausts its epsilon budget without a
  sufficiently close match, the geometric-hashing retriever supplies
  approximate answers (the paper's two-method combination);
* **query processing** — topological queries, either composed
  explicitly through :mod:`repro.query.algebra` or derived from a
  multi-shape sketch whose own pairwise relations become the
  predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Set

from ..core.matcher import GeometricSimilarityMatcher, Match, MatchStats
from ..core.shapebase import ShapeBase
from ..geometry.polyline import Shape
from ..hashing.hashtable import ApproximateRetriever
from ..imaging.contours import extract_contour_shapes
from ..imaging.decompose import decompose_all
from ..imaging.raster import BinaryImage
from ..query.algebra import QueryNode, Similar, Topological
from ..query.executor import QueryEngine
from ..query.graph import DISJOINT, diameter_angle, relation_between

if TYPE_CHECKING:                  # pragma: no cover - import cycle guard
    from ..ann import AnnConfig
    from ..service import RetrievalService


@dataclass
class RetrievalResult:
    """Outcome of one sketch retrieval."""

    matches: List[Match]
    stats: MatchStats
    method: str          # "envelope" or "hashing"

    @property
    def best(self) -> Optional[Match]:
        return self.matches[0] if self.matches else None


class GeoSIR:
    """The interactive prototype, as a library object.

    Parameters mirror the knobs of the underlying stages; see
    :class:`~repro.core.ShapeBase`,
    :class:`~repro.core.GeometricSimilarityMatcher`,
    :class:`~repro.hashing.ApproximateRetriever` and
    :class:`~repro.query.QueryEngine`.

    ``match_threshold`` decides when the envelope matcher's answer is
    "good enough": a best distance above it (or no answer at all)
    triggers the hashing fallback.
    """

    def __init__(self, alpha: float = 0.1, beta: float = 0.25,
                 backend: str = "kdtree", hash_curves: int = 50,
                 match_threshold: float = 0.05,
                 similarity_threshold: float = 0.05,
                 extraction_tolerance: float = 1.2):
        self.base = ShapeBase(alpha=alpha, backend=backend)
        self.beta = beta
        self.hash_curves = hash_curves
        self.match_threshold = float(match_threshold)
        self.similarity_threshold = float(similarity_threshold)
        self.extraction_tolerance = float(extraction_tolerance)
        self._matcher: Optional[GeometricSimilarityMatcher] = None
        self._retriever: Optional[ApproximateRetriever] = None
        self._engine: Optional[QueryEngine] = None
        self._service: Optional["RetrievalService"] = None
        self._next_image_id = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add_image(self, shapes: Optional[Sequence[Shape]] = None,
                  raster: Optional[BinaryImage] = None,
                  image_id: Optional[int] = None) -> int:
        """Register one image given its shapes and/or raster.

        Raster input runs the extraction pipeline (boundary tracing +
        Douglas-Peucker); all shapes, wherever they came from, are
        decomposed into simple polylines before storage, per
        Section 2.4.
        """
        if shapes is None and raster is None:
            raise ValueError("provide shapes, a raster, or both")
        collected: List[Shape] = list(shapes) if shapes else []
        if raster is not None:
            collected.extend(extract_contour_shapes(
                raster, tolerance=self.extraction_tolerance))
        if not collected:
            raise ValueError("no shapes could be extracted for this image")
        simple = decompose_all(collected)
        if image_id is None:
            image_id = self._next_image_id
        self._next_image_id = max(self._next_image_id, image_id + 1)
        self.base.add_shapes(simple, image_id=image_id)
        self._invalidate()
        return image_id

    def remove_image(self, image_id: int) -> int:
        """Remove an image and all its shapes; returns shapes removed.

        Rebuilds the derived structures lazily, like :meth:`add_image`.
        """
        shape_ids = self.base.shapes_of_image(image_id)
        if not shape_ids:
            raise KeyError(f"image {image_id} not in the base")
        for shape_id in shape_ids:
            self.base.remove_shape(shape_id)
        self._invalidate()
        return len(shape_ids)

    def _invalidate(self) -> None:
        self._matcher = None
        self._retriever = None
        self._engine = None
        if self._service is not None:
            self._service.reload(self.base)

    # ------------------------------------------------------------------
    # Lazily-built stages
    # ------------------------------------------------------------------
    @property
    def matcher(self) -> GeometricSimilarityMatcher:
        if self._matcher is None:
            self._matcher = GeometricSimilarityMatcher(self.base,
                                                       beta=self.beta)
        return self._matcher

    @property
    def retriever(self) -> ApproximateRetriever:
        if self._retriever is None:
            self._retriever = ApproximateRetriever(self.base,
                                                   k_curves=self.hash_curves)
        return self._retriever

    @property
    def engine(self) -> QueryEngine:
        if self._engine is None:
            self._engine = QueryEngine(
                self.base, similarity_threshold=self.similarity_threshold,
                matcher=self.matcher)
        return self._engine

    # ------------------------------------------------------------------
    # Service delegation (repro.service)
    # ------------------------------------------------------------------
    @property
    def service(self) -> Optional["RetrievalService"]:
        """The attached retrieval service, if one is enabled."""
        return self._service

    def enable_service(self, num_shards: int = 4, workers: int = 2,
                       cache_capacity: int = 256,
                       max_pending: Optional[int] = None,
                       deadline: Optional[float] = None,
                       ann: Optional["AnnConfig"] = None,
                       ann_mode: str = "auto") -> "RetrievalService":
        """Serve retrievals through a sharded, cached, concurrent tier.

        Builds a :class:`repro.service.RetrievalService` over the
        current base (geometric knobs inherited from this facade) and
        delegates :meth:`retrieve` to it from now on.  Ingest keeps
        working through this facade; the service is re-sharded on every
        mutation, exactly as the matcher and retriever are rebuilt.

        ``ann`` (an :class:`repro.ann.AnnConfig`) adds the LSH-pruned
        approximate tier as the middle rung of the service's
        degradation ladder; ``ann_mode="always"`` routes every query
        through it.
        """
        from ..service import RetrievalService, ServiceConfig
        config = ServiceConfig(
            num_shards=num_shards, workers=workers,
            cache_capacity=cache_capacity, max_pending=max_pending,
            deadline=deadline, beta=self.beta,
            backend=self.base.backend, hash_curves=self.hash_curves,
            match_threshold=self.match_threshold, ann=ann,
            ann_mode=ann_mode)
        self._service = RetrievalService.from_base(self.base, config)
        return self._service

    def disable_service(self) -> None:
        """Back to direct (unsharded, single-threaded) retrieval."""
        if self._service is not None:
            self._service.close()
            self._service = None

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def retrieve(self, sketch: Shape, k: int = 1) -> RetrievalResult:
        """Best-match retrieval with automatic hashing fallback (a
        batch of one through :meth:`retrieve_batch`)."""
        return self.retrieve_batch([sketch], k=k)[0]

    def retrieve_batch(self, sketches: Sequence[Shape], k: int = 1
                       ) -> List[RetrievalResult]:
        """Batched best-match retrieval, one result per sketch.

        With a service enabled (:meth:`enable_service`) the batch goes
        through the sharded concurrent tier — same answers (shard
        merging is exact), plus caching, coalescing and graceful
        degradation.  Without one, the matcher's ``query_batch``
        amortizes the per-query scratch and each sketch whose envelope
        answer is not within ``match_threshold`` is handed to the
        hashing retriever.
        """
        sketches = list(sketches)
        if self._service is not None:
            served = self._service.retrieve_batch(sketches, k=k)
            if any(result.overloaded for result in served):
                raise RuntimeError("retrieval service overloaded; "
                                   "retry or raise max_pending")
            return [RetrievalResult(matches=result.matches,
                                    stats=result.stats,
                                    method=result.method)
                    for result in served]
        results = []
        for sketch, (matches, stats) in zip(
                sketches, self.matcher.query_batch(sketches, k=k)):
            method = "envelope"
            if not any(m.distance <= self.match_threshold
                       for m in matches):
                approx = self.retriever.query(sketch, k=k)
                if approx:    # nothing hashed either: keep the matcher's
                    matches, method = approx, "hashing"
            results.append(RetrievalResult(matches=matches, stats=stats,
                                           method=method))
        return results

    def retrieve_similar(self, sketch: Shape,
                         threshold: Optional[float] = None) -> List[Match]:
        """All shapes within a distance threshold of the sketch."""
        if threshold is None:
            threshold = self.similarity_threshold
        matches, _ = self.matcher.query_threshold(sketch, threshold)
        return matches

    # ------------------------------------------------------------------
    # Query processing
    # ------------------------------------------------------------------
    def query(self, node: QueryNode) -> Set[int]:
        """Execute a composed topological query; returns image ids."""
        return self.engine.execute(node)

    def sketch_query(self, sketch_shapes: Sequence[Shape],
                     use_angles: bool = False) -> QueryNode:
        """Build the topological query a multi-shape sketch implies.

        Per Section 6, a drafted sketch is decomposed into simple
        polylines; the query then asks for images containing shapes
        similar to every component, with the components' own pairwise
        relations (contain/overlap, and their diameter angles when
        ``use_angles``) as predicates.  Disjoint sketch pairs add no
        constraint — two shapes drawn apart usually means "both appear",
        not "they must not touch".
        """
        parts = decompose_all(list(sketch_shapes))
        if not parts:
            raise ValueError("the sketch contains no usable shapes")
        node: QueryNode = Similar(parts[0])
        for shape in parts[1:]:
            node = node & Similar(shape)
        for i, s1 in enumerate(parts):
            for s2 in parts[i + 1:]:
                relation = relation_between(s1, s2)
                if relation == DISJOINT:
                    continue
                theta = diameter_angle(s1, s2) if use_angles else "any"
                if relation == "contained_by":
                    node = node & Topological("contain", s2, s1, theta)
                else:
                    node = node & Topological(relation, s1, s2, theta)
        return node

    # ------------------------------------------------------------------
    def statistics(self) -> dict:
        """A snapshot of base/system statistics (diagnostics, README)."""
        return {
            "images": self.base.num_images,
            "shapes": self.base.num_shapes,
            "entries": self.base.num_entries,
            "vertices": self.base.total_vertices,
            "copies_per_shape": (self.base.num_entries /
                                 max(1, self.base.num_shapes)),
            "alpha": self.base.alpha,
            "beta": self.beta,
        }

    def __repr__(self) -> str:
        stats = self.statistics()
        return (f"GeoSIR(images={stats['images']}, shapes={stats['shapes']}, "
                f"entries={stats['entries']})")
