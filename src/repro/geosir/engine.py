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

All of it runs on a one-shard, one-worker
:class:`~repro.service.RetrievalService` the facade owns; its ingest
path patches the matcher and hashing tier in place.  Sharded,
concurrent serving builds a ``RetrievalService`` directly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

import numpy as np

from ..core.matcher import Match
from ..core.shapebase import ShapeBase
from ..geometry.polyline import Shape
from ..imaging.contours import extract_contour_shapes
from ..imaging.decompose import decompose_all
from ..imaging.raster import BinaryImage
from ..query.algebra import QueryNode, Similar, Topological
from ..query.executor import QueryEngine
from ..query.graph import DISJOINT, diameter_angle, relation_between
from ..service.service import (RetrievalService, ServiceConfig,
                               ServiceResult)
from ..service.shards import ShardSet


def ingestible_pieces(shapes: Sequence[Shape]) -> List[Shape]:
    """The simple pieces of ``shapes`` a shape base accepts.

    Decomposition (Section 2.4) can cut a valid contour into a sliver
    with fewer than three distinct vertices, which has no diameter
    pair to normalize about; such pieces are dropped here rather than
    failing the whole image.
    """
    return [piece for piece in decompose_all(list(shapes))
            if len(np.unique(piece.vertices, axis=0)) >= 3]


class GeoSIR:
    """The interactive prototype, as a library object.

    ``alpha`` and ``backend`` shape the base
    (:class:`~repro.core.ShapeBase`), ``beta`` the envelope matcher
    (:class:`~repro.core.BestFirstMatcher`), ``hash_curves``
    the hashing tier (:class:`~repro.hashing.ApproximateRetriever`),
    ``similarity_threshold`` the algebra's ``similar`` leaves
    (:class:`~repro.query.QueryEngine`) and ``extraction_tolerance``
    the raster pipeline's Douglas-Peucker step.

    ``match_threshold`` decides when the envelope matcher's answer is
    "good enough": a best distance above it (or no answer at all)
    triggers the hashing fallback.
    """

    def __init__(self, alpha: float = 0.1, beta: float = 0.25,
                 backend: str = "kdtree", hash_curves: int = 50,
                 match_threshold: float = 0.05,
                 similarity_threshold: float = 0.05,
                 extraction_tolerance: float = 1.2):
        config = ServiceConfig(num_shards=1, workers=1, beta=beta,
                               backend=backend, hash_curves=hash_curves,
                               match_threshold=match_threshold)
        # One worker runs every shard op on the caller's thread: the
        # service starts no thread and needs no close().
        self._service = RetrievalService(
            ShardSet(num_shards=1, alpha=alpha, backend=backend,
                     beta=beta, hash_curves=hash_curves), config)
        self.similarity_threshold = float(similarity_threshold)
        self.extraction_tolerance = float(extraction_tolerance)
        self._engine: Optional[QueryEngine] = None
        self._next_image_id = 0

    @property
    def base(self) -> ShapeBase:
        """The shape base as it stands now (read-only use).

        A removal swaps in a copy-on-write clone, so this is looked up
        on every access, never kept.
        """
        return self._service.shards.shards[0].base

    @property
    def match_threshold(self) -> float:
        return self._service.config.match_threshold

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
        Section 2.4 (see :func:`ingestible_pieces`).
        """
        if shapes is None and raster is None:
            raise ValueError("provide shapes, a raster, or both")
        collected: List[Shape] = list(shapes) if shapes else []
        if raster is not None:
            collected.extend(extract_contour_shapes(
                raster, tolerance=self.extraction_tolerance))
        pieces = ingestible_pieces(collected)
        if not pieces:
            raise ValueError("no shapes could be extracted for this image")
        if image_id is None:
            image_id = self._next_image_id
        self._next_image_id = max(self._next_image_id, image_id + 1)
        self._service.ingest(pieces, image_id=image_id)
        return image_id

    def remove_image(self, image_id: int) -> int:
        """Remove an image and all its shapes; returns shapes removed."""
        shape_ids = self.base.shapes_of_image(image_id)
        if not shape_ids:
            raise KeyError(f"image {image_id} not in the base")
        self._service.remove(*shape_ids)
        return len(shape_ids)

    @property
    def engine(self) -> QueryEngine:
        """The algebra engine, mounted on the facade's service."""
        if self._engine is None:
            self._engine = self._service.query_engine(
                similarity_threshold=self.similarity_threshold)
        return self._engine

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def retrieve(self, sketch: Shape, k: int = 1) -> ServiceResult:
        """Best-match retrieval with automatic hashing fallback (a
        batch of one through :meth:`retrieve_batch`)."""
        return self.retrieve_batch([sketch], k=k)[0]

    def retrieve_batch(self, sketches: Sequence[Shape], k: int = 1
                       ) -> List[ServiceResult]:
        """Batched best-match retrieval, one result per sketch.

        The matcher answers the whole batch in one pass; each sketch
        whose envelope answer is not within ``match_threshold`` is
        handed to the hashing retriever (``method="hashing"``).
        Until the next mutation, a sketch similar to one already asked
        (same canonical signature) gets that answer back, ``cached``.
        """
        return _checked(self._service.retrieve_batch(sketches, k=k))

    def retrieve_similar(self, sketch: Shape,
                         threshold: Optional[float] = None) -> List[Match]:
        """All shapes within a distance threshold of the sketch, ranked
        by ``(distance, shape_id)``."""
        return self.retrieve_similar_batch([sketch], threshold)[0]

    def retrieve_similar_batch(self, sketches: Sequence[Shape],
                               threshold: Optional[float] = None
                               ) -> List[List[Match]]:
        """:meth:`retrieve_similar` for many sketches in one pass."""
        if threshold is None:
            threshold = self.similarity_threshold
        answers = _checked(self._service.similar_shapes_batch(
            sketches, threshold))
        return [answer.matches for answer in answers]

    # ------------------------------------------------------------------
    # Query processing
    # ------------------------------------------------------------------
    def query(self, node: QueryNode) -> Set[int]:
        """Execute a composed topological query; returns image ids
        (raises, like :meth:`retrieve`, on a shard failure)."""
        return _checked([self.engine.execute_explained(node)])[0].images

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
        base = self.base
        return {
            "images": base.num_images,
            "shapes": base.num_shapes,
            "entries": base.num_entries,
            "vertices": base.total_vertices,
            "copies_per_shape": (base.num_entries /
                                 max(1, base.num_shapes)),
            "alpha": base.alpha,
            "beta": self._service.config.beta,
        }

    def __repr__(self) -> str:
        stats = self.statistics()
        return (f"GeoSIR(images={stats['images']}, shapes={stats['shapes']}, "
                f"entries={stats['entries']})")


def _checked(answers):
    """The service's answers, or an error where one is incomplete.

    A shard failure (the matcher raised, or answered garbage) would
    leave a partial answer; the facade reports it instead of
    returning it.
    """
    for answer in answers:
        if answer.failed_shards:
            raise RuntimeError(
                f"retrieval failed on shard(s) {answer.failed_shards}")
    return answers
