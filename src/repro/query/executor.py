"""Query execution and planning (paper Sections 5.3-5.4).

:class:`QueryEngine` runs the query algebra on a
:class:`~repro.service.service.RetrievalService`, using its shards'
per-image relation graphs and a selectivity model:

* ``similar(Q)`` runs a threshold query and projects shape hits onto
  their images.  Leaves go to ``RetrievalService.similar_shapes_batch``
  in batches; the service caches and single-flights each complete leaf
  (the engine keeps only a per-execution memo);
* topological operators run in one of the paper's two strategies —
  strategy 1 starts from the *smaller* similarity side and walks graph
  edges, checking the other side shape-by-shape; strategy 2 computes
  both similarity sets, intersects the image sets, then verifies edges;
* composite queries are rewritten to DNF; per conjunctive term the
  literals are deduplicated and ordered by estimated selectivity, the
  cheapest positive literal is evaluated in full, and the remaining
  literals run only as per-image filters over that seed set
  (Section 5.4).  Operator, term and whole-plan results live in a
  subplan cache keyed by the canonical signatures of
  :mod:`repro.query.algebra`, so algebraically-equal queries
  (``A & B`` vs ``B & A``) share entries; a corpus mutation bumps the
  version and orphans every entry.  An execution that receives a
  partial leaf (a shard failed) caches nothing and names the shards.

Work counters are thread-safe (engines are shared across service
worker threads) and surface through ``RetrievalService.snapshot()``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.measures import entry_measures
from ..geometry.nearest import BoundaryDistance
from ..geometry.polyline import Shape
from ..geometry.primitives import EPSILON
from ..geometry.transform import normalize_about_diameter
from .algebra import (ConjunctiveTerm, Literal, QueryNode, Similar,
                      Topological, literal_signature, operator_signature,
                      plan_signature, term_signature, to_dnf)
from .graph import (ANY_ANGLE, DISJOINT, ImageGraph, angle_matches,
                    diameter_angle, image_graphs)
from .selectivity import SelectivityModel

_COUNTER_FIELDS = ("threshold_queries", "similarity_checks",
                   "candidate_evaluations", "edges_scanned",
                   "pairs_checked", "filter_probes", "terms_planned",
                   "seeds_reordered", "plan_cache_hits",
                   "plan_cache_misses")


class EngineCounters:
    """Work accounting across one engine lifetime (reset manually).

    Updates go through :meth:`add` under a lock — composite queries run
    concurrently on service worker threads, and the planner benchmarks
    rely on exact totals.  Plain attribute reads stay lock-free.
    """

    def __init__(self):
        self._lock = threading.Lock()
        for name in _COUNTER_FIELDS:
            setattr(self, name, 0)

    def add(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                if name not in _COUNTER_FIELDS:
                    raise AttributeError(f"unknown counter {name!r}")
                setattr(self, name, getattr(self, name) + delta)

    def reset(self) -> None:
        with self._lock:
            for name in _COUNTER_FIELDS:
                setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in _COUNTER_FIELDS}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"EngineCounters({inner})"


@dataclass
class TermReport:
    """How one conjunctive term was executed."""

    signature: str
    cached: bool = False
    images: Set[int] = field(default_factory=set)
    seed_operator: Optional[QueryNode] = None
    seed_estimate: Optional[float] = None
    estimates: List[Tuple[str, float]] = field(default_factory=list)
    reordered: bool = False


@dataclass
class ExecutionReport:
    """Result plus the planning trace of one composite query;
    ``failed_shards`` non-empty means ``images`` may be incomplete."""

    images: Set[int] = field(default_factory=set)
    cached: bool = False
    signature: str = ""
    terms: List[TermReport] = field(default_factory=list)
    failed_shards: List[int] = field(default_factory=list)


@dataclass
class _Execution:
    """One execution's state: corpus version, leaf memo, shard faults."""

    version: int
    leaves: Dict[str, FrozenSet[int]] = field(default_factory=dict)
    failed: Set[int] = field(default_factory=set)


class QueryEngine:
    """Executes topological queries over a retrieval service's corpus.

    Parameters
    ----------
    service:
        The :class:`~repro.service.service.RetrievalService` (usually
        via its ``query_engine()``); shapes must carry image ids for
        image-level operators to be meaningful.  A bare base is served
        by ``RetrievalService.from_base(base,
        ServiceConfig(num_shards=1, workers=1))``, which runs inline.
    similarity_threshold:
        The distance below which ``g_similar`` holds (average-distance
        measure on normalized copies).
    angle_tolerance:
        Absolute tolerance (radians) for matching a predicate's theta.
    planner:
        When ``False``, composite queries evaluate every DNF literal
        in full, in written order, with plain set algebra — the
        unplanned baseline the algebra benchmark compares against.
        Subplan caching is part of the planner and is disabled too;
        its capacity is the service config's ``cache_capacity``.
    """

    def __init__(self, service, similarity_threshold: float = 0.05,
                 angle_tolerance: float = 0.15, *, planner: bool = True):
        from ..service.cache import QueryResultCache
        if similarity_threshold < 0:
            raise ValueError("similarity_threshold must be non-negative")
        self.service = service
        self.similarity_threshold = float(similarity_threshold)
        self.angle_tolerance = float(angle_tolerance)
        self.planner = bool(planner)
        self.selectivity = SelectivityModel()
        self.counters = EngineCounters()
        self.plan_cache = QueryResultCache(service.config.cache_capacity)
        self._engine_cache: Dict[Shape, BoundaryDistance] = {}
        self._leaf_keys: Dict[Tuple[Shape, float], str] = {}
        self._tls = threading.local()

    # ------------------------------------------------------------------
    # Corpus access
    # ------------------------------------------------------------------
    def _image_of(self, shape_id: int) -> Optional[int]:
        return self.service.shards.shard_of(shape_id).base \
            .image_of_shape(shape_id)

    def _entry_rows(self):
        for shard in self.service.shards:
            corpus = shard.base
            for shape_id in corpus.shape_ids():
                yield (shape_id, corpus.shapes[shape_id],
                       corpus.image_of_shape(shape_id))

    @property
    def graphs(self) -> Dict[int, ImageGraph]:
        """Per-image relation graphs, memoized per corpus version.

        Every engine over the same service shares one set of graphs
        (:func:`repro.query.graph.image_graphs`); a mutation bumps the
        version and the next access rebuilds once.
        """
        shards = self.service.shards
        return image_graphs(shards, shards.version, self._entry_rows)

    def all_images(self) -> Set[int]:
        """The DB universe for complements."""
        images: Set[int] = set()
        for shard in self.service.shards:
            images.update(shard.base.image_ids())
        return images

    # ------------------------------------------------------------------
    # Similarity primitives
    # ------------------------------------------------------------------
    def _query_engine(self, query: Shape) -> BoundaryDistance:
        engine = self._engine_cache.get(query)
        if engine is None:
            normalized = normalize_about_diameter(query).shape
            engine = BoundaryDistance(normalized)
            self._engine_cache[query] = engine
        return engine

    def _leaf_key(self, query: Shape) -> str:
        # Memoized like the distance engines: restricted filters probe
        # the leaf once per image, and normalizing + hashing the query
        # shape each time cost more than the probe itself.
        memo = (query, self.similarity_threshold)
        key = self._leaf_keys.get(memo)
        if key is None:
            from ..service.service import similar_key
            key = self._leaf_keys[memo] = similar_key(
                query, self.similarity_threshold)
        return key

    def _run(self) -> Optional[_Execution]:
        """This thread's current execution (see :meth:`execute`)."""
        return getattr(self._tls, "run", None)

    def _leaf_cached(self, query: Shape) -> Optional[FrozenSet[int]]:
        """The already-materialized similarity set of ``query``, if any.

        Probes the per-execution memo, then the service's leaf cache
        through :meth:`~repro.service.cache.QueryResultCache.peek` (a
        hit joins the memo); never issues a threshold query and moves
        no counters, so the cache's hits and misses count leaf fetches.
        """
        key = self._leaf_key(query)
        run = self._run()
        leaf = run.leaves.get(key) if run is not None else None
        if leaf is None and self.service.cache.enabled:
            hit = self.service.cache.peek(key, self.service.shards.version)
            if hit is not None:
                leaf = hit.shape_ids
                if run is not None:
                    run.leaves[key] = leaf
        return leaf

    def shape_similar_batch(self, queries: Sequence[Shape]
                            ) -> List[Set[int]]:
        """``shape_similar`` for several query shapes at once.

        Shapes :meth:`_leaf_cached` misses go to
        ``similar_shapes_batch`` in one call.  Each complete, freshly
        computed leaf feeds the selectivity model, as Section 5.2
        prescribes; a partial one records its failed shards instead.
        """
        run = self._run()
        keys = [self._leaf_key(q) for q in queries]
        resolved: Dict[str, FrozenSet[int]] = {}
        misses: Dict[str, Shape] = {}
        for key, query in zip(keys, queries):
            if key in resolved or key in misses:
                continue
            leaf = self._leaf_cached(query)
            if leaf is not None:
                resolved[key] = leaf
            else:
                misses[key] = query
        if misses:
            fetched = self.service.similar_shapes_batch(
                list(misses.values()), threshold=self.similarity_threshold)
            for (key, query), result in zip(misses.items(), fetched):
                ids = resolved[key] = result.shape_ids
                if run is not None:
                    run.failed.update(result.failed_shards)
                if result.cached:
                    continue
                self.counters.add(
                    threshold_queries=1,
                    candidate_evaluations=result.candidates_evaluated)
                if not result.failed_shards:
                    self.selectivity.observe(
                        query, len(ids), threshold=self.similarity_threshold)
        if run is not None:
            run.leaves.update(resolved)
        return [set(resolved[key]) for key in keys]

    def shape_similar(self, query: Shape) -> Set[int]:
        """``shape_similar(Q)``: ids of all similar database shapes."""
        return self.shape_similar_batch([query])[0]

    def is_similar(self, shape_id: int, query: Shape) -> bool:
        """Direct ``g_similar(S, Q)`` test for one database shape.

        Used by strategy 1 and by restricted term filters, which check
        candidate shapes one by one instead of materializing the full
        similarity set.  On a leaf-cache hit the membership test is
        free; otherwise all of the shape's entries are measured in one
        :func:`~repro.core.measures.entry_measures` call on its shard's
        base, under the matcher's qualification rule (best average
        distance ``<= t + EPSILON``).
        """
        self.counters.add(similarity_checks=1)
        cached = self._leaf_cached(query)
        if cached is not None:
            return shape_id in cached
        corpus = self.service.shards.shard_of(shape_id).base
        threshold = self.similarity_threshold + EPSILON
        return any(value <= threshold for value in entry_measures(
            self._query_engine(query), corpus,
            corpus.entries_of_shape(shape_id)))

    def similar(self, query: Shape) -> Set[int]:
        """``similar(Q)``: the images containing a similar shape."""
        images = set()
        for shape_id in self.shape_similar(query):
            image_id = self._image_of(shape_id)
            if image_id is not None:
                images.add(image_id)
        return images

    # ------------------------------------------------------------------
    # Topological operators
    # ------------------------------------------------------------------
    def topological(self, relation: str, q1: Shape, q2: Shape,
                    theta=ANY_ANGLE, strategy: Optional[int] = None
                    ) -> Set[int]:
        """``r(Q1, Q2, theta)`` with the chosen (or planned) strategy.

        With ``strategy=None`` the planner picks: strategy 1 when the
        estimated selectivities differ substantially (driving from the
        small side avoids materializing the big one), else strategy 2.
        """
        if strategy is None:
            s1 = self.selectivity.estimate(q1, self.similarity_threshold)
            s2 = self.selectivity.estimate(q2, self.similarity_threshold)
            strategy = 1 if max(s1, s2) > 2.0 * min(s1, s2) else 2
        if strategy == 1:
            return self._topological_strategy1(relation, q1, q2, theta)
        if strategy == 2:
            return self._topological_strategy2(relation, q1, q2, theta)
        raise ValueError("strategy must be 1, 2 or None")

    def _relation_holds(self, graph: ImageGraph, s1: int, s2: int,
                        relation: str, theta) -> bool:
        """Does ``g_relation(S1, S2, theta)`` hold inside one image?"""
        self.counters.add(pairs_checked=1)
        found, angle = graph.relation(s1, s2)
        if relation == DISJOINT:
            if found != DISJOINT or s1 == s2:
                return False
            if theta == ANY_ANGLE:
                return True
            angle = diameter_angle(graph.shapes[s1], graph.shapes[s2])
            return angle_matches(angle, theta, self.angle_tolerance)
        if found != relation:
            return False
        return angle_matches(angle, theta, self.angle_tolerance)

    def _topological_strategy1(self, relation: str, q1: Shape, q2: Shape,
                               theta) -> Set[int]:
        """Paper Section 5.3, way 1: drive from the smaller side.

        Compute the similarity set of the more selective query shape;
        for each of its shapes walk the image-graph edges and test the
        partner directly against the other query shape.
        """
        sel1 = self.selectivity.estimate(q1, self.similarity_threshold)
        sel2 = self.selectivity.estimate(q2, self.similarity_threshold)
        drive_q2 = sel2 <= sel1
        driver, other = (q2, q1) if drive_q2 else (q1, q2)
        graphs = self.graphs
        result: Set[int] = set()
        for s_drive in self.shape_similar(driver):
            image_id = self._image_of(s_drive)
            if image_id is None:
                continue
            graph = graphs[image_id]
            if image_id in result:
                continue
            if relation == DISJOINT:
                partners = [sid for sid in graph.shapes
                            if sid != s_drive and
                            graph.relation(s_drive, sid)[0] == DISJOINT]
            elif drive_q2:
                # driver plays the S2 role: follow edges S1 ->r S2.
                edges = graph.in_edges(s_drive, relation)
                self.counters.add(edges_scanned=len(edges))
                partners = [e.source for e in edges]
            else:
                edges = graph.out_edges(s_drive, relation)
                self.counters.add(edges_scanned=len(edges))
                partners = [e.target for e in edges]
            for partner in partners:
                s1, s2 = (partner, s_drive) if drive_q2 else (s_drive,
                                                              partner)
                if not self._relation_holds(graph, s1, s2, relation,
                                            theta):
                    continue
                if self.is_similar(partner, other):
                    result.add(image_id)
                    break
        return result

    def _topological_strategy2(self, relation: str, q1: Shape, q2: Shape,
                               theta) -> Set[int]:
        """Paper Section 5.3, way 2: materialize both similarity sets.

        Compute ``shape_similar`` for both query shapes, intersect
        their image projections, then verify relations only inside the
        common images.
        """
        set1, set2 = self.shape_similar_batch([q1, q2])
        images1 = {self._image_of(s) for s in set1}
        images2 = {self._image_of(s) for s in set2}
        common = (images1 & images2) - {None}
        graphs = self.graphs
        result: Set[int] = set()
        for image_id in common:
            graph = graphs[image_id]
            members = set(graph.shapes)
            local1 = set1 & members
            local2 = set2 & members
            done = False
            for s1 in local1:
                for s2 in local2:
                    if s1 == s2:
                        continue
                    if self._relation_holds(graph, s1, s2, relation,
                                            theta):
                        result.add(image_id)
                        done = True
                        break
                if done:
                    break
        return result

    # ------------------------------------------------------------------
    # Composite queries
    # ------------------------------------------------------------------
    def _literal_selectivity(self, literal: Literal) -> float:
        op = literal.operator
        threshold = self.similarity_threshold
        if isinstance(op, Similar):
            estimate = self.selectivity.estimate(op.query_shape, threshold)
        else:
            estimate = min(self.selectivity.estimate(op.q1, threshold),
                           self.selectivity.estimate(op.q2, threshold))
        if literal.negated:
            return max(0.0, len(self.all_images()) - estimate)
        return estimate

    def _evaluate_operator(self, op: QueryNode) -> Set[int]:
        """Full evaluation of one operator, through the subplan cache.

        The benchmark suite monkeypatches this method to observe which
        operator the planner seeds each term with — keep it the single
        entry point for full operator evaluation.
        """
        use_cache = self.planner and self.plan_cache.enabled
        key = None
        if use_cache:
            signature = operator_signature(
                op, threshold=self.similarity_threshold,
                angle_tolerance=self.angle_tolerance)
            key = "op:" + signature
            cached = self.plan_cache.get(key, self._run().version)
            if cached is not None:
                self.counters.add(plan_cache_hits=1)
                return set(cached)
            self.counters.add(plan_cache_misses=1)
        if isinstance(op, Similar):
            result = self.similar(op.query_shape)
        elif isinstance(op, Topological):
            result = self.topological(op.relation, op.q1, op.q2, op.theta)
        else:
            raise TypeError(f"not an operator: {type(op).__name__}")
        if key is not None:
            self._plan_put(key, result)
        return result

    def _plan_put(self, key: str, images: Set[int]) -> None:
        """Cache a subplan result unless a leaf of this execution was
        partial: nothing derived from a failed shard is kept."""
        run = self._run()
        if not run.failed:
            self.plan_cache.put(key, run.version, frozenset(images))

    def _image_satisfies(self, image_id: int, literal: Literal) -> bool:
        """Restricted evaluation of one literal on one image.

        Leaf membership comes from the materialized set when one is
        already cached and from per-shape :meth:`is_similar` checks
        otherwise; topological literals verify graph edges between the
        qualifying members — per-image work only, never a scan of the
        whole corpus.
        """
        self.counters.add(filter_probes=1)
        op = literal.operator
        graph = self.graphs[image_id]

        def member_matches(shape_id: int, query: Shape,
                           leaf: Optional[FrozenSet[int]]) -> bool:
            if leaf is not None:
                return shape_id in leaf
            return self.is_similar(shape_id, query)

        if isinstance(op, Similar):
            leaf = self._leaf_cached(op.query_shape)
            value = any(member_matches(sid, op.query_shape, leaf)
                        for sid in graph.shapes)
        else:
            leaf1 = self._leaf_cached(op.q1)
            leaf2 = self._leaf_cached(op.q2)
            members = graph.shapes
            local1 = [sid for sid in members
                      if member_matches(sid, op.q1, leaf1)]
            local2 = [sid for sid in members
                      if member_matches(sid, op.q2, leaf2)]
            value = False
            for s1 in local1:
                for s2 in local2:
                    if s1 == s2:
                        continue
                    if self._relation_holds(graph, s1, s2, op.relation,
                                            op.theta):
                        value = True
                        break
                if value:
                    break
        return value != literal.negated

    def execute(self, query: QueryNode) -> Set[int]:
        """Evaluate a composite query via DNF + selectivity ordering.

        Per conjunctive term the literal with the smallest estimated
        result is evaluated in full; the remaining literals only run as
        per-image filters over that seed set (Section 5.4).  Terms
        containing only negated literals seed from the whole DB.
        """
        return self.execute_explained(query).images

    def execute_explained(self, query: QueryNode) -> ExecutionReport:
        """Like :meth:`execute` but returns the planning trace too."""
        fresh = self._run() is None
        if fresh:
            self._tls.run = _Execution(self.service.shards.version)
        try:
            report = self._execute_plan(to_dnf(query))
            report.failed_shards = sorted(self._run().failed)
            return report
        finally:
            if fresh:
                self._tls.run = None

    def _execute_plan(self, terms: List[ConjunctiveTerm]
                      ) -> ExecutionReport:
        threshold = self.similarity_threshold
        tolerance = self.angle_tolerance
        use_cache = self.planner and self.plan_cache.enabled
        report = ExecutionReport()
        if use_cache:
            report.signature = "plan:" + plan_signature(
                terms, threshold=threshold, angle_tolerance=tolerance)
            cached = self.plan_cache.get(report.signature,
                                         self._run().version)
            if cached is not None:
                self.counters.add(plan_cache_hits=1)
                report.images = set(cached)
                report.cached = True
                return report
            self.counters.add(plan_cache_misses=1)
        for term in terms:
            term_report = TermReport(signature="")
            if use_cache:
                term_report.signature = "term:" + term_signature(
                    term, threshold=threshold, angle_tolerance=tolerance)
                cached = self.plan_cache.get(term_report.signature,
                                             self._run().version)
            else:
                cached = None
            if cached is not None:
                self.counters.add(plan_cache_hits=1)
                term_report.cached = True
                term_report.images = set(cached)
            else:
                if use_cache:
                    self.counters.add(plan_cache_misses=1)
                if self.planner:
                    self._execute_term_planned(term, term_report)
                else:
                    self._execute_term_unplanned(term, term_report)
                if use_cache:
                    self._plan_put(term_report.signature,
                                   term_report.images)
            report.terms.append(term_report)
            report.images |= term_report.images
        if use_cache:
            self._plan_put(report.signature, report.images)
        return report

    def _execute_term_planned(self, term: ConjunctiveTerm,
                              report: TermReport) -> None:
        self.counters.add(terms_planned=1)
        threshold = self.similarity_threshold
        tolerance = self.angle_tolerance
        # Idempotence: duplicate literals inside a term do no extra work.
        seen: Set[str] = set()
        deduped: List[Literal] = []
        for literal in term:
            signature = literal_signature(literal, threshold=threshold,
                                          angle_tolerance=tolerance)
            if signature in seen:
                continue
            seen.add(signature)
            deduped.append(literal)
        estimates = {id(lit): self._literal_selectivity(lit)
                     for lit in deduped}
        ordered = sorted(deduped, key=lambda lit: estimates[id(lit)])
        report.estimates = [(repr(lit), estimates[id(lit)])
                            for lit in ordered]
        positives = [lit for lit in ordered if not lit.negated]
        if positives:
            seed_literal = positives[0]
            written_first = next(lit for lit in deduped
                                 if not lit.negated)
            if seed_literal is not written_first:
                self.counters.add(seeds_reordered=1)
                report.reordered = True
            report.seed_operator = seed_literal.operator
            report.seed_estimate = estimates[id(seed_literal)]
            seed = self._evaluate_operator(seed_literal.operator)
            rest = [lit for lit in ordered if lit is not seed_literal]
        else:
            seed = self.all_images()
            rest = ordered
        if seed and rest:
            # Materializing a filter leaf costs roughly one candidate
            # evaluation per corpus shape; probing it shape by shape
            # costs one similarity check per seed member.  Issue the
            # batched backend call only when the seed is wide enough
            # for materialization to be the cheaper side — tiny seeds
            # (the planner's whole point) never touch the backend for
            # their filters.
            graphs = self.graphs
            member_count = sum(len(graphs[image_id].shapes)
                               for image_id in seed if image_id in graphs)
            if 4 * member_count >= self.service.shards.num_shapes:
                leaves: List[Shape] = []
                for literal in rest:
                    op = literal.operator
                    if isinstance(op, Similar):
                        leaves.append(op.query_shape)
                    else:
                        leaves.extend((op.q1, op.q2))
                if leaves:
                    self.shape_similar_batch(leaves)
        survivors = set()
        for image_id in seed:
            if all(self._image_satisfies(image_id, lit) for lit in rest):
                survivors.add(image_id)
        report.images = survivors

    def _execute_term_unplanned(self, term: ConjunctiveTerm,
                                report: TermReport) -> None:
        """Naive baseline: full evaluation of every literal, in order.

        No deduplication, no selectivity ordering, no restricted
        filters: each literal materializes its whole image set
        (topological literals through strategy 2, which uses no
        selectivity information) and the sets are intersected.
        """
        result: Optional[Set[int]] = None
        for literal in term:
            op = literal.operator
            if isinstance(op, Similar):
                images = self.similar(op.query_shape)
            else:
                images = self.topological(op.relation, op.q1, op.q2,
                                          op.theta, strategy=2)
            if literal.negated:
                images = self.all_images() - images
            result = images if result is None else (result & images)
        report.images = result if result is not None else set()
