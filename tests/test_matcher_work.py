"""The fattening driver against a per-band reference, and its work budget.

The matcher replays the paper's epsilon schedule from a per-query memo
of boundary distances (``core/matcher.py``).  This module keeps the
loop it replaced — one triangle cover, one exact range report and one
distance check per epsilon step, with a visited set — as the
*reference*, built only from public pieces (``band_cover_triangles``,
``report_triangles``, ``BoundaryDistance``), and checks three things
without a clock:

* **answers**: the matcher and the reference agree on matches and on
  every schedule-level counter, on every backend;
* **memo**: no vertex's distance is computed twice in one query, by
  the band pass, the one-pass fill or the exact scoring, and the engine
  sees at most one row per indexed vertex plus two anchors per scored
  copy;
* **work gate**: summed over a fixed query list the matcher issues at
  most a third as many index queries as it runs iterations, and a
  quarter of the reference's triangles — so a change that quietly
  reintroduces per-step traversals fails here, not in a timer;
* **fill**: the index is given up for one scan exactly where the cost
  rule says, and a query that fills issues fewer index queries than
  the band rule alone would.

The last section covers ``priors`` — exact distances of shapes held
elsewhere, which only ever move the stopping test: an empty prior is
today's query counter for counter, and with real ones every own shape
that belongs to the top-k of (own ∪ elsewhere) still comes back at its
own distance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GeometricSimilarityMatcher, ShapeBase
from repro.core.epsilon import EpsilonSchedule
from repro.core.matcher import best_per_shape, rank
from repro.geometry.envelope import band_cover_triangles
from repro.geometry.nearest import BoundaryDistance
from repro.geometry.primitives import EPSILON
from repro.imaging.synthesis import (generate_workload, make_query_set,
                                     random_blob)

COUNTERS = ("iterations", "epsilons", "vertices_processed",
            "candidates_evaluated", "guaranteed", "exhausted")


# ----------------------------------------------------------------------
# The per-band reference driver (the loop the memo replaced)
# ----------------------------------------------------------------------
def per_band_reference(matcher, query, k=None, threshold=None, abort=None):
    """Top-k (``k``) or threshold query, one range search per step.

    Returns ``(matches, work)``: ``(shape_id, entry_id, distance)``
    triples in rank order and a dict of the :data:`COUNTERS` plus
    ``triangles_queried`` and ``trace``, the scored entry ids in
    scoring order.
    """
    base = matcher.base
    index, points, owner, sizes = base.reader_view()[:4]
    thresholds = np.maximum(
        np.ceil((1.0 - matcher.beta) * sizes).astype(np.int64), 1)
    normalized = matcher.normalize_query(query)
    engine = BoundaryDistance(normalized)
    schedule = matcher.make_schedule(normalized)
    if threshold is not None:
        needed = threshold / matcher.beta
        schedule = EpsilonSchedule(
            initial=schedule.initial, growth=schedule.growth,
            maximum=max(schedule.maximum, needed, schedule.initial))
    visited = np.zeros(len(points), dtype=bool)
    inside_counts = np.zeros(len(sizes), dtype=np.int64)
    evaluated = np.zeros(len(sizes), dtype=bool)
    best = {}
    work = dict(iterations=0, epsilons=[], vertices_processed=0,
                candidates_evaluated=0, guaranteed=False, exhausted=True,
                triangles_queried=0, trace=[])
    eps_prev = 0.0
    for eps in schedule.widths():
        if abort is not None and abort():
            break
        work["iterations"] += 1
        work["epsilons"].append(eps)
        triangles = band_cover_triangles(normalized, eps_prev, eps,
                                         matcher.cap_sectors)
        work["triangles_queried"] += len(triangles)
        ids = index.report_triangles(triangles)
        ids = ids[~visited[ids]]
        inside = ids[engine.distances(points[ids]) <= eps + EPSILON]
        visited[inside] = True
        work["vertices_processed"] += len(inside)
        np.add.at(inside_counts, owner[inside], 1)
        touched = np.unique(owner[inside])
        fresh = touched[(inside_counts[touched] >= thresholds[touched])
                        & ~evaluated[touched]]
        evaluated[fresh] = True
        entries = [base.entry(int(e)) for e in fresh]
        values = matcher._entry_measures(entries, fresh, engine, normalized)
        work["candidates_evaluated"] += len(fresh)
        work["trace"] += fresh.tolist()
        best_per_shape(base, fresh, values, best)
        if threshold is None:
            ranked = sorted(value for value, _ in best.values())
            stop = len(ranked) >= k and \
                ranked[k - 1] <= matcher.beta * eps + EPSILON
        else:
            stop = eps >= needed
        if stop:
            work["guaranteed"], work["exhausted"] = True, False
            break
        eps_prev = eps
    if threshold is not None:
        best = {sid: bv for sid, bv in best.items()
                if bv[0] <= threshold + EPSILON}
        k = len(best)
    return match_triples(rank(base, best, k)), work


def match_triples(matches):
    return [(m.shape_id, m.entry_id, m.distance) for m in matches]


def assert_agree(answer, reference):
    """The two drivers agree; returns whether the matcher filled."""
    (matches, stats), (expected, work) = answer, reference
    assert match_triples(matches) == expected
    for counter in COUNTERS:
        assert getattr(stats, counter) == work[counter], counter
    assert stats.range_queries <= stats.iterations
    return stats.vertices_scanned > 0


def banded(base):
    """Whether the base's index resolves less than a whole schedule per
    query (the brute backend answers every band at once, so it never
    issues a second query and never fills)."""
    return base.backend == "kdtree"


class OnlyWidths:
    """A schedule that is just the given widths."""

    def __init__(self, widths):
        self._widths = widths

    def widths(self):
        return iter(self._widths)


class AbortAfter:
    """An ``abort`` hook that fires on its ``polls``-th poll."""

    def __init__(self, polls):
        self.remaining = polls

    def __call__(self):
        self.remaining -= 1
        return self.remaining <= 0


# ----------------------------------------------------------------------
# Corpus: 24 synthetic images behind three index backends
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus():
    """``(bases by backend, queries)`` over one seeded 24-image corpus."""
    rng = np.random.default_rng(20260118)
    workload = generate_workload(24, rng, shapes_per_image=4.0, noise=0.01)
    shapes = [(shape, image.image_id) for image in workload.images
              for shape in image.shapes]
    bases = {}
    for name in ("kdtree", "brute", "incremental"):
        base = ShapeBase(alpha=0.05, backend="brute" if name == "brute"
                         else "kdtree")
        head = len(shapes) - 6 if name == "incremental" else len(shapes)
        for shape, image_id in shapes[:head]:
            base.add_shape(shape, image_id=image_id)
        if name == "incremental":
            base.index                  # build the core before appending
            base.auto_fold = False
            for shape, image_id in shapes[head:]:
                base.add_shape(shape, image_id=image_id)
            assert base.index_delta_size > 0
        bases[name] = base
    queries = [query for query, _ in make_query_set(workload, 10, rng)]
    queries += [random_blob(rng), random_blob(rng)]       # no close match
    return bases, queries


@pytest.fixture(params=["kdtree", "brute", "incremental"])
def base(request, corpus):
    return corpus[0][request.param]


# ----------------------------------------------------------------------
# Answers: replayed schedule == per-band loop
# ----------------------------------------------------------------------
class TestAgreesWithPerBandReference:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("measure",
                             ["discrete", "continuous", "symmetric"])
    def test_top_k(self, base, corpus, k, measure):
        """One batch, so the memo is also reset between queries; each
        list holds a foreign sketch, so the fill is covered."""
        matcher = GeometricSimilarityMatcher(base, measure=measure)
        queries = corpus[1][6:11] if measure == "discrete" \
            else corpus[1][8:11]
        filled = [assert_agree(answer,
                               per_band_reference(matcher, query, k=k))
                  for answer, query in zip(
                      matcher.query_batch(queries, k=k), queries)]
        assert any(filled) == banded(base)

    @pytest.mark.parametrize("threshold", [0.0, 0.02, 0.3])
    def test_threshold(self, base, corpus, threshold):
        matcher = GeometricSimilarityMatcher(base)
        filled = [assert_agree(
            matcher.query_threshold(query, threshold),
            per_band_reference(matcher, query, threshold=threshold))
            for query in corpus[1][::3]]
        if threshold == 0.3 and banded(base):
            assert all(filled)

    @pytest.mark.parametrize("polls", [1, 2, 5, 9])
    def test_abort_mid_schedule(self, base, corpus, polls):
        matcher = GeometricSimilarityMatcher(base)
        for query in corpus[1][::3] + corpus[1][-1:]:
            answer = matcher.query(query, k=3, abort=AbortAfter(polls))
            assert_agree(answer, per_band_reference(
                matcher, query, k=3, abort=AbortAfter(polls)))
            stats = answer[1]
            assert stats.iterations < polls
            assert stats.aborted == stats.exhausted == \
                (not stats.guaranteed)


# ----------------------------------------------------------------------
# Memo and work budget
# ----------------------------------------------------------------------
class Probe:
    """Counts what one matcher asks of its index and distance engine.

    ``reported`` holds the id array of every ``index.candidates`` call;
    ``evaluated`` the point rows of every distance call ``_drive``'s
    band pass made, ``scoring`` those of the calls made while scoring
    candidates' exact measures (their anchors included), and ``scored``
    the entry ids each scoring call was handed.
    """

    def __init__(self, monkeypatch, matcher):
        self.reported = []
        self.evaluated = []
        self.scoring = []
        self.scored = []
        probe = self
        in_scoring = []
        index = matcher.base.index
        candidates = index.candidates
        entry_measures = matcher._entry_measures

        def recording_candidates(triangles):
            ids = candidates(triangles)
            probe.reported.append(ids)
            return ids

        def flagged_measures(*args):
            in_scoring.append(True)
            probe.scored.append(np.asarray(args[1]))
            try:
                return entry_measures(*args)
            finally:
                in_scoring.pop()

        class CountingDistance(BoundaryDistance):
            def distances(self, points):
                (probe.scoring if in_scoring else probe.evaluated).append(
                    np.array(points))
                return super().distances(points)

        monkeypatch.setattr(index, "candidates", recording_candidates)
        monkeypatch.setattr(matcher, "_entry_measures", flagged_measures)
        monkeypatch.setattr("repro.core.matcher.BoundaryDistance",
                            CountingDistance)

    def drain(self):
        """``(distinct ids reported, band-pass rows, scoring rows,
        scored entry ids)`` since the last drain."""
        def joined(arrays, empty):
            return np.concatenate(arrays) if arrays else empty

        reported = np.unique(joined(self.reported,
                                    np.zeros(0, dtype=np.int64)))
        drained = (reported, joined(self.evaluated, np.zeros((0, 2))),
                   joined(self.scoring, np.zeros((0, 2))),
                   joined(self.scored, np.zeros(0, dtype=np.int64)))
        self.reported, self.evaluated = [], []
        self.scoring, self.scored = [], []
        return drained


def indexed_rows(base, entry_ids):
    """The indexed vertex ids of ``entry_ids``."""
    offsets = base.reader_view()[4]
    return np.concatenate([np.arange(offsets[e], offsets[e + 1])
                           for e in entry_ids] or [np.zeros(0, int)])


class TestMemo:
    def test_no_vertex_evaluated_twice(self, base, corpus, monkeypatch):
        points = base.vertex_points
        assert len(np.unique(points, axis=0)) == len(points)
        matcher = GeometricSimilarityMatcher(base)
        probe = Probe(monkeypatch, matcher)
        for query in corpus[1]:
            _, stats = matcher.query(query, k=3)
            calls = len(probe.reported)
            reported, rows, scoring, scored = probe.drain()
            assert stats.range_queries == calls <= stats.iterations
            assert stats.vertices_reported >= len(reported)
            assert len(scored) == len(np.unique(scored)) == \
                stats.candidates_evaluated
            # Distinct rows are distinct ids (the points are distinct).
            # Every id the index handed back or a scored copy holds was
            # evaluated once, by the band pass or by scoring, and
            # scoring adds each copy's two anchors.
            assert len(np.unique(rows, axis=0)) == len(rows)
            if stats.vertices_scanned == 0:
                assert len(rows) <= len(reported)
                distinct = np.union1d(reported, indexed_rows(base, scored))
                assert len(rows) + len(scoring) - 2 * len(scored) == \
                    len(distinct)
            else:
                # The fill measured what no band or score had: every
                # indexed vertex exactly once.
                assert len(rows) + len(scoring) - 2 * len(scored) == \
                    base.total_vertices

    def test_engine_rows_stay_within_one_scan(self, base, corpus,
                                              monkeypatch):
        """Clock-free: per query, at most one row per indexed vertex
        plus two anchors per scored copy reach the engine."""
        matcher = GeometricSimilarityMatcher(base)
        probe = Probe(monkeypatch, matcher)
        for query in corpus[1]:
            _, stats = matcher.query(query, k=3)
            _, rows, scoring, _ = probe.drain()
            assert len(rows) + len(scoring) <= \
                base.total_vertices + 2 * stats.candidates_evaluated


class TestWorkGate:
    def test_index_work_stays_a_fraction_of_per_band(self, corpus,
                                                     monkeypatch):
        bases, queries = corpus
        matcher = GeometricSimilarityMatcher(bases["kdtree"])
        reference_triangles = sum(
            per_band_reference(matcher, query, k=3)[1]["triangles_queried"]
            for query in queries)
        probe = Probe(monkeypatch, matcher)
        iterations = range_queries = triangles = 0
        evaluations = distinct_reported = 0
        for query in queries:
            _, stats = matcher.query(query, k=3)
            reported, rows, scoring, scored = probe.drain()
            iterations += stats.iterations
            range_queries += stats.range_queries
            triangles += stats.triangles_queried
            if stats.vertices_scanned == 0:
                evaluations += len(rows)
                distinct_reported += len(reported)
            else:
                assert len(rows) + len(scoring) - 2 * len(scored) == \
                    bases["kdtree"].total_vertices
        assert range_queries <= iterations / 3
        assert triangles <= 0.25 * reference_triangles
        assert evaluations <= distinct_reported


class TestFill:
    """Where the index gives way to one scan (``_drive``'s cost rule)."""

    def test_range_queries_per_sketch(self, corpus):
        """Pinned on the kd-tree corpus at k = 3: one fill each on
        sketches 8, 11 and 12, where the band rule alone (the driver
        before the fill existed) issues 3, 4 and 3 index queries."""
        bases, queries = corpus
        matcher = GeometricSimilarityMatcher(bases["kdtree"])
        answers = [stats for _, stats in
                   (matcher.query(query, k=3) for query in queries)]
        assert [s.range_queries for s in answers] == \
            [2, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1]
        assert [i + 1 for i, s in enumerate(answers)
                if s.vertices_scanned] == [8, 11, 12]
        assert [self.band_rule_queries(matcher, query, s)
                for query, s in zip(queries, answers)] == \
            [2, 1, 1, 2, 1, 1, 1, 3, 1, 1, 4, 3]

    def test_fill_keeps_the_access_trace(self, base, corpus):
        """``on_candidate`` sees the per-band loop's scoring order —
        each step's copies in ascending entry id — with or without a
        fill (the storage experiments replay that trace)."""
        matcher = GeometricSimilarityMatcher(base)
        for query in corpus[1]:
            trace = []
            _, stats = matcher.query(
                query, k=3, on_candidate=lambda e: trace.append(e.entry_id))
            assert trace == per_band_reference(matcher, query,
                                               k=3)[1]["trace"]

    def test_widths_half_an_epsilon_below_vertices(self, base, corpus,
                                                    monkeypatch):
        """Every width moved to half an ``EPSILON`` below a vertex's
        distance: that vertex belongs to the step (``d <= eps +
        EPSILON``) whether the query fills or not."""
        matcher = GeometricSimilarityMatcher(base)
        make_schedule = matcher.make_schedule
        filled = 0
        for query in corpus[1]:
            normalized = matcher.normalize_query(query)
            distances = np.sort(BoundaryDistance(normalized).distances(
                base.vertex_points))
            widths = []
            for width in make_schedule(normalized).widths():
                below = distances[max(np.searchsorted(distances, width) - 1,
                                      0)] - EPSILON / 2
                if not widths or below > widths[-1]:
                    widths.append(float(below))
            monkeypatch.setattr(matcher, "make_schedule",
                                lambda _, widths=widths: OnlyWidths(widths))
            filled += assert_agree(matcher.query(query, k=3),
                                   per_band_reference(matcher, query, k=3))
        assert bool(filled) == banded(base)

    def test_fill_stays_within_the_captured_index(self, corpus,
                                                  monkeypatch):
        """Appends publish the arrays before the extended index, so a
        reader can capture an index one ingest older than its arrays:
        the fill measures and promotes only what that index covers."""
        bases, queries = corpus
        shapes = [(shape, image_id) for _, shape, image_id
                  in bases["kdtree"].iter_shapes()]
        base = ShapeBase(alpha=0.05)
        for shape, image_id in shapes[:-6]:
            base.add_shape(shape, image_id=image_id)
        stale, head = base.index, base.num_entries
        base.auto_fold = False
        for shape, image_id in shapes[-6:]:
            base.add_shape(shape, image_id=image_id)
        view = base.reader_view
        monkeypatch.setattr(base, "reader_view",
                            lambda: (stale,) + view()[1:])
        matcher = GeometricSimilarityMatcher(base)
        for query in queries[-2:]:
            trace = []
            _, stats = matcher.query(
                query, k=3, on_candidate=lambda e: trace.append(e.entry_id))
            assert stats.vertices_scanned
            assert stats.vertices_processed <= len(stale)
            assert 0 < len(trace) and max(trace) < head

    @staticmethod
    def band_rule_queries(matcher, query, stats):
        """The index queries the band rule issues over the steps the
        query ran, with no fill."""
        widths = np.array(stats.epsilons)
        return matcher._bands_to(widths, 0, 0.0,
                                 matcher.base.index.resolution,
                                 len(widths) - 1)

    def test_fill_only_ever_saves_index_queries(self, base, corpus):
        """Clock-free, on every backend: a query without a fill issues
        exactly the band rule's index queries, one with a fill strictly
        fewer, and the foreign sketches fill."""
        matcher = GeometricSimilarityMatcher(base)
        for position, query in enumerate(corpus[1]):
            _, stats = matcher.query(query, k=3)
            rule = self.band_rule_queries(matcher, query, stats)
            if stats.vertices_scanned:
                assert stats.range_queries < rule
            else:
                assert stats.range_queries == rule
            if position >= 10 and banded(base):      # random blobs
                assert stats.vertices_scanned


# ----------------------------------------------------------------------
# Priors: distances found elsewhere move the stopping test, nothing else
# ----------------------------------------------------------------------
MEASURES = ("discrete", "continuous", "symmetric")


def true_distances(base, query, measure):
    """Brute force: every shape's best measure over all of its copies."""
    matcher = GeometricSimilarityMatcher(base, measure=measure)
    normalized = matcher.normalize_query(query)
    engine = BoundaryDistance(normalized)
    best = {}
    for entry_id in range(base.num_entries):
        entry = base.entry(entry_id)
        value = matcher._entry_measure(entry, engine, normalized)
        best[entry.shape_id] = min(value, best.get(entry.shape_id, value))
    return best


class SplitCorpus:
    """Half of a seeded corpus behind three backends (*local*), the
    other half held out as the place priors come from."""

    def __init__(self):
        rng = np.random.default_rng(20261002)
        workload = generate_workload(12, rng, shapes_per_image=4.0,
                                     noise=0.01)
        shapes = [(shape, image.image_id) for image in workload.images
                  for shape in image.shapes]
        local, held = shapes[0::2], shapes[1::2]
        self.bases = {}
        for name in ("kdtree", "brute", "incremental"):
            base = ShapeBase(alpha=0.05, backend="brute" if name == "brute"
                             else "kdtree")
            head = len(local) - 4 if name == "incremental" else len(local)
            for shape, image_id in local[:head]:
                base.add_shape(shape, image_id=image_id)
            if name == "incremental":
                base.index
                base.auto_fold = False
                for shape, image_id in local[head:]:
                    base.add_shape(shape, image_id=image_id)
                assert base.index_delta_size > 0
            self.bases[name] = base
        self.held = ShapeBase(alpha=0.05)
        for shape, image_id in held:
            self.held.add_shape(shape, image_id=image_id)
        self.queries = [query for query, _ in
                        make_query_set(workload, 3, rng)]
        self.queries.append(random_blob(rng))             # no close match
        self._truth = {}

    def truth(self, query_index, measure):
        """``(local, held out)`` true distances, ascending lists for the
        held-out half and a dict by shape id for the local one (the
        three local bases hold the same shapes under the same ids)."""
        key = (query_index, measure)
        if key not in self._truth:
            query = self.queries[query_index]
            self._truth[key] = (
                true_distances(self.bases["kdtree"], query, measure),
                sorted(true_distances(self.held, query, measure).values()))
        return self._truth[key]

    def check(self, backend, measure, k, query_index, priors):
        """The contract of ``priors`` for one query."""
        matcher = GeometricSimilarityMatcher(self.bases[backend],
                                             measure=measure)
        query = self.queries[query_index]
        local, _ = self.truth(query_index, measure)
        (matches, stats), = matcher.query_batch([query], k=k,
                                                priors=[priors])
        _, alone = matcher.query(query, k=k)
        assert stats.iterations <= alone.iterations
        assert stats.candidates_evaluated <= alone.candidates_evaluated
        assert len(matches) <= k
        returned = {m.shape_id: m.distance for m in matches}
        assert all(local[sid] <= value for sid, value in returned.items())
        kth = sorted(list(local.values()) + list(priors))[k - 1]
        for sid, value in local.items():
            if value < kth - EPSILON:
                assert returned.get(sid) == value, (sid, value)
        if stats.prior_stops:
            own = sorted(returned.values())
            assert stats.guaranteed and priors
            assert len(own) < k or \
                own[k - 1] > matcher.beta * stats.epsilons[-1] + EPSILON


@pytest.fixture(scope="module")
def split():
    return SplitCorpus()


class TestPriors:
    @pytest.mark.parametrize("k", [1, 3])
    def test_no_priors_is_todays_query(self, base, corpus, k):
        matcher = GeometricSimilarityMatcher(base)
        queries = corpus[1][5:9]
        for priors in (None, [[] for _ in queries]):
            for answer, query in zip(
                    matcher.query_batch(queries, k=k, priors=priors),
                    queries):
                assert_agree(answer,
                             per_band_reference(matcher, query, k=k))
                assert answer[1].prior_stops == 0

    @pytest.mark.parametrize("backend", ["kdtree", "brute", "incremental"])
    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_held_out_distances_as_priors(self, split, backend, measure,
                                          k):
        """The k best held-out distances, the next k, and all of them
        (the refined measures cost ~10x per query: two queries each)."""
        indices = range(4) if measure == "discrete" else (1, 3)
        for query_index in indices:
            _, held = split.truth(query_index, measure)
            for priors in (held[:k], held[k:2 * k], held):
                split.check(backend, measure, k, query_index, priors)

    @given(st.sampled_from(["kdtree", "brute", "incremental"]),
           st.sampled_from(MEASURES), st.sampled_from([1, 3, 10]),
           st.integers(0, 3), st.sets(st.integers(0, 23), max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_any_subset_of_held_out_distances(self, split, backend,
                                              measure, k, query_index,
                                              chosen):
        _, held = split.truth(query_index, measure)
        split.check(backend, measure, k, query_index,
                    [held[i] for i in sorted(chosen)])

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_k_zeros_stop_at_the_first_step(self, base, corpus, k):
        """The bound is already met: one step, and what that step's
        envelope happened to promote is all that is scored."""
        matcher = GeometricSimilarityMatcher(base)
        queries = corpus[1][::4]
        for (matches, stats), query in zip(
                matcher.query_batch(queries, k=k,
                                    priors=[[0.0] * k] * len(queries)),
                queries):
            assert stats.iterations == 1 and stats.guaranteed
            own_would_do = len(matches) == k and matches[-1].distance <= \
                matcher.beta * stats.epsilons[0] + EPSILON
            assert stats.prior_stops == (0 if own_would_do else 1)

    def test_more_than_k_priors_use_the_k_smallest(self, base, corpus):
        matcher = GeometricSimilarityMatcher(base)
        query = corpus[1][0]
        few = matcher.query_batch([query], k=2, priors=[[0.0, 0.0]])[0]
        many = matcher.query_batch([query], k=2,
                                   priors=[[5.0, 0.0, 9.0, 0.0]])[0]
        assert match_triples(few[0]) == match_triples(many[0])
        assert few[1].iterations == many[1].iterations == 1

    @pytest.mark.parametrize("priors", [
        [], [[], [], []], [[float("nan")], []], [[-1.0], []],
        [[0.1, float("inf")], []]])
    def test_malformed_priors_raise_before_any_work(self, base, corpus,
                                                    priors):
        matcher = GeometricSimilarityMatcher(base)
        polled = []
        with pytest.raises(ValueError):
            matcher.query_batch(corpus[1][:2], k=3, priors=priors,
                                abort=lambda: polled.append(1))
        assert not polled
