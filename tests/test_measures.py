"""Unit tests for the similarity measures (Hausdorff family and h_avg)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GeometricSimilarityMatcher, Shape, ShapeBase
from repro.ann import AnnPrunedMatcher
from repro.core import matcher as matcher_module
from repro.core.measures import (DistanceMemo, average_distance,
                                 continuous_average_distance,
                                 directed_average_distance,
                                 directed_hausdorff, directed_kth_hausdorff,
                                 entry_measures, hausdorff, kth_hausdorff,
                                 similarity_score, slice_means)
from repro.geometry.nearest import BoundaryDistance
from repro.geometry.transform import normalize_about_diameter
from repro.hashing import ApproximateRetriever
from repro.imaging.synthesis import (distort, generate_workload,
                                     make_query_set, place_randomly,
                                     prototype_pool, random_blob)
from repro.query import QueryEngine, ReferenceExecutor
from tests.conftest import benchmark_like_base


class TestHausdorff:
    def test_identical_shapes_zero(self, square):
        assert hausdorff(square, square) == pytest.approx(0.0)

    def test_directed_known_value(self):
        a = Shape([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = a.translated(0.0, 2.0)
        # b spans y in [2, 3]; a's farthest vertices (y = 0) are 2 away.
        assert directed_hausdorff(a, b) == pytest.approx(2.0)

    def test_asymmetry(self):
        small = Shape.rectangle(0, 0, 1, 1)
        big = Shape.rectangle(0, 0, 10, 10)
        assert directed_hausdorff(small, big) != \
            pytest.approx(directed_hausdorff(big, small))

    def test_symmetric_is_max(self, square, triangle):
        assert hausdorff(square, triangle) == pytest.approx(
            max(directed_hausdorff(square, triangle),
                directed_hausdorff(triangle, square)))

    def test_engine_reuse(self, square, triangle):
        engine = BoundaryDistance(triangle)
        assert directed_hausdorff(square, triangle, engine=engine) == \
            pytest.approx(directed_hausdorff(square, triangle))

    def test_engine_shape_mismatch(self, square, triangle):
        engine = BoundaryDistance(square)
        with pytest.raises(ValueError):
            directed_hausdorff(square, triangle, engine=engine)


class TestKthHausdorff:
    def test_k1_equals_directed(self, square, triangle):
        assert directed_kth_hausdorff(square, triangle, k=1) == \
            pytest.approx(directed_hausdorff(square, triangle))

    def test_default_is_median(self, square, triangle):
        default = directed_kth_hausdorff(square, triangle)
        explicit = directed_kth_hausdorff(square, triangle,
                                          k=square.num_vertices // 2)
        assert default == pytest.approx(explicit)

    def test_monotone_in_k(self, shape_factory):
        a, b = shape_factory(10), shape_factory(10)
        values = [directed_kth_hausdorff(a, b, k) for k in range(1, 11)]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_k_out_of_range(self, square, triangle):
        with pytest.raises(ValueError):
            directed_kth_hausdorff(square, triangle, k=0)
        with pytest.raises(ValueError):
            directed_kth_hausdorff(square, triangle, k=99)

    def test_symmetric(self, square, triangle):
        assert kth_hausdorff(square, triangle) >= 0


class TestOutlierDomination:
    """Figure 1: an outlier vertex dominates Hausdorff but not h_avg."""

    def make_shapes(self):
        base = [(0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (0.0, 2.0)]
        query = Shape(base)
        close_with_spike = Shape(base[:3] + [(2.0, 3.5)] + base[3:])
        uniformly_off = Shape([(x + 0.8, y + 0.8) for x, y in base])
        return query, close_with_spike, uniformly_off

    def test_hausdorff_prefers_uniform_offset(self):
        q, spike, offset = self.make_shapes()
        assert hausdorff(q, offset) < hausdorff(q, spike)

    def test_average_prefers_spike(self):
        """h_avg tolerates one spike better than a global offset."""
        q, spike, offset = self.make_shapes()
        assert average_distance(q, spike) < average_distance(q, offset)


class TestAverageDistance:
    def test_identical_zero(self, square):
        assert directed_average_distance(square, square) == \
            pytest.approx(0.0)
        assert continuous_average_distance(square, square) == \
            pytest.approx(0.0, abs=1e-9)

    def test_translation_offset(self, square):
        moved = square.translated(0, 3)
        assert directed_average_distance(square, moved) == pytest.approx(2.5)

    def test_average_below_hausdorff(self, shape_factory):
        a, b = shape_factory(12), shape_factory(12)
        assert directed_average_distance(a, b) <= \
            directed_hausdorff(a, b) + 1e-12

    def test_continuous_converges(self, square, triangle):
        coarse = continuous_average_distance(square, triangle,
                                             samples_per_edge=2)
        fine = continuous_average_distance(square, triangle,
                                           samples_per_edge=64)
        finer = continuous_average_distance(square, triangle,
                                            samples_per_edge=128)
        assert abs(fine - finer) < abs(coarse - finer) + 1e-12
        assert abs(fine - finer) < 1e-3

    def test_symmetric_variant(self, square, triangle):
        value = average_distance(square, triangle)
        assert value == pytest.approx(max(
            continuous_average_distance(square, triangle),
            continuous_average_distance(triangle, square)))

    def test_discrete_variant(self, square, triangle):
        value = average_distance(square, triangle, continuous=False)
        assert value == pytest.approx(max(
            directed_average_distance(square, triangle),
            directed_average_distance(triangle, square)))

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=40)
    def test_nonnegative(self, dx, dy):
        a = Shape.rectangle(0, 0, 2, 1)
        b = a.translated(dx, dy)
        assert directed_average_distance(a, b) >= 0.0

    def test_noise_robustness_vs_hausdorff(self, rng):
        """Small vertex noise moves h_avg much less than Hausdorff when a
        single vertex is an outlier."""
        base = Shape.regular_polygon(16)
        vertices = base.vertices.copy()
        vertices[3] = vertices[3] * 3.0          # one big outlier
        noisy = Shape(vertices)
        h = directed_hausdorff(noisy, base)
        avg = directed_average_distance(noisy, base)
        assert avg < h / 3.0


class TestSimilarityScore:
    def test_identical_is_one(self, square):
        assert similarity_score(square, square) == pytest.approx(1.0)

    def test_in_unit_interval(self, square, triangle):
        score = similarity_score(square, triangle)
        assert 0.0 < score < 1.0


# ----------------------------------------------------------------------
# The per-entry kernel: bitwise the scalar measure
# ----------------------------------------------------------------------
def scalar_measures(base, sketch, entry_ids):
    """The reference: one ``directed_average_distance`` per entry."""
    normalized = normalize_about_diameter(sketch).shape
    engine = BoundaryDistance(normalized)
    return [directed_average_distance(base.entry(e).shape, normalized,
                                      engine) for e in entry_ids]


def kernel_measures(base, sketch, entry_ids):
    engine = BoundaryDistance(normalize_about_diameter(sketch).shape)
    return entry_measures(engine, base, entry_ids)


def planted_and_foreign(seed, planted=12, foreign=8):
    """Benchmark-style sketches: noisy placed prototypes and blobs."""
    rng = np.random.default_rng([seed, 2])
    pool = prototype_pool(np.random.default_rng(2002), 12)
    return ([place_randomly(distort(pool[i % 12], 0.01, rng), rng)
             for i in range(planted)] +
            [place_randomly(random_blob(rng), rng) for _ in range(foreign)])


class TestEntryMeasures:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_the_scalar_measure(self, seed, count, data):
        rng = np.random.default_rng(seed)
        base = ShapeBase(alpha=0.1)
        base.add_shapes([random_blob(rng, int(rng.integers(3, 40)))
                         for _ in range(count)])
        entry_ids = data.draw(st.lists(
            st.integers(0, base.num_entries - 1),
            max_size=2 * base.num_entries))
        sketch = random_blob(rng)
        assert kernel_measures(base, sketch, entry_ids) == \
            scalar_measures(base, sketch, entry_ids)

    def test_bitwise_on_the_benchmark_corpus(self):
        base = benchmark_like_base(1)
        assert base.num_entries == 1290
        everything = list(range(base.num_entries))
        for sketch in planted_and_foreign(1):
            assert kernel_measures(base, sketch, everything) == \
                scalar_measures(base, sketch, everything)

    @given(st.lists(st.integers(1, 300), min_size=1, max_size=12),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_slice_means_are_per_slice_means(self, lengths, data):
        """Mixed lengths (around numpy's 8- and 128-element pairwise
        blocks), slices repeated in any order."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        pieces = [rng.exponential(size=n) * 10.0 ** rng.integers(-3, 3)
                  for n in lengths]
        order = data.draw(st.lists(st.integers(0, len(pieces) - 1),
                                   min_size=1, max_size=30))
        offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum([lengths[i] for i in order], out=offsets[1:])
        values = np.concatenate([pieces[i] for i in order])
        assert slice_means(values, offsets).tolist() == \
            [float(pieces[i].mean()) for i in order]

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_a_memo_changes_no_value_and_measures_each_vertex_once(
            self, small_corpus, seed, known_share):
        """Whatever share of the indexed vertices a memo already knows,
        scoring through it gives the memo-free values; only the unknown
        indexed vertices and two anchors per entry reach the engine."""
        base, sketches = small_corpus
        rng = np.random.default_rng(seed)
        sketch = sketches[int(rng.integers(len(sketches)))]
        engine = BoundaryDistance(normalize_about_diameter(sketch).shape)
        _, points, _, _, offsets = base.reader_view()
        memo = DistanceMemo(len(points))
        memo.points, memo.offsets = points, offsets
        known = np.flatnonzero(rng.random(len(points)) < known_share)
        memo.lookup(engine, known)
        entry_ids = rng.permutation(base.num_entries)[
            :int(rng.integers(1, base.num_entries))]
        unknown = sum(int((~memo.measured[offsets[e]:offsets[e + 1]]).sum())
                      for e in entry_ids)
        rows = []
        original = BoundaryDistance.distances
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BoundaryDistance, "distances",
                          lambda self, pts: rows.append(len(pts)) or
                          original(self, pts))
            assert entry_measures(engine, base, entry_ids, memo) == \
                entry_measures(engine, base, entry_ids)
        assert rows[0] == unknown + 2 * len(entry_ids)
        assert memo.measured[np.concatenate(
            [np.arange(offsets[e], offsets[e + 1]) for e in entry_ids])].all()


# ----------------------------------------------------------------------
# The paper's (1 - beta) stopping rule, judged by the referee
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def split_corpus():
    """Even images as the matcher's base, odd ones held out as where
    priors come from; planted and foreign sketches with the referee's
    full ranking of both halves."""
    rng = np.random.default_rng(20261016)
    workload = generate_workload(16, rng, shapes_per_image=4.0, noise=0.01)
    own, held = ShapeBase(alpha=0.1), ShapeBase(alpha=0.1)
    for image in workload.images:
        (own if image.image_id % 2 == 0 else held).add_shapes(
            image.shapes, image_ids=[image.image_id] * len(image.shapes))
    sketches = [query for query, _ in make_query_set(workload, 6, rng)]
    sketches += [place_randomly(random_blob(rng), rng) for _ in range(2)]
    truth = [tuple(ReferenceExecutor(base).top_k(sketch, base.num_shapes)
                   for base in (own, held)) for sketch in sketches]
    return own, sketches, truth


def triples(matches):
    return [(m.shape_id, m.entry_id, m.distance) for m in matches]


class TestStoppingRule:
    @given(st.integers(0, 7), st.sampled_from([1, 2, 3, 5]),
           st.sampled_from([0.1, 0.25, 0.5]),
           st.sets(st.integers(0, 30), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_guaranteed_answers_are_the_referees(self, split_corpus, index,
                                                 k, beta, chosen):
        """A ``guaranteed`` answer holds every own shape of the top-k of
        (own shapes ∪ priors) — at the referee's distance and copy, in
        the referee's order — and nothing closer than the k-th best."""
        own, sketches, truth = split_corpus
        ranked_own, ranked_held = truth[index]
        priors = [ranked_held[i].distance for i in sorted(chosen)
                  if i < len(ranked_held)]
        (matches, stats), = GeometricSimilarityMatcher(
            own, beta=beta).query_batch([sketches[index]], k=k,
                                        priors=[priors])
        if not stats.guaranteed:
            return
        want = ranked_own[:k]
        kth = sorted([m.distance for m in want] + priors)[k - 1]
        head = [m for m in want if m.distance <= kth]
        assert len(matches) <= k
        assert triples(matches[:len(head)]) == triples(head)
        assert all(m.distance > kth for m in matches[len(head):])


# ----------------------------------------------------------------------
# Clock-free: one engine call per scoring site
# ----------------------------------------------------------------------
class EngineCalls:
    """Counts ``BoundaryDistance.distances`` calls, every engine."""

    def __init__(self, monkeypatch):
        self.count = 0
        original = BoundaryDistance.distances

        def counted(engine, points):
            self.count += 1
            return original(engine, points)
        monkeypatch.setattr(BoundaryDistance, "distances", counted)

    def during(self, call):
        before = self.count
        result = call()
        return result, self.count - before


@pytest.fixture(scope="module")
def small_corpus():
    return benchmark_like_base(2, images=8), planted_and_foreign(2, 6, 2)


class TestOneEngineCallPerScoringSite:
    def test_hash_tier(self, small_corpus, monkeypatch):
        base, sketches = small_corpus
        retriever = ApproximateRetriever(base, k_curves=40)
        calls = EngineCalls(monkeypatch)
        for sketch in sketches[:6]:
            matches, made = calls.during(lambda: retriever.query(sketch, k=3))
            assert matches and made == 1

    def test_ann_tier(self, small_corpus, monkeypatch):
        base, sketches = small_corpus
        ann = AnnPrunedMatcher(base)
        calls = EngineCalls(monkeypatch)
        for sketch in sketches[:6]:
            (matches, _), made = calls.during(lambda: ann.query(sketch, k=3))
            assert matches and made == 1

    def test_is_similar_probe(self, small_corpus, monkeypatch):
        base, sketches = small_corpus
        engine = QueryEngine(base, similarity_threshold=0.05,
                             cache_capacity=0)
        calls = EngineCalls(monkeypatch)
        for shape_id in base.shape_ids():
            _, made = calls.during(
                lambda: engine.is_similar(shape_id, sketches[0]))
            assert made == 1

    def test_drive_scores_an_iterations_candidates_at_once(
            self, small_corpus, monkeypatch):
        """Per envelope iteration (delimited by the ``abort`` poll): at
        most one kernel call, making one engine call, exactly when the
        iteration promoted candidates."""
        base, sketches = small_corpus
        matcher = GeometricSimilarityMatcher(base)
        calls = EngineCalls(monkeypatch)
        kernel = matcher_module.entry_measures
        events = []

        def scored(engine, corpus, entry_ids, *memo):
            values, made = calls.during(
                lambda: kernel(engine, corpus, entry_ids, *memo))
            events.append(("scored", len(entry_ids), made))
            return values

        monkeypatch.setattr(matcher_module, "entry_measures", scored)
        for sketch in sketches:
            events.clear()
            _, stats = matcher.query(
                sketch, k=3,
                on_candidate=lambda entry: events.append("candidate"),
                abort=lambda: bool(events.append("iteration")))
            iterations = []
            for event in events:
                if event == "iteration":
                    iterations.append([])
                else:
                    iterations[-1].append(event)
            assert len(iterations) == stats.iterations
            for seen in iterations:
                promoted = seen.count("candidate")
                kernel_calls = [e for e in seen if e != "candidate"]
                assert kernel_calls == ([("scored", promoted, 1)]
                                        if promoted else [])
            assert sum(seen.count("candidate") for seen in iterations) == \
                stats.candidates_evaluated


# ----------------------------------------------------------------------
# Anchors are the copy's own, not (0, 0) and (1, 0)
# ----------------------------------------------------------------------
def test_an_anchor_one_ulp_off_is_measured_where_it_is(small_corpus):
    """A copy's anchors are its diameter's endpoints after a rounded
    transform: on this base some sit one ulp of 1.0 off (1, 0).  With
    that copy's own shape as the sketch, the matcher's distances are the
    referee's, and measuring the anchors at (0, 0) / (1, 0) instead
    would not be."""
    base, _ = small_corpus
    referee = ReferenceExecutor(base)
    for shape_id in base.shape_ids():
        sketch = base.shapes[shape_id]
        want = referee.top_k(sketch, 3)
        entry = base.entry(want[0].entry_id)
        anchors = entry.shape.vertices[list(entry.copy.pair)]
        if np.abs(anchors - [[0.0, 0.0], [1.0, 0.0]]).max() == \
                np.spacing(1.0):
            break
    else:
        pytest.fail("no copy with an anchor one ulp off")
    engine = BoundaryDistance(normalize_about_diameter(sketch).shape)
    rows = engine.distances(entry.shape.vertices)
    rows[list(entry.copy.pair)] = engine.distances(
        np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert float(rows.mean()) != want[0].distance
    matches, _ = GeometricSimilarityMatcher(base).query(sketch, k=3)
    assert triples(matches) == triples(want)
