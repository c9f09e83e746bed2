"""Unit tests for characteristic quadruples and their sort keys, and for
signing a block of entries at once — bit-identical to the per-entry
paper-§3 ternary search, and the only search the build paths run."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Shape, ShapeBase
from repro.geometry.lune import (clamp_to_lune, in_lune, quarters_of,
                                 sample_lune)
from repro.geometry.transform import (batch_normalized_copies,
                                      normalize_about_diameter)
from repro.hashing import ApproximateRetriever, characteristic, curves
from repro.hashing.characteristic import (EMPTY_QUARTER,
                                          characteristic_quadruple,
                                          characteristic_quadruples,
                                          compute_signatures,
                                          quadruple_distance,
                                          quadruple_mean_curve,
                                          quadruple_median_curve)
from repro.hashing.curves import HashCurveFamily, solve_curve_parameters
from repro.imaging.synthesis import (distort, place_randomly,
                                     prototype_pool, random_blob)
from repro.service import RetrievalService, ServiceConfig
from repro.storage import save_base
from tests.conftest import benchmark_like_base, star_shaped_polygon

FAMILIES = {k: HashCurveFamily(k) for k in (1, 2, 3, 4, 5, 30, 50)}
#: Vertices per quarter: 1-9 and either side of numpy's pairwise-sum
#: block (128) and of its first split (256).
COUNTS = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 127, 128, 129, 257, 300]
KINDS = ["plain", "bare", "outside", "mirror", "doubled"]
#: Every normalized copy's diameter endpoints (quarters 1 and 2).
ANCHORS = np.array([[0.0, 0.0], [1.0, 0.0]])


def scalar_quadruple(shape, family):
    """The per-entry reference: one ``closest_curve`` per quarter."""
    points = clamp_to_lune(shape.vertices)
    quarters = quarters_of(points)
    return tuple(family.closest_curve(points[quarters == q], q)
                 if np.any(quarters == q) else EMPTY_QUARTER
                 for q in (1, 2, 3, 4))


def assert_matches_scalar(shapes, family):
    got = characteristic_quadruples(shapes, family)
    assert got.shape == (len(shapes), 4)
    assert [tuple(row) for row in got.tolist()] == \
        [scalar_quadruple(shape, family) for shape in shapes]


def quarter_points(rng, quarter, count):
    found = np.zeros((0, 2))
    while len(found) < count:
        batch = sample_lune(4 * count + 8, rng)
        found = np.concatenate([found, batch[quarters_of(batch) == quarter]])
    return found[:count]


def block_shape(rng, counts, kind="plain"):
    """``counts[q - 1]`` lune points in quarter q, beside the anchors
    unless ``bare``; ``outside`` adds alpha-copy vertices the clamp moves
    onto the lune boundary, ``mirror`` the x-axis mirror image,
    ``doubled`` every vertex twice.  Vertex order is shuffled so the
    quarters interleave."""
    parts = [quarter_points(rng, q, n) for q, n in enumerate(counts, 1)]
    if kind != "bare":
        parts.append(ANCHORS)
    points = np.concatenate(parts)
    if kind == "outside":
        spill = rng.uniform([-0.4, -1.2], [1.4, 1.2], size=(40, 2))
        points = np.concatenate([points, spill[~in_lune(spill)][:6]])
    elif kind == "mirror":
        points = np.concatenate([points, points[points[:, 1] != 0] * [1, -1]])
    elif kind == "doubled":
        points = np.concatenate([points, points])
    if len(points) < 2:
        points = np.concatenate([points, ANCHORS])
    return Shape(points[rng.permutation(len(points))], closed=False)


def recorded(monkeypatch, owner, name):
    """Every call of ``owner.name`` from now on, still answered."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.fixture(scope="module")
def family():
    return HashCurveFamily(50)


class TestQuadruple:
    def test_values_in_range(self, family, rng):
        for _ in range(10):
            shape = star_shaped_polygon(rng, 12)
            normalized = normalize_about_diameter(shape).shape
            quad = characteristic_quadruple(normalized, family)
            assert len(quad) == 4
            for c in quad:
                assert c == EMPTY_QUARTER or 1 <= c <= family.k

    def test_exhaustive_agrees(self, family, rng):
        for _ in range(5):
            shape = star_shaped_polygon(rng, 10)
            normalized = normalize_about_diameter(shape).shape
            fast = characteristic_quadruple(normalized, family)
            exact = characteristic_quadruple(normalized, family,
                                             exhaustive=True)
            for quarter, (a, b) in enumerate(zip(fast, exact), start=1):
                if a == b:
                    continue
                # Ties: both must achieve the same average distance.
                from repro.geometry.lune import clamp_to_lune, quarters_of
                pts = clamp_to_lune(normalized.vertices)
                subset = pts[quarters_of(pts) == quarter]
                assert family.average_distance(subset, quarter, a) == \
                    pytest.approx(
                        family.average_distance(subset, quarter, b),
                        abs=1e-9)

    def test_similar_shapes_close_signatures(self, family, rng):
        """A noisy query's signature is close to *one of* the stored
        copies' signatures.

        Noise can flip which vertex pair is the diameter (or its
        orientation), completely changing the single-normalization
        signature — that is exactly why Section 2.4 stores every
        alpha-diameter in both orders.  The hash lookup therefore only
        needs the query signature to be near the signature of some
        stored copy.
        """
        from repro.geometry.transform import normalized_copies
        shape = star_shaped_polygon(rng, 14)
        noisy = Shape(shape.vertices +
                      rng.normal(0, 0.004, shape.vertices.shape))
        noisy_normalized = normalize_about_diameter(noisy).shape
        query_signature = characteristic_quadruple(noisy_normalized, family)
        stored = [characteristic_quadruple(copy.shape, family)
                  for copy in normalized_copies(shape, alpha=0.1)]
        best = min(quadruple_distance(query_signature, s) for s in stored)
        assert best <= 3.0

    def test_empty_quarter_sentinel(self, family):
        # All vertices in the upper half -> quarters 3, 4 empty.
        shape = Shape([(0.0, 0.0), (1.0, 0.0), (0.5, 0.6)])
        quad = characteristic_quadruple(shape, family)
        assert quad[2] == EMPTY_QUARTER or quad[3] == EMPTY_QUARTER


class TestSortKeys:
    def test_mean_curve(self):
        assert quadruple_mean_curve((10, 20, 30, 40)) == 25
        assert quadruple_mean_curve((10, EMPTY_QUARTER, 30, EMPTY_QUARTER)) \
            == 20

    def test_mean_all_empty(self):
        assert quadruple_mean_curve(
            (EMPTY_QUARTER,) * 4) == EMPTY_QUARTER

    def test_median_curve_picks_closest_to_mean(self):
        # sorted = (1, 10, 12, 40): medians 10, 12; mean 15.75 -> 12 wins
        assert quadruple_median_curve((40, 1, 12, 10)) == 12

    def test_median_with_empties(self):
        assert quadruple_median_curve((5, EMPTY_QUARTER,
                                       EMPTY_QUARTER, EMPTY_QUARTER)) == 5
        assert quadruple_median_curve((5, 9, EMPTY_QUARTER,
                                       EMPTY_QUARTER)) == 5

    def test_quadruple_distance(self):
        assert quadruple_distance((1, 2, 3, 4), (1, 2, 3, 4)) == 0.0
        assert quadruple_distance((1, 2, 3, 4), (2, 3, 4, 5)) == 1.0
        assert quadruple_distance((1, EMPTY_QUARTER, 3, 4),
                                  (2, 7, 3, 4)) == pytest.approx(1 / 3)

    def test_quadruple_distance_no_overlap(self):
        assert quadruple_distance((EMPTY_QUARTER,) * 4,
                                  (1, 2, 3, 4)) == float("inf")


class TestBlockSigning:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 256, 257, 300])
    def test_mean_table_is_the_scalar_objective(self, n):
        rng = np.random.default_rng(n)
        family = FAMILIES[30]
        for quarter in (1, 2, 3, 4):
            groups = np.stack([quarter_points(rng, quarter, n)
                               for _ in range(3)])
            assert family.mean_distances(groups, quarter).tolist() == \
                [[family.average_distance(group, quarter, i)
                  for i in range(1, 31)] for group in groups]

    @pytest.mark.parametrize("k", sorted(FAMILIES))
    def test_every_quarter_size_and_kind(self, k):
        rng = np.random.default_rng(k)
        shapes = [block_shape(rng, (n, n, n, n), kind)
                  for n in COUNTS for kind in KINDS[:2]]
        shapes += [block_shape(rng, (n, 0, 300, 1), kind)
                   for n in (0, 4, 128) for kind in KINDS[2:]]
        for cap in (1, 7, 64, None):          # chunks of 1 vertex .. one
            elements = characteristic.TENSOR_ELEMENTS if cap is None \
                else cap * k
            with mock.patch.object(characteristic, "TENSOR_ELEMENTS",
                                   elements):
                assert_matches_scalar(shapes, FAMILIES[k])

    @settings(max_examples=40, deadline=None)
    @given(k=st.sampled_from(sorted(FAMILIES)),
           seed=st.integers(0, 2 ** 32 - 1),
           layout=st.lists(st.tuples(st.tuples(*[st.sampled_from(COUNTS)] * 4),
                                     st.sampled_from(KINDS)),
                           min_size=1, max_size=5),
           cap=st.sampled_from([1, 5, 40, None]))
    def test_any_block(self, k, seed, layout, cap):
        rng = np.random.default_rng(seed)
        shapes = [block_shape(rng, counts, kind) for counts, kind in layout]
        elements = characteristic.TENSOR_ELEMENTS if cap is None else cap * k
        with mock.patch.object(characteristic, "TENSOR_ELEMENTS", elements):
            assert_matches_scalar(shapes, FAMILIES[k])

    def test_exact_ties_resolve_to_the_first_minimum(self):
        # The anchor (0, 0) lies on every quarter-1 curve: a quarter
        # holding only anchors ties all k curves exactly.
        family = FAMILIES[50]
        means = {family.average_distance(ANCHORS[:1], 1, i)
                 for i in range(1, 51)}
        assert means == {0.0}
        shapes = [Shape(np.repeat(ANCHORS, r, axis=0), closed=False)
                  for r in (1, 2, 3)]
        assert_matches_scalar(shapes, family)
        assert characteristic_quadruples(shapes, family).tolist() == \
            [[1, 1, EMPTY_QUARTER, EMPTY_QUARTER]] * 3

    def test_empty_block(self):
        assert characteristic_quadruples([], FAMILIES[5]).shape == (0, 4)

    def test_batch_of_one(self, rng):
        shape = block_shape(rng, (3, 9, 0, 129), "outside")
        assert characteristic_quadruple(shape, FAMILIES[30]) == \
            scalar_quadruple(shape, FAMILIES[30])


@pytest.fixture(scope="module")
def corpus():
    base = benchmark_like_base(1)
    return base, [scalar_quadruple(e.shape, FAMILIES[50]) for e in base]


class TestBenchmarkCorpus:
    def test_every_entry_matches(self, corpus):
        base, reference = corpus
        assert base.num_entries == 1290
        got = characteristic_quadruples([e.shape for e in base], FAMILIES[50])
        assert [tuple(row) for row in got.tolist()] == reference

    def test_hash_tier_answers_match(self, corpus):
        base, reference = corpus
        scalar_signed = base.subset(base.shape_ids())
        scalar_signed.set_signature_cache(50, reference)
        batch_signed = base.subset(base.shape_ids())
        assert batch_signed.cached_signatures(50) is None
        old = ApproximateRetriever(scalar_signed, k_curves=50)
        new = ApproximateRetriever(batch_signed, k_curves=50)
        assert np.array_equal(batch_signed.cached_signatures(50), reference)
        assert new.table._buckets == old.table._buckets
        rng = np.random.default_rng(9)
        pool = prototype_pool(np.random.default_rng(2002), 12)
        sketches = [place_randomly(distort(pool[i], 0.01, rng), rng)
                    for i in range(0, 12, 2)]
        sketches += [place_randomly(random_blob(rng), rng) for _ in range(3)]
        for sketch in sketches:
            answers = [[(m.shape_id, m.entry_id, m.distance)
                        for m in retriever.query(sketch, k=3)]
                       for retriever in (old, new)]
            assert answers[0] == answers[1]


class TestBuildPathWork:
    """Clock-free gates on what building and ingesting cost."""

    def test_no_scalar_search_and_one_solve(self, monkeypatch, tmp_path):
        base = benchmark_like_base(3, images=4)
        stream = benchmark_like_base(4, images=10)
        solve_curve_parameters.cache_clear()
        roots = recorded(monkeypatch, curves, "brentq")
        means = recorded(monkeypatch, HashCurveFamily, "average_distance")
        searches = recorded(monkeypatch, HashCurveFamily, "closest_curve")
        config = ServiceConfig(num_shards=2, workers=1, cache_capacity=0)
        with RetrievalService.from_base(base, config) as service:
            for image in stream.image_ids():
                service.ingest([stream.shapes[sid] for sid
                                in stream.shapes_of_image(image)],
                               image_id=100 + image)
            shards = service.shards.shards
        save_base(base, tmp_path / "signed.gsb", hash_curves=50)
        assert means == [] and searches == []
        assert len(roots) == 50 - 1          # one k = 50 solve
        for shard in shards:                 # ingest really signed
            rows = shard.base.cached_signatures(50)
            assert np.array_equal(rows, characteristic_quadruples(
                [e.shape for e in shard.base], FAMILIES[50]))
            assert [shard.retriever.table.signature(i)
                    for i in range(shard.base.num_entries)] == \
                [tuple(row) for row in rows.tolist()]

    def test_tensors_per_build_do_not_grow_with_entries(self, monkeypatch):
        small = benchmark_like_base(2, images=4)
        big = ShapeBase(alpha=0.1)
        for _ in range(4):                   # same copies, 4x the entries
            big.add_shapes(list(small.shapes.values()))
        sizes = {int(np.sum(quarters_of(clamp_to_lune(e.shape.vertices))
                            == q)) for e in small for q in (1, 2, 3, 4)}
        sizes.discard(0)
        tensors = recorded(monkeypatch, HashCurveFamily, "closest_curves")
        chunks = recorded(monkeypatch, characteristic, "_sign_chunk")
        one_chunk = []
        for base in (small, big):
            del tensors[:], chunks[:]
            ApproximateRetriever(base.subset(base.shape_ids()), k_curves=50)
            assert len(tensors) <= 4 * len(sizes) * len(chunks)
            del tensors[:], chunks[:]
            with mock.patch.object(characteristic, "TENSOR_ELEMENTS",
                                   1 << 30):
                ApproximateRetriever(base.subset(base.shape_ids()),
                                     k_curves=50)
            assert len(chunks) == 1
            one_chunk.append(len(tensors))
        assert one_chunk[0] == one_chunk[1] <= 4 * len(sizes)


class TestSignatureCacheGuard:
    """The cache is int16; a cast would wrap an out-of-range value."""

    @pytest.fixture
    def signed(self, small_base):
        compute_signatures(small_base, HashCurveFamily(30))
        return small_base

    @pytest.mark.parametrize("value", [31, -1, 40000, 65541])
    def test_out_of_range_array_refused(self, signed, value):
        before = signed._signature_cache
        rows = np.array(before[1], dtype=np.int64)
        rows[3, 1] = value                   # 65541 would wrap to 5
        with pytest.raises(ValueError, match="outside 0..30"):
            signed.set_signature_cache(30, rows)
        assert signed._signature_cache is before

    def test_family_wider_than_int16_refused(self, signed):
        before = signed._signature_cache
        with pytest.raises(ValueError, match="40000 curves"):
            signed.set_signature_cache(40000, np.asarray(before[1]))
        assert signed._signature_cache is before

    @pytest.mark.parametrize("value", [31, 65541])
    def test_ingest_patch_path_refuses_out_of_range_rows(self, signed, rng,
                                                         value):
        shape = star_shaped_polygon(rng, 10)
        copies = batch_normalized_copies([shape], signed.alpha)
        rows = np.full((len(copies[0]), 4), value, dtype=np.int64)
        before = (signed.num_entries, signed.version, signed._signature_cache)
        with pytest.raises(ValueError, match="outside 0..30"):
            signed._absorb([999], [shape], [None], copies,
                           signatures=(30, rows))
        after = (signed.num_entries, signed.version, signed._signature_cache)
        assert after[:2] == before[:2] and after[2] is before[2]
        assert 999 not in signed.shapes
