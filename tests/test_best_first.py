"""The served matcher's best-first finish and the cell grid under it.

``BestFirstMatcher`` runs the paper's loop until the index would hand
back more than is left, then bounds every copy not yet evaluated from
the base's ``CellGrid`` and scores copies in ascending bound.  Checked
here, none of it with a clock:

* **soundness** — a copy's bound never exceeds its exact discrete
  ``h_avg`` by more than ``BOUND_MARGIN``, on adversarial corpora
  (ulp-off anchors, duplicate copies, clamped outliers, points on cell
  borders), and the margin is needed: a bound over vertices that sit on
  their cells' centers comes out a few ulps above the exact mean;
* **lifecycle** — extending a grid equals building it over the longer
  capture; removals, clones and loads start without one; a quiesced
  base builds it once;
* **answers** — served == referee for top-k (with and without priors)
  and threshold queries; ``abort`` is polled per chunk;
* **work** — on the benchmark's seed-1 foreign sketches each query
  scores at most the copies whose bound is within the final k-th best,
  plus one chunk, and a fifth of what the referee scores.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GeometricSimilarityMatcher, Shape, ShapeBase
from repro.core.matcher import BestFirstMatcher
from repro.core.measures import DistanceMemo, entry_measures, slice_means
from repro.ann.sketch import (_BOX_X0, _BOX_X1, _BOX_Y0, _BOX_Y1,
                              grid_centers)
from repro.core.shapebase import BOUND_MARGIN, GRID_SIDE, CellGrid
from repro.geometry.nearest import BoundaryDistance
from repro.geometry.primitives import EPSILON
from repro.imaging import generate_workload, make_query_set
from repro.imaging.synthesis import random_blob
from repro.storage import load_base, save_base


def star(rng, n, spread=0.5):
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    angles += np.linspace(0.0, 1e-6, n)
    radii = rng.uniform(1.0 - spread, 1.0 + spread, n)
    return Shape(np.column_stack([radii * np.cos(angles),
                                  radii * np.sin(angles)]), closed=True)


def exact_means(engine, base):
    return np.array(entry_measures(engine, base, range(base.num_entries)))


def bounds_of(base, engine, memo=None):
    """Every copy's bound, as the finish computes it."""
    view = base.reader_view()
    points, offsets = view[1], view[4]
    grid = base.cell_grid(points, len(points))
    if memo is None:
        memo = DistanceMemo(len(points))
    return grid.copy_bounds(engine, offsets, memo.measured, memo.distance)


# ----------------------------------------------------------------------
# Soundness
# ----------------------------------------------------------------------
@st.composite
def corpora(draw):
    """A small base — duplicate shapes, large alpha (copies normalized
    about short pairs reach far outside the grid's box and are clamped)
    — and a query."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shapes = [star(rng, int(rng.integers(3, 14)),
                   draw(st.sampled_from([0.1, 0.5, 0.9])))
              for _ in range(draw(st.integers(1, 5)))]
    shapes += shapes[:draw(st.integers(0, 2))]
    base = ShapeBase(alpha=draw(st.sampled_from([0.0, 0.3, 0.6])))
    base.add_shapes(shapes)
    query = star(rng, int(rng.integers(3, 12)), 0.6)
    return base, query, rng


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpora())
def test_bound_never_exceeds_the_exact_measure(case):
    base, query, rng = case
    normalized = query.normalized.shape
    engine = BoundaryDistance(normalized)
    exact = exact_means(engine, base)
    assert np.all(bounds_of(base, engine) <= exact + BOUND_MARGIN)
    # Vertices the memo has measured count at their distance.
    points = base.vertex_points
    memo = DistanceMemo(len(points))
    memo.attach(base.reader_view())
    memo.lookup(engine, np.flatnonzero(rng.random(len(points)) < 0.5))
    tighter = bounds_of(base, engine, memo)
    assert np.all(tighter <= exact + BOUND_MARGIN)
    assert np.all(tighter >= bounds_of(base, engine) - BOUND_MARGIN)


def grid_points(draw_kind, rng, count):
    """Points on cell borders, on cell centers, far outside the box or
    repeated."""
    if draw_kind == "border":
        ix = rng.integers(0, GRID_SIDE + 1, count)
        iy = rng.integers(0, GRID_SIDE + 1, count)
        return np.column_stack(
            [_BOX_X0 + ix * ((_BOX_X1 - _BOX_X0) / GRID_SIDE),
             _BOX_Y0 + iy * ((_BOX_Y1 - _BOX_Y0) / GRID_SIDE)])
    if draw_kind == "center":
        centers = grid_centers(GRID_SIDE)
        return centers[rng.integers(0, len(centers), count)]
    if draw_kind == "outlier":
        return rng.uniform(-6.0, 6.0, (count, 2))
    return np.repeat(rng.uniform(-1.0, 1.5, (1, 2)), count, axis=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from(["border", "center", "outlier", "same"]),
                min_size=1, max_size=6))
def test_bound_is_sound_on_cell_borders_and_clamped_outliers(seed, kinds):
    """Copies made of adversarial points, each bounded against the mean
    over its vertices and two anchors at distance 0 — the smallest
    exact ``h_avg`` such a copy can have."""
    rng = np.random.default_rng(seed)
    blocks = [grid_points(kind, rng, int(rng.integers(1, 40)))
              for kind in kinds]
    points = np.concatenate(blocks)
    offsets = np.concatenate([[0], np.cumsum([len(b) for b in blocks])])
    engine = BoundaryDistance(star(rng, 9).normalized.shape)
    grid = CellGrid.empty().extended(points, len(points))
    bounds = grid.copy_bounds(engine, offsets,
                              np.zeros(len(points), dtype=bool),
                              np.empty(len(points)))
    assert np.all(bounds <= least_means(engine, points, offsets)
                  + BOUND_MARGIN)


def least_means(engine, points, offsets):
    """Per copy, the mean of its vertices' distances and two 0 rows."""
    distances = engine.distances(points)
    rows = np.concatenate([np.concatenate([[0.0], part, [0.0]])
                           for part in np.split(distances, offsets[1:-1])])
    sizes = np.diff(offsets) + 2
    return slice_means(rows, np.concatenate([[0], np.cumsum(sizes)]))


def test_the_margin_is_needed_and_enough():
    """Vertices on their cells' centers make every radius 0, so a
    vertex's bound is its exact distance and only summation order
    separates a copy's bound from its mean: the bound comes out above
    the mean by rounding, and by far less than ``BOUND_MARGIN``."""
    rng = np.random.default_rng(7)
    centers = grid_centers(GRID_SIDE)
    excess = []
    for _ in range(10):
        sizes = rng.integers(20, 200, 40)
        points = centers[rng.integers(0, len(centers), sizes.sum())]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        engine = BoundaryDistance(star(rng, 12).normalized.shape)
        grid = CellGrid.empty().extended(points, len(points))
        assert not grid.radius[grid.radius > 0].size
        bounds = grid.copy_bounds(engine, offsets,
                                  np.zeros(len(points), dtype=bool),
                                  np.empty(len(points)))
        excess.append(np.max(bounds - least_means(engine, points,
                                                  offsets)))
    assert max(excess) > 0.0
    assert max(excess) <= BOUND_MARGIN / 1e4


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(20261018)
    return generate_workload(12, rng, shapes_per_image=3.0, noise=0.008,
                             num_prototypes=5), rng


def built(images):
    base = ShapeBase(alpha=0.05)
    for image in images:
        base.add_shapes(image.shapes,
                        image_ids=[image.image_id] * len(image.shapes))
    return base


def test_extending_equals_building_on_the_longer_capture(workload):
    images = workload[0].images
    base = built(images[:6])
    early = base.reader_view()
    first = base.cell_grid(early[1], len(early[0]))
    for image in images[6:]:
        base.add_shapes(image.shapes,
                        image_ids=[image.image_id] * len(image.shapes))
    late = base.reader_view()
    extended = base.cell_grid(late[1], len(late[0]))
    scratch = CellGrid.empty().extended(late[1], len(late[0]))
    assert extended is not first and extended.count == len(late[1])
    assert np.array_equal(extended.cells, scratch.cells)
    assert np.array_equal(extended.radius, scratch.radius)
    # The longer grid still bounds the earlier capture.
    assert np.array_equal(extended.cells[:first.count], first.cells)
    assert np.all(extended.radius >= first.radius)
    engine = BoundaryDistance(random_blob(
        np.random.default_rng(3)).normalized.shape)
    none = np.zeros(len(late[1]), dtype=bool)
    assert np.array_equal(
        extended.copy_bounds(engine, late[4], none, np.empty(len(none))),
        scratch.copy_bounds(engine, late[4], none, np.empty(len(none))))
    # A capture the grid covers already reuses it.
    assert base.cell_grid(early[1], len(early[0])) is extended


def test_removal_clone_and_load_start_without_a_grid(workload, tmp_path):
    base = built(workload[0].images)
    view = base.reader_view()
    base.cell_grid(view[1], len(view[1]))
    clone = base.clone_cow()
    assert clone._cell_grid is None and base._cell_grid is not None
    path = tmp_path / "base.gsb"
    save_base(base, str(path))
    assert load_base(str(path))._cell_grid is None
    base.remove_shapes(base.shape_ids()[:2])
    assert base._cell_grid is None
    view = base.reader_view()
    assert base.cell_grid(view[1], len(view[1])).count == len(view[1])


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------
def pairs(matches):
    return [(m.shape_id, m.distance, m.entry_id) for m in matches]


@pytest.fixture(scope="module")
def served_and_referee(workload):
    (work, rng) = workload
    base = built(work.images)
    sketches = [q for q, _ in make_query_set(work, 6, rng, noise=0.008)]
    sketches += [random_blob(rng) for _ in range(6)]
    return (base, sketches, BestFirstMatcher(base),
            GeometricSimilarityMatcher(base))


@pytest.mark.parametrize("k", [1, 3, 10])
def test_top_k_equals_the_referee(served_and_referee, k):
    base, sketches, served, referee = served_and_referee
    finished = 0
    for sketch in sketches:
        got, stats = served.query(sketch, k=k)
        want, _ = referee.query(sketch, k=k)
        assert pairs(got) == pairs(want)
        assert stats.guaranteed and not stats.exhausted
        finished += stats.copies_bounded > 0
    assert finished > 0


def test_priors_keep_the_union_answer(served_and_referee):
    """Priors from another half of the corpus: the served half's
    answers merged with the priors' shapes give the whole corpus's
    top-k, and ``prior_stops`` only counts stops the priors paid for."""
    base, sketches, _, referee = served_and_referee
    ids = base.shape_ids()
    halves = [base.subset(ids[0::2]), base.subset(ids[1::2])]
    k = 3
    for sketch in sketches:
        other, _ = GeometricSimilarityMatcher(halves[1]).query(sketch, k=k)
        priors = [[m.distance for m in other]]
        (own, stats), = BestFirstMatcher(halves[0]).query_batch(
            [sketch], k=k, priors=priors)
        merged = sorted(own + other,
                        key=lambda m: (m.distance, m.shape_id))[:k]
        want, _ = referee.query(sketch, k=k)
        assert [(m.shape_id, m.distance) for m in merged] == \
            [(m.shape_id, m.distance) for m in want]
        if stats.prior_stops:
            assert stats.guaranteed and priors[0]


@pytest.mark.parametrize("threshold", [0.02, 0.08, 0.3])
def test_threshold_equals_the_referee(served_and_referee, threshold):
    base, sketches, served, referee = served_and_referee
    for sketch in sketches:
        got, stats = served.query_threshold(sketch, threshold)
        want, _ = referee.query_threshold(sketch, threshold)
        assert pairs(got) == pairs(want)
        assert all(m.distance <= threshold + EPSILON for m in got)


def test_abort_is_polled_per_chunk(served_and_referee, monkeypatch):
    """An ``abort`` that turns true once the finish has started ends
    the query at its first chunk: nothing scored by the finish, no
    guarantee, ``exhausted`` and ``aborted`` set."""
    base, sketches, served, _ = served_and_referee
    finishing = []
    grid_of = base.cell_grid

    def watched(points, count):
        finishing.append(True)
        return grid_of(points, count)

    monkeypatch.setattr(base, "cell_grid", watched)
    sketch = sketches[-1]
    _, plain = served.query(sketch, k=3)
    assert finishing, "the foreign sketch must reach the finish"
    finishing.clear()
    _, stats = served.query(sketch, k=3, abort=lambda: bool(finishing))
    assert finishing
    assert (stats.guaranteed, stats.exhausted, stats.aborted) == \
        (False, True, True)
    assert stats.candidates_evaluated < plain.candidates_evaluated


# ----------------------------------------------------------------------
# Work, without a clock, on the benchmark's seed-1 foreign sketches
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def seed_one():
    from bench.inputs import FOREIGN, FULL, K, make_inputs
    from bench.oracle import reference_base
    inputs = make_inputs(1, FULL)
    sketches = [q.shape for q in inputs.exact if q.kind == FOREIGN]
    return reference_base(inputs.images), sketches, K


def test_finish_scores_within_one_chunk_of_the_bound(seed_one,
                                                     monkeypatch):
    base, sketches, k = seed_one
    assert len(sketches) == 40
    served = BestFirstMatcher(base)
    events = []
    score = served._score
    copy_bounds = CellGrid.copy_bounds
    builds = []
    extended = CellGrid.extended

    def scored(fresh, *args):
        events.append(("score", np.array(fresh)))
        return score(fresh, *args)

    def bounded(grid, *args):
        bounds = copy_bounds(grid, *args)
        events.append(("bounds", bounds))
        return bounds

    def counted(grid, *args):
        builds.append(True)
        return extended(grid, *args)

    monkeypatch.setattr(served, "_score", scored)
    monkeypatch.setattr(CellGrid, "copy_bounds", bounded)
    monkeypatch.setattr(CellGrid, "extended", counted)
    referee = GeometricSimilarityMatcher(base)
    served_total = referee_total = 0
    for sketch in sketches:
        events.clear()
        matches, stats = served.query(sketch, k=k)
        want, referee_stats = referee.query(sketch, k=k)
        assert pairs(matches) == pairs(want)
        served_total += stats.candidates_evaluated
        referee_total += referee_stats.candidates_evaluated
        kinds = [kind for kind, _ in events]
        assert "bounds" in kinds
        start = kinds.index("bounds")
        before = np.concatenate([ids for kind, ids in events[:start]]
                                + [np.zeros(0, dtype=np.int64)])
        chunks = [ids for _, ids in events[start + 1:]]
        bounds = events[start][1]
        left = np.setdiff1d(np.arange(len(bounds)), before)
        kth = want[-1].distance
        within = int(np.count_nonzero(bounds[left] <= kth + EPSILON))
        last = len(chunks[-1]) if chunks else 0
        assert sum(map(len, chunks)) <= within + last
    assert served_total * 5 <= referee_total
    assert len(builds) == 1
