"""The GeoSIR facade over its one-shard RetrievalService.

The facade used to keep its own matcher, hashing retriever and copy of
the Section 3 hand-off; the direct path it replaced is kept here as
the reference (``DirectGeoSIR``, ``MatcherVideoIndex``) and every
answer is compared with it by ``==``: shape id, image id, distance,
the approximate flag and the answering method.  Around that: the
structures are built once in an add / retrieve loop (counted, no
clock), shard failures surface as errors, and raster ingest survives
a contour that decomposes into a sliver.
"""

from typing import Dict, Tuple

import numpy as np
import pytest

from repro import GeometricSimilarityMatcher, Shape, ShapeBase
from repro.geosir import FrameHit, GeoSIR, VideoIndex, synthesize_clip
from repro.hashing.hashtable import ApproximateRetriever
from repro.imaging import generate_workload, make_query_set, rasterize_shapes
from repro.imaging.contours import extract_contour_shapes
from repro.imaging.decompose import decompose_all
from repro.imaging.synthesis import random_blob, star_polygon
from repro.service import Shard, ShardSet

from tests.conftest import star_shaped_polygon

ALPHA = 0.05
MATCH_THRESHOLD = 0.05
ALIENS = [Shape([(0, 0), (50, 0), (50, 1), (0, 1)]),
          Shape([(0, 0), (40, 0), (40, 1.5), (20, 6), (0, 1.5)])]


class DirectGeoSIR:
    """The facade's former direct path: one base, one matcher, one
    hashing retriever and the hand-off between them."""

    def __init__(self, alpha=0.1, beta=0.25, hash_curves=50,
                 match_threshold=0.05):
        self.base = ShapeBase(alpha=alpha)
        self.beta = beta
        self.hash_curves = hash_curves
        self.match_threshold = match_threshold

    def add_image(self, shapes, image_id):
        self.base.add_shapes(decompose_all(list(shapes)), image_id=image_id)

    def remove_image(self, image_id):
        for shape_id in self.base.shapes_of_image(image_id):
            self.base.remove_shape(shape_id)

    def retrieve_batch(self, sketches, k):
        matcher = GeometricSimilarityMatcher(self.base, beta=self.beta)
        retriever = ApproximateRetriever(self.base,
                                         k_curves=self.hash_curves)
        answers = []
        for sketch, (matches, _) in zip(
                sketches, matcher.query_batch(sketches, k=k)):
            method = "envelope"
            if not any(m.distance <= self.match_threshold
                       for m in matches):
                approx = retriever.query(sketch, k=k)
                if approx:
                    matches, method = approx, "hashing"
            answers.append((matches, method))
        return answers

    def retrieve_similar(self, sketch, threshold):
        matcher = GeometricSimilarityMatcher(self.base, beta=self.beta)
        return matcher.query_threshold(sketch, threshold)[0]


def answer(matches, method):
    return [(m.shape_id, m.image_id, m.distance, m.approximate, method)
            for m in matches]


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(31337)
    workload = generate_workload(16, rng, shapes_per_image=3.0,
                                 noise=0.008, num_prototypes=8)
    planted = [q for q, _ in make_query_set(
        workload, 6, np.random.default_rng(5), noise=0.008)]
    return workload, planted


def both(workload):
    facade = GeoSIR(alpha=ALPHA, match_threshold=MATCH_THRESHOLD)
    direct = DirectGeoSIR(alpha=ALPHA, match_threshold=MATCH_THRESHOLD)
    for image in workload.images:
        facade.add_image(shapes=image.shapes, image_id=image.image_id)
        direct.add_image(image.shapes, image.image_id)
    return facade, direct


def assert_same_retrieval(facade, direct, sketches, k):
    served = facade.retrieve_batch(sketches, k=k)
    expected = direct.retrieve_batch(sketches, k=k)
    assert [answer(r.matches, r.method) for r in served] == \
        [answer(matches, method) for matches, method in expected]
    return served


class TestParityWithDirectPath:
    @pytest.mark.parametrize("k", [1, 3])
    def test_planted_and_alien_sketches(self, corpus, k):
        workload, planted = corpus
        facade, direct = both(workload)
        served = assert_same_retrieval(facade, direct, planted + ALIENS, k)
        methods = {result.method for result in served}
        assert methods == {"envelope", "hashing"}   # both branches ran

    def test_after_removal_and_interleaved_ingest(self, corpus, rng):
        workload, planted = corpus
        facade, direct = both(workload)
        facade.remove_image(3)
        direct.remove_image(3)
        assert_same_retrieval(facade, direct, planted + ALIENS, 2)
        for image_id in range(100, 104):
            novel = [star_shaped_polygon(rng, 11).scaled(4.0)]
            facade.add_image(shapes=novel, image_id=image_id)
            direct.add_image(novel, image_id)
            assert_same_retrieval(facade, direct,
                                  [novel[0].rotated(0.4)] + ALIENS, 2)

    @pytest.mark.parametrize("threshold", [0.02, 0.05])
    def test_retrieve_similar(self, corpus, threshold):
        workload, planted = corpus
        facade, direct = both(workload)
        for sketch in planted + ALIENS:
            assert answer(facade.retrieve_similar(sketch, threshold),
                          "similar") == \
                answer(direct.retrieve_similar(sketch, threshold),
                       "similar")


class MatcherVideoIndex(VideoIndex):
    """The matcher-based video index the facade replaced: its own base
    and matcher, the clip bookkeeping and ranking inherited."""

    def __init__(self, alpha=0.1, beta=0.25):
        self._base = ShapeBase(alpha=alpha)
        self.beta = beta
        self._frame_of_image: Dict[int, Tuple[int, int]] = {}
        self._frames_per_clip: Dict[int, int] = {}

    @property
    def base(self):
        return self._base

    def add_clip(self, clip_id, frames):
        for frame_index, shapes in enumerate(frames):
            simple = decompose_all(list(shapes))
            if simple:
                image_id = len(self._frame_of_image)
                self._base.add_shapes(simple, image_id=image_id)
                self._frame_of_image[image_id] = (clip_id, frame_index)
        self._frames_per_clip[clip_id] = len(frames)

    def _frame_hits_batch(self, sketches, threshold):
        matcher = GeometricSimilarityMatcher(self._base, beta=self.beta)
        return [[FrameHit(*self._frame_of_image[m.image_id], m.shape_id,
                          m.distance) for m in matches]
                for matches, _ in matcher.query_threshold_batch(
                    list(sketches), threshold)]


class TestVideoParity:
    def test_query_and_track_match_the_matcher_index(self):
        rng = np.random.default_rng(747)
        star = star_polygon(points=6, inner=0.5)
        blob = random_blob(rng, 14, irregularity=0.3)
        clips = [
            synthesize_clip(star, 10, rng, present=[True] * 6 + [False] * 4,
                            noise=0.006),
            synthesize_clip(blob, 8, rng, noise=0.006),
            synthesize_clip(star, 10, rng, noise=0.006,
                            present=[True] * 3 + [False] * 4 + [True] * 3),
        ]
        served, reference = VideoIndex(alpha=ALPHA), \
            MatcherVideoIndex(alpha=ALPHA)
        for clip_id, frames in enumerate(clips):
            served.add_clip(clip_id, frames)
            reference.add_clip(clip_id, frames)
        sketches = [star, blob, ALIENS[1]]
        for threshold in (0.02, 0.05):
            assert served.query_batch(sketches, k=3, threshold=threshold) \
                == reference.query_batch(sketches, k=3,
                                         threshold=threshold)
            for sketch in sketches:
                assert served.track(sketch, threshold=threshold) == \
                    reference.track(sketch, threshold=threshold)
        assert served.track(star, threshold=0.05)     # not vacuous


class TestStructuresBuiltOnce:
    def test_add_retrieve_loop_builds_each_structure_once(
            self, rng, monkeypatch):
        """12 add_image + retrieve pairs, one alien sketch taking the
        hashing hand-off: the matcher and the hash retriever are built
        once and patched by ingest; nothing re-shards the base."""
        built = {"matcher": 0, "retriever": 0, "from_base": 0}

        def counting(cls, name):
            init = cls.__init__

            def wrapped(self, *args, **kwargs):
                built[name] += 1
                init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", wrapped)

        counting(GeometricSimilarityMatcher, "matcher")
        counting(ApproximateRetriever, "retriever")
        from_base = ShardSet.from_base.__func__

        def counted_from_base(cls, *args, **kwargs):
            built["from_base"] += 1
            return from_base(cls, *args, **kwargs)
        monkeypatch.setattr(ShardSet, "from_base",
                            classmethod(counted_from_base))

        geosir = GeoSIR(alpha=ALPHA)
        methods = []
        for image_id in range(12):
            shape = star_shaped_polygon(rng, 10)
            geosir.add_image(shapes=[shape], image_id=image_id)
            sketch = ALIENS[0] if image_id == 6 else shape.rotated(0.3)
            methods.append(geosir.retrieve(sketch, k=1).method)
        assert methods.count("hashing") == 1
        assert built == {"matcher": 1, "retriever": 1, "from_base": 0}

    def test_remove_image_is_one_batch(self, corpus, monkeypatch):
        """A removal swaps in one copy-on-write clone and bumps the
        shard-set version once, however many shapes the image has."""
        workload, _ = corpus
        facade, _ = both(workload)
        clones = []
        clone_cow = ShapeBase.clone_cow

        def counting(self):
            clones.append(self)
            return clone_cow(self)
        monkeypatch.setattr(ShapeBase, "clone_cow", counting)
        shards = facade._service.shards
        version = shards.version
        assert facade.remove_image(3) == len(workload.images[3].shapes) > 1
        assert (len(clones), shards.version) == (1, version + 1)


class TestErrorsSurface:
    def test_a_failing_matcher_raises(self, corpus, monkeypatch):
        workload, planted = corpus
        facade, _ = both(workload)

        def broken(self, *args, **kwargs):
            raise RuntimeError("matcher broke")
        monkeypatch.setattr(Shard, "query_batch", broken)
        monkeypatch.setattr(Shard, "query_threshold_batch", broken)
        with pytest.raises(RuntimeError, match="failed on shard"):
            facade.retrieve(planted[0], k=1)
        with pytest.raises(RuntimeError, match="failed on shard"):
            facade.retrieve_similar(planted[0], 0.05)

    def test_a_failing_shard_makes_query_raise_until_it_heals(
            self, corpus, monkeypatch):
        """``query`` raises on a partial answer, like ``retrieve``, and
        caches nothing from it: once the shard heals (no mutation in
        between) it returns the true set."""
        from repro.query import ReferenceExecutor, Similar
        workload, planted = corpus
        facade, _ = both(workload)
        node = Similar(planted[0])
        expected = ReferenceExecutor(
            facade.base, similarity_threshold=facade.similarity_threshold
        ).execute(node)
        assert expected

        def broken(self, *args, **kwargs):
            raise RuntimeError("matcher broke")
        monkeypatch.setattr(Shard, "query_threshold_batch", broken)
        with pytest.raises(RuntimeError, match="failed on shard"):
            facade.query(node)
        monkeypatch.undo()
        assert facade.query(node) == expected


class TestSliverPieces:
    def test_raster_whose_contour_decomposes_into_a_sliver(self):
        """Image 9 of the sketch_retrieval example: one traced contour
        decomposes into a 2-vertex open piece, which used to fail the
        whole image."""
        workload = generate_workload(15, np.random.default_rng(2002),
                                     shapes_per_image=3.0, noise=0.008,
                                     num_prototypes=6)
        raster = rasterize_shapes(workload.images[9].shapes, height=140,
                                  width=140)
        pieces = decompose_all(extract_contour_shapes(raster, tolerance=1.2))
        slivers = [p for p in pieces
                   if len(np.unique(p.vertices, axis=0)) < 3]
        assert slivers                              # the case is real
        geosir = GeoSIR(alpha=0.08)
        geosir.add_image(raster=raster, image_id=9)
        assert len(geosir.base.shapes_of_image(9)) == \
            len(pieces) - len(slivers)

    def test_only_slivers_is_no_image(self):
        sliver = Shape([(0, 0), (1, 1)], closed=False)
        with pytest.raises(ValueError, match="no shapes"):
            GeoSIR().add_image(shapes=[sliver])
        index = VideoIndex()
        index.add_clip(0, [[sliver], [Shape.rectangle(0, 0, 2, 1)]])
        assert index.num_frames == 2
        assert index.base.num_images == 1
