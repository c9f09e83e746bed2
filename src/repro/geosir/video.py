"""Video retrieval — the paper's stated future work (Section 7:
"We are currently incorporating our method in a video retrieval
system").

A video clip is a sequence of frames, each carrying object-boundary
shapes (vector input, or rasters run through the Section 6 extraction
pipeline).  Every frame becomes one "image" of an underlying
:class:`~repro.geosir.GeoSIR`, so all of its machinery applies
unchanged; on top of it this module adds the two video-specific
operations:

* ``query``   — rank clips by their best-matching frame for a sketch;
* ``track``   — the appearance intervals of a sketched object within
  each clip (consecutive frames containing a similar shape, with small
  gaps bridged), i.e. shape tracking by retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.shapebase import ShapeBase
from ..geometry.polyline import Shape
from .engine import GeoSIR, ingestible_pieces


@dataclass
class FrameHit:
    """One frame in which a similar shape was found."""

    clip_id: int
    frame_index: int
    shape_id: int
    distance: float


@dataclass
class ClipMatch:
    """A clip ranked by its best frame for a query."""

    clip_id: int
    best: FrameHit
    hits: List[FrameHit] = field(default_factory=list)


@dataclass
class TrackInterval:
    """A maximal run of frames containing the queried object."""

    clip_id: int
    start_frame: int
    end_frame: int
    mean_distance: float

    @property
    def length(self) -> int:
        return self.end_frame - self.start_frame + 1


class VideoIndex:
    """Frame-level shape retrieval over a collection of clips."""

    def __init__(self, alpha: float = 0.1, beta: float = 0.25,
                 backend: str = "kdtree"):
        self._system = GeoSIR(alpha=alpha, beta=beta, backend=backend)
        #: image id -> (clip id, frame index)
        self._frame_of_image: Dict[int, Tuple[int, int]] = {}
        self._frames_per_clip: Dict[int, int] = {}

    @property
    def base(self) -> ShapeBase:
        return self._system.base

    # ------------------------------------------------------------------
    def add_clip(self, clip_id: int,
                 frames: Sequence[Sequence[Shape]]) -> None:
        """Register one clip given per-frame shape lists.

        Frames with no usable shapes are allowed (the object may be
        absent); they become no image.
        """
        if clip_id in self._frames_per_clip:
            raise ValueError(f"clip {clip_id} already indexed")
        if not frames:
            raise ValueError("a clip needs at least one frame")
        for frame_index, shapes in enumerate(frames):
            pieces = ingestible_pieces(shapes)
            if pieces:
                image_id = self._system.add_image(shapes=pieces)
                self._frame_of_image[image_id] = (clip_id, frame_index)
        self._frames_per_clip[clip_id] = len(frames)

    @property
    def num_clips(self) -> int:
        return len(self._frames_per_clip)

    @property
    def num_frames(self) -> int:
        return sum(self._frames_per_clip.values())

    # ------------------------------------------------------------------
    def _frame_hits_batch(self, sketches: Sequence[Shape],
                          threshold: float) -> List[List[FrameHit]]:
        """``_frame_hits`` for many sketches through one matcher
        scratch checkout (:meth:`GeoSIR.retrieve_similar_batch`)."""
        answers = self._system.retrieve_similar_batch(sketches, threshold)
        per_sketch: List[List[FrameHit]] = []
        for matches in answers:
            hits = []
            for match in matches:
                clip_id, frame_index = self._frame_of_image[match.image_id]
                hits.append(FrameHit(clip_id=clip_id,
                                     frame_index=frame_index,
                                     shape_id=match.shape_id,
                                     distance=match.distance))
            per_sketch.append(hits)
        return per_sketch

    def _frame_hits(self, sketch: Shape, threshold: float) -> List[FrameHit]:
        return self._frame_hits_batch([sketch], threshold)[0]

    def _rank_clips(self, hits: List[FrameHit], k: int) -> List[ClipMatch]:
        by_clip: Dict[int, List[FrameHit]] = {}
        for hit in hits:
            by_clip.setdefault(hit.clip_id, []).append(hit)
        ranked = []
        for clip_id, clip_hits in by_clip.items():
            clip_hits.sort(key=lambda h: (h.distance, h.frame_index))
            ranked.append(ClipMatch(clip_id=clip_id, best=clip_hits[0],
                                    hits=sorted(clip_hits,
                                                key=lambda h: h.frame_index)))
        ranked.sort(key=lambda c: c.best.distance)
        return ranked[:k]

    def query(self, sketch: Shape, k: int = 1,
              threshold: float = 0.05) -> List[ClipMatch]:
        """The ``k`` clips best matching a sketch, ranked by their best
        frame; each result carries every qualifying frame hit."""
        return self.query_batch([sketch], k=k, threshold=threshold)[0]

    def query_batch(self, sketches: Sequence[Shape], k: int = 1,
                    threshold: float = 0.05) -> List[List[ClipMatch]]:
        """``[query(s) for s in sketches]`` through one scratch.

        A live panel of sketches (every object being tracked across
        the stream) amortizes the matcher's scratch checkout and array
        pinning exactly like the service tier's batch misses.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        return [self._rank_clips(hits, k)
                for hits in self._frame_hits_batch(sketches, threshold)]

    def track(self, sketch: Shape, threshold: float = 0.05,
              max_gap: int = 1) -> List[TrackInterval]:
        """Appearance intervals of the sketched object per clip.

        Consecutive hit frames (allowing gaps of up to ``max_gap``
        missed frames — extraction may drop the object briefly) are
        merged into intervals, sorted by clip then start frame.
        """
        if max_gap < 0:
            raise ValueError("max_gap must be non-negative")
        by_clip: Dict[int, List[FrameHit]] = {}
        for hit in self._frame_hits(sketch, threshold):
            by_clip.setdefault(hit.clip_id, []).append(hit)
        intervals: List[TrackInterval] = []
        for clip_id in sorted(by_clip):
            hits = sorted(by_clip[clip_id], key=lambda h: h.frame_index)
            run: List[FrameHit] = []
            last_frame = None
            for hit in hits:
                if last_frame is not None and \
                        hit.frame_index - last_frame > max_gap + 1:
                    intervals.append(self._interval(clip_id, run))
                    run = []
                if not run or hit.frame_index != last_frame:
                    run.append(hit)
                last_frame = hit.frame_index
            if run:
                intervals.append(self._interval(clip_id, run))
        return intervals

    @staticmethod
    def _interval(clip_id: int, run: List[FrameHit]) -> TrackInterval:
        return TrackInterval(
            clip_id=clip_id,
            start_frame=run[0].frame_index,
            end_frame=run[-1].frame_index,
            mean_distance=float(np.mean([h.distance for h in run])))

    def __repr__(self) -> str:
        return (f"VideoIndex(clips={self.num_clips}, "
                f"frames={self.num_frames}, "
                f"shapes={self.base.num_shapes})")


def synthesize_clip(prototype: Shape, num_frames: int,
                    rng: np.random.Generator,
                    present: Optional[Sequence[bool]] = None,
                    noise: float = 0.01,
                    distractors: int = 1) -> List[List[Shape]]:
    """A synthetic clip: the prototype drifting through the frame.

    The object rotates, rescales and translates smoothly frame to
    frame, with per-frame boundary noise; ``present`` masks frames in
    which the object is absent (cuts/occlusion).  Each frame also gets
    ``distractors`` unrelated background shapes.
    """
    if num_frames < 1:
        raise ValueError("need at least one frame")
    if present is None:
        present = [True] * num_frames
    if len(present) != num_frames:
        raise ValueError("present mask must have one entry per frame")
    from ..imaging.synthesis import distort, random_blob
    frames: List[List[Shape]] = []
    angle = float(rng.uniform(0, 2 * np.pi))
    scale = float(rng.uniform(3.0, 6.0))
    x, y = float(rng.uniform(30, 70)), float(rng.uniform(30, 70))
    for frame_index in range(num_frames):
        angle += float(rng.normal(0.0, 0.1))
        scale *= float(np.exp(rng.normal(0.0, 0.03)))
        x += float(rng.normal(0.0, 2.0))
        y += float(rng.normal(0.0, 2.0))
        shapes: List[Shape] = []
        if present[frame_index]:
            instance = distort(prototype, noise, rng)
            shapes.append(instance.rotated(angle).scaled(scale)
                          .translated(x, y))
        for _ in range(distractors):
            blob = random_blob(rng, int(rng.integers(8, 14)))
            shapes.append(blob.scaled(float(rng.uniform(2, 5)))
                          .translated(float(rng.uniform(0, 100)),
                                      float(rng.uniform(0, 100))))
        frames.append(shapes)
    return frames
