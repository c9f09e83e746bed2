"""The GeoSIR prototype facade (paper Section 6) and the video
retrieval extension (the future work of Section 7)."""

from .engine import GeoSIR
from .video import (ClipMatch, FrameHit, TrackInterval, VideoIndex,
                    synthesize_clip)

__all__ = ["ClipMatch", "FrameHit", "GeoSIR", "TrackInterval",
           "VideoIndex", "synthesize_clip"]
