"""Core contribution of the paper: the average-point-distance similarity
measure and the incremental envelope-fattening retrieval algorithm.
"""

from .elastic import elastic_matching_distance
from .epsilon import (EpsilonSchedule, expected_band_count, initial_epsilon,
                      schedule_for, termination_epsilon)
from .matcher import (BestFirstMatcher, GeometricSimilarityMatcher, Match,
                      MatchStats)
from .measures import (average_distance, continuous_average_distance,
                       directed_average_distance, directed_hausdorff,
                       directed_kth_hausdorff, hausdorff, kth_hausdorff,
                       similarity_score)
from .shapebase import ShapeBase, ShapeEntry

__all__ = [
    "BestFirstMatcher", "EpsilonSchedule", "GeometricSimilarityMatcher",
    "Match", "MatchStats", "ShapeBase", "ShapeEntry", "average_distance",
    "continuous_average_distance", "directed_average_distance",
    "directed_hausdorff", "directed_kth_hausdorff",
    "elastic_matching_distance", "expected_band_count", "hausdorff",
    "initial_epsilon", "kth_hausdorff", "schedule_for", "similarity_score",
    "termination_epsilon",
]
