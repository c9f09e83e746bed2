"""Geometric substrate: primitives, shapes, diameters, transforms,
epsilon-envelopes, the lune, and boundary-distance engines.

Everything the GeoSIR core builds on lives here; the modules are
dependency-ordered (primitives -> predicates -> polyline -> the rest).
"""

from .diameter import (alpha_diameters, convex_hull, diameter,
                       diameter_bruteforce, diameter_rotating_calipers)
from .io import (load_images, load_shapes, save_images, save_shapes,
                 shape_from_dict, shape_to_dict)
from .envelope import (EpsilonEnvelope, band_cover_triangles,
                       difference_mask)
from .lune import (LUNE_AREA, clamp_to_lune, in_lune, quarter_of,
                   quarters_of, sample_lune)
from .nearest import BoundaryDistance
from .polyline import Shape
from .predicates import (orientation, point_in_polygon, point_in_triangle,
                         points_in_polygon, points_in_triangle,
                         polygon_is_simple, segment_intersection_point,
                         segments_intersect, segments_properly_intersect)
from .primitives import (EPSILON, as_points, bounding_box, cross, distance,
                         interior_angle, point_segment_distance,
                         points_segment_distance, points_segments_distance,
                         polygon_signed_area, signed_angle)
from .transform import (NormalizedCopy, SimilarityTransform,
                        batch_normalized_copies, normalize_about,
                        normalize_about_diameter, normalized_copies)

__all__ = [
    "EPSILON", "LUNE_AREA", "BoundaryDistance", "EpsilonEnvelope",
    "NormalizedCopy", "Shape", "SimilarityTransform",
    "alpha_diameters", "as_points", "band_cover_triangles",
    "batch_normalized_copies", "bounding_box",
    "clamp_to_lune", "convex_hull", "cross", "diameter",
    "diameter_bruteforce", "diameter_rotating_calipers", "difference_mask",
    "distance", "in_lune", "interior_angle", "load_images", "load_shapes",
    "normalize_about", "normalize_about_diameter", "normalized_copies",
    "orientation", "point_in_polygon", "save_images", "save_shapes",
    "shape_from_dict", "shape_to_dict",
    "point_in_triangle", "point_segment_distance", "points_in_polygon",
    "points_in_triangle", "points_segment_distance",
    "points_segments_distance", "polygon_is_simple", "polygon_signed_area",
    "quarter_of", "quarters_of", "sample_lune", "segment_intersection_point",
    "segments_intersect", "segments_properly_intersect", "signed_angle",
]
