"""Geometric hashing over the lune (paper Section 3): equal-area hash
curves, characteristic quadruples, the hash table and the approximate
retriever used when envelope fattening finds no close match.
"""

from .characteristic import (EMPTY_QUARTER, characteristic_quadruple,
                             characteristic_quadruples, compute_signatures,
                             quadruple_distance, quadruple_mean_curve,
                             quadruple_median_curve)
from .curves import (QUARTER_AREA, HashCurveFamily, curve_area,
                     curve_area_derivative, solve_curve_parameters)
from .hashtable import ApproximateRetriever, GeometricHashTable

__all__ = [
    "ApproximateRetriever", "EMPTY_QUARTER", "GeometricHashTable",
    "HashCurveFamily", "QUARTER_AREA", "characteristic_quadruple",
    "characteristic_quadruples", "compute_signatures", "curve_area",
    "curve_area_derivative", "quadruple_distance", "quadruple_mean_curve",
    "quadruple_median_curve", "solve_curve_parameters",
]
