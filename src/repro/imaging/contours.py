"""Boundary extraction from binary rasters.

The stand-in for GeoSIR's ``ipp``-based edge extraction: connected
components are labeled (4-connectivity via scipy.ndimage) and each
component's outer boundary is traced with Moore-neighbour tracing using
Jacob's stopping criterion, yielding one closed pixel contour per
object.  Downstream, Douglas-Peucker (:mod:`.simplify`) turns contours
into the segment-approximated polylines the shape base stores.

scipy is imported by :func:`label_components` on its first call, not by
this module: the synthetic-image generator imports this package but
never labels a raster, so a process that only generates and serves
shapes never loads ``scipy.ndimage``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..geometry.polyline import Shape
from .raster import BinaryImage

# Moore neighbourhood in clockwise order starting from west,
# as (drow, dcol).
_MOORE = [(0, -1), (-1, -1), (-1, 0), (-1, 1),
          (0, 1), (1, 1), (1, 0), (1, -1)]


def label_components(image: BinaryImage,
                     connectivity: int = 1) -> Tuple[np.ndarray, int]:
    """Label connected foreground components (1 = 4-conn, 2 = 8-conn)."""
    from scipy import ndimage
    if connectivity == 1:
        structure = ndimage.generate_binary_structure(2, 1)
    elif connectivity == 2:
        structure = ndimage.generate_binary_structure(2, 2)
    else:
        raise ValueError("connectivity must be 1 or 2")
    labels, count = ndimage.label(image.pixels, structure=structure)
    return labels, int(count)


def _trace_moore(mask: np.ndarray) -> List[Tuple[int, int]]:
    """Moore-neighbour boundary trace of one component mask.

    Returns the clockwise sequence of boundary pixels (row, col),
    starting from the top-most of the left-most foreground pixels.
    Jacob's criterion stops the walk when the start pixel is re-entered
    from the original direction, which is robust to one-pixel spurs.
    """
    rows, cols = np.nonzero(mask)
    if len(rows) == 0:
        return []
    start_index = np.lexsort((rows, cols))[0]
    start = (int(rows[start_index]), int(cols[start_index]))
    if len(rows) == 1:
        return [start]

    def neighbour(pixel, direction):
        dr, dc = _MOORE[direction]
        r, c = pixel[0] + dr, pixel[1] + dc
        if 0 <= r < mask.shape[0] and 0 <= c < mask.shape[1]:
            return (r, c), bool(mask[r, c])
        return (r, c), False

    contour = [start]
    # We entered `start` moving east; the backtrack direction is west (0).
    current = start
    entry_dir = 0
    first_exit = None
    for _ in range(8 * mask.size):      # safety bound
        found = False
        for step in range(8):
            direction = (entry_dir + 1 + step) % 8
            nxt, is_set = neighbour(current, direction)
            if is_set:
                if current == start:
                    if first_exit is None:
                        first_exit = direction
                    elif direction == first_exit and len(contour) > 1:
                        return contour[:-1]  # closed: drop repeated start
                contour.append(nxt)
                # New backtrack direction: where we came from.
                entry_dir = (direction + 4) % 8
                current = nxt
                found = True
                break
        if not found:       # isolated pixel with spur; shouldn't happen
            break
        if current == start and first_exit is not None:
            # Re-entered start; loop once more to test Jacob's criterion.
            continue
    return contour


def trace_boundaries(image: BinaryImage,
                     min_pixels: int = 8) -> List[np.ndarray]:
    """Closed outer boundary of every component, in pixel coordinates.

    Returns ``(k, 2)`` arrays of (x, y) points — x = col + 0.5,
    y = row + 0.5 (pixel centers) — one per component with at least
    ``min_pixels`` boundary pixels.  Components are traced with
    8-connectivity so diagonally-linked strokes stay one object.
    """
    labels, count = label_components(image, connectivity=2)
    boundaries: List[np.ndarray] = []
    for label in range(1, count + 1):
        mask = labels == label
        contour = _trace_moore(mask)
        if len(contour) < min_pixels:
            continue
        points = np.array([(c + 0.5, r + 0.5) for r, c in contour])
        boundaries.append(points)
    return boundaries


def extract_contour_shapes(image: BinaryImage, min_pixels: int = 8,
                           tolerance: float = 1.2) -> List[Shape]:
    """Full extraction: trace boundaries and segment-approximate them.

    The convenience composition GeoSIR ingestion uses: Moore tracing
    followed by Douglas-Peucker with the given ``tolerance`` (pixels).
    """
    from .simplify import douglas_peucker
    shapes: List[Shape] = []
    for contour in trace_boundaries(image, min_pixels):
        simplified = douglas_peucker(contour, tolerance, closed=True)
        if len(simplified) >= 3:
            shapes.append(Shape(simplified, closed=True))
    return shapes
