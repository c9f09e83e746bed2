"""The ``Shape`` class: a non-self-intersecting polygon or polyline.

Section 2.4 of the paper defines a *shape* as "a non self-intersecting
polygon or polyline with no convexity restrictions".  ``Shape`` is the
single vertex-sequence abstraction used everywhere: the shape base, the
matcher, the hashing stage and the query processor all trade in it.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .primitives import (EPSILON, as_points, bounding_box, interior_angle,
                         polygon_signed_area)
from .predicates import polygon_is_simple


class Shape:
    """An immutable open polyline or closed polygon in the plane.

    Parameters
    ----------
    vertices:
        Iterable of ``(x, y)`` pairs; at least two distinct points.
    closed:
        When true the last vertex connects back to the first (polygon);
        when false the shape is an open polyline.  Both kinds occur in
        the paper's image base (Section 6: "non-self-intersecting
        polylines either open or closed").
    """

    __slots__ = ("_vertices", "closed", "_perimeter", "_edge_lengths",
                 "_normalized")

    def __init__(self, vertices: Iterable[Sequence[float]], closed: bool = True):
        array = as_points(vertices)
        if len(array) < 2:
            raise ValueError("a shape needs at least two vertices")
        if closed and len(array) >= 2 and \
                np.allclose(array[0], array[-1], atol=EPSILON):
            array = array[:-1]          # drop the duplicated closing vertex
        if closed and len(array) < 3:
            raise ValueError("a closed shape needs at least three vertices")
        array.setflags(write=False)
        self._vertices = array
        self.closed = bool(closed)
        self._perimeter: Optional[float] = None
        self._edge_lengths: Optional[np.ndarray] = None
        self._normalized = None

    @classmethod
    def _trusted(cls, vertices: np.ndarray, closed: bool) -> "Shape":
        """Wrap an already-validated vertex array without copying.

        ``vertices`` must be a read-only float64 ``(n, 2)`` array that
        already satisfies the constructor's invariants (enough vertices,
        no duplicated closing vertex).  Bulk pipelines use this to turn
        slices of one big batch-computed array into ``Shape`` objects
        without re-running per-shape validation.
        """
        shape = object.__new__(cls)
        shape._vertices = vertices
        shape.closed = closed
        shape._perimeter = None
        shape._edge_lengths = None
        shape._normalized = None
        return shape

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> np.ndarray:
        """Read-only ``(n, 2)`` array of vertices."""
        return self._vertices

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._vertices)

    def __repr__(self) -> str:
        kind = "polygon" if self.closed else "polyline"
        return f"Shape({kind}, {self.num_vertices} vertices)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Shape):
            return NotImplemented
        return (self.closed == other.closed and
                self._vertices.shape == other._vertices.shape and
                bool(np.allclose(self._vertices, other._vertices,
                                 atol=EPSILON)))

    def __hash__(self) -> int:
        return hash((self.closed, self._vertices.shape,
                     self._vertices.round(9).tobytes()))

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return self.num_vertices if self.closed else self.num_vertices - 1

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(starts, ends)`` arrays of shape ``(num_edges, 2)``."""
        v = self._vertices
        if self.closed:
            return v, np.roll(v, -1, axis=0)
        return v[:-1], v[1:]

    def edge_lengths(self) -> np.ndarray:
        """Lengths of all edges, cached."""
        if self._edge_lengths is None:
            starts, ends = self.edges()
            delta = ends - starts
            lengths = np.hypot(delta[:, 0], delta[:, 1])
            lengths.setflags(write=False)
            self._edge_lengths = lengths
        return self._edge_lengths

    @property
    def perimeter(self) -> float:
        """Total boundary length (``l_Q`` in the paper's epsilon bound)."""
        if self._perimeter is None:
            self._perimeter = float(self.edge_lengths().sum())
        return self._perimeter

    @property
    def normalized(self):
        """This shape normalized about its diameter, cached: the
        :func:`~repro.geometry.transform.normalize_about_diameter` copy
        that the cache key, the ETag and every query tier read."""
        if self._normalized is None:
            from .transform import normalize_about_diameter
            self._normalized = normalize_about_diameter(self)
        return self._normalized

    @property
    def area(self) -> float:
        """Absolute enclosed area; zero for open polylines."""
        if not self.closed:
            return 0.0
        return abs(polygon_signed_area(self._vertices))

    @property
    def centroid(self) -> Tuple[float, float]:
        """Arithmetic mean of the vertices."""
        c = self._vertices.mean(axis=0)
        return (float(c[0]), float(c[1]))

    def bbox(self) -> Tuple[float, float, float, float]:
        """Axis-aligned bounding box ``(xmin, ymin, xmax, ymax)``."""
        return bounding_box(self._vertices)

    def is_simple(self) -> bool:
        """True when the shape has no self-intersections (paper Sec. 2.4)."""
        return polygon_is_simple(self._vertices, closed=self.closed)

    def interior_angles(self) -> np.ndarray:
        """Positive angle in ``[0, pi]`` at every vertex.

        For an open polyline the two endpoints have no turn; the paper's
        V_S statistic treats them as degenerate (angle 0, contributing
        their edge-length term only), and so do we.
        """
        v = self._vertices
        n = len(v)
        angles = np.zeros(n)
        if self.closed:
            for i in range(n):
                angles[i] = interior_angle(v[(i - 1) % n], v[i], v[(i + 1) % n])
        else:
            for i in range(1, n - 1):
                angles[i] = interior_angle(v[i - 1], v[i], v[i + 1])
        return angles

    # ------------------------------------------------------------------
    # Boundary sampling (continuous-measure support)
    # ------------------------------------------------------------------
    def sample_boundary(self, spacing: float) -> np.ndarray:
        """Points spaced ~``spacing`` apart along the boundary.

        The paper computes ``h_avg`` over *all points of the continuous
        shape* (Section 2.2); we approximate the boundary integral with a
        uniform arc-length quadrature.  Each edge gets at least two
        sample points (its endpoints), so the discrete vertex set is
        always a subset of the returned samples.
        """
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        starts, ends = self.edges()
        lengths = self.edge_lengths()
        pieces = []
        for start, end, length in zip(starts, ends, lengths):
            count = max(2, int(math.ceil(length / spacing)) + 1)
            t = np.linspace(0.0, 1.0, count, endpoint=False)[:, None]
            pieces.append(start + t * (end - start))
        if not self.closed:
            pieces.append(self._vertices[-1:].copy())
        return np.vstack(pieces)

    def boundary_quadrature(self, samples_per_edge: int = 8
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Midpoint-rule quadrature nodes and weights over the boundary.

        Returns ``(points, weights)`` where ``weights`` sum to the
        perimeter.  Used for the exact edge-integrated ``h_avg``.
        """
        if samples_per_edge < 1:
            raise ValueError("samples_per_edge must be >= 1")
        starts, ends = self.edges()
        lengths = self.edge_lengths()
        t = (np.arange(samples_per_edge) + 0.5) / samples_per_edge
        points = []
        weights = []
        for start, end, length in zip(starts, ends, lengths):
            points.append(start + t[:, None] * (end - start))
            weights.append(np.full(samples_per_edge, length / samples_per_edge))
        return np.vstack(points), np.concatenate(weights)

    # ------------------------------------------------------------------
    # Constructors / transforms
    # ------------------------------------------------------------------
    def reversed(self) -> "Shape":
        """Same shape with the vertex order reversed."""
        return Shape(self._vertices[::-1].copy(), closed=self.closed)

    def translated(self, dx: float, dy: float) -> "Shape":
        return Shape(self._vertices + np.array([dx, dy]), closed=self.closed)

    def scaled(self, factor: float) -> "Shape":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Shape(self._vertices * factor, closed=self.closed)

    def rotated(self, angle: float) -> "Shape":
        """Rotate counter-clockwise about the origin by ``angle`` radians."""
        c, s = math.cos(angle), math.sin(angle)
        rotation = np.array([[c, -s], [s, c]])
        return Shape(self._vertices @ rotation.T, closed=self.closed)

    @classmethod
    def regular_polygon(cls, sides: int, radius: float = 1.0,
                        center: Sequence[float] = (0.0, 0.0),
                        phase: float = 0.0) -> "Shape":
        """Convenience constructor for test/workload fixtures."""
        if sides < 3:
            raise ValueError("a polygon needs at least three sides")
        theta = phase + 2.0 * math.pi * np.arange(sides) / sides
        points = np.column_stack([center[0] + radius * np.cos(theta),
                                  center[1] + radius * np.sin(theta)])
        return cls(points, closed=True)

    @classmethod
    def rectangle(cls, xmin: float, ymin: float, xmax: float,
                  ymax: float) -> "Shape":
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("degenerate rectangle")
        return cls([(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)],
                   closed=True)
