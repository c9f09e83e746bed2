"""The shape base: normalized copies of every database shape (Section 2.4).

Each shape added to the base is normalized about all of its
alpha-diameters, twice per pair (both endpoint orders), and every
normalized copy becomes an *entry*.  The base maintains flat numpy
arrays over the vertices of all entries — the static point set the
simplex range-search index is built on — plus the bookkeeping the
matcher needs (per-entry vertex slices, owner lookup, per-shape entry
lists, per-image shape lists).
"""

from __future__ import annotations

import threading

from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..geometry.polyline import Shape
from ..geometry.transform import NormalizedCopy, batch_normalized_copies
from ..rangesearch import IncrementalIndex, TriangleRangeIndex, make_index


def validate_shape(shape: Shape) -> None:
    """Reject shapes that would corrupt the index if ingested.

    Normalization divides by inter-vertex distances and the range
    index assumes finite coordinates, so a NaN/inf vertex or a shape
    with fewer than 3 distinct vertices (no triangle, no diameter
    pair worth normalizing about) must be refused at the door with a
    clear error rather than poisoning every later query.
    """
    vertices = np.asarray(shape.vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValueError(
            f"shape vertices must be an (n, 2) array, "
            f"got shape {vertices.shape}")
    if not np.all(np.isfinite(vertices)):
        raise ValueError("shape contains NaN or infinite coordinates")
    if not _has_three_distinct(vertices):
        raise ValueError(
            "shape must have at least 3 distinct vertices")


def _has_three_distinct(vertices: np.ndarray) -> bool:
    """True when the rows contain at least three distinct points.

    Equivalent to ``len(np.unique(vertices, axis=0)) >= 3`` (exact
    comparison, no tolerance) but without the full sort — validation is
    on the bulk-ingest hot path.
    """
    first = vertices[0]
    not_first = (vertices[:, 0] != first[0]) | (vertices[:, 1] != first[1])
    second_pos = np.argmax(not_first)
    if not not_first[second_pos]:
        return False                       # all rows identical
    second = vertices[second_pos]
    not_second = (vertices[:, 0] != second[0]) | (vertices[:, 1] != second[1])
    return bool(np.any(not_first & not_second))


#: A block of copies as three columns: the row-wise concatenation of
#: their vertices, their vertex counts and their ``(E, 2)`` anchor
#: pairs (int64).  A snapshot stores exactly these; a block of live
#: entries yields them through :func:`_copy_columns`.
CopyColumns = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _signature_rows(num_curves: int, signatures, count: int) -> np.ndarray:
    """``signatures`` as ``count`` int16 cache rows.  An int16 cast wraps
    silently, so the family must fit int16 and every value must be one
    it can produce (``0..num_curves``, 0 for an empty quarter)."""
    if not 1 <= num_curves <= np.iinfo(np.int16).max:
        raise ValueError(f"cannot cache signatures of {num_curves} curves")
    values = np.asarray(signatures)
    if values.shape != (count, 4):
        raise ValueError("signatures must be one quadruple per entry")
    if values.size and not 0 <= values.min() <= values.max() <= num_curves:
        raise ValueError(f"signature value outside 0..{num_curves}")
    return values.astype(np.int16, copy=False)


def _copy_columns(entries: Sequence["ShapeEntry"]) -> CopyColumns:
    flat = (np.concatenate([e.shape.vertices for e in entries], axis=0)
            if entries else np.zeros((0, 2)))
    counts = np.array([e.shape.num_vertices for e in entries],
                      dtype=np.int64)
    pairs = np.array([e.copy.pair for e in entries],
                     dtype=np.int64).reshape(-1, 2)
    return flat, counts, pairs


class ShapeEntry:
    """One normalized copy stored in the base."""

    __slots__ = ("entry_id", "shape_id", "image_id", "copy")

    def __init__(self, entry_id: int, shape_id: int,
                 image_id: Optional[int], copy: NormalizedCopy):
        self.entry_id = entry_id
        self.shape_id = shape_id
        self.image_id = image_id
        self.copy = copy

    @property
    def shape(self) -> Shape:
        """The normalized shape of this entry."""
        return self.copy.shape

    def __repr__(self) -> str:
        return (f"ShapeEntry(id={self.entry_id}, shape={self.shape_id}, "
                f"image={self.image_id}, pair={self.copy.pair})")


class ShapeBase:
    """Database of normalized shape copies.

    Parameters
    ----------
    alpha:
        The alpha-diameter tolerance of Section 2.4 (``0`` stores only
        the true diameter pair; larger values add copies and distortion
        tolerance at the cost of space — the paper's test base averages
        ~10 copies per shape).
    backend:
        Range-search backend name passed to
        :func:`repro.rangesearch.make_index`.
    """

    def __init__(self, alpha: float = 0.1, backend: str = "kdtree"):
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must be in [0, 1)")
        self.alpha = float(alpha)
        self.backend = backend
        #: When True (the default) ingest folds the incremental index
        #: tail inline once it passes the threshold.  A streaming
        #: service sets this False and folds from a background
        #: scheduler instead, keeping rebuilds off the write path.
        self.auto_fold = True
        self.entries: List[ShapeEntry] = []
        self.shapes: Dict[int, Shape] = {}
        self.shape_image: Dict[int, Optional[int]] = {}
        self._entries_by_shape: Dict[int, List[int]] = {}
        self._shapes_by_image: Dict[int, List[int]] = {}
        self._next_shape_id = 0
        self.version = 0
        # Serializes the cold lazy array build against appends.  Warm
        # readers never touch it (the publish-order contract in
        # ``_register_new_entries`` covers them); only a reader that
        # finds the arrays unbuilt, and every writer, take it — a
        # concurrent cold build would otherwise iterate ``entries``
        # mid-append and tear.
        self._build_lock = threading.Lock()
        self._index: Optional[TriangleRangeIndex] = None
        self._vertex_points: Optional[np.ndarray] = None
        self._vertex_owner: Optional[np.ndarray] = None
        self._entry_sizes: Optional[np.ndarray] = None
        self._entry_offsets: Optional[np.ndarray] = None
        # Cached per-entry hashing signatures: ``(num_curves, (E, 4)
        # int16 array)`` aligned with ``entries``.  Populated by the
        # hashing layer or a snapshot; extended/compacted alongside the
        # vertex arrays so it can never go stale.
        self._signature_cache: Optional[Tuple[int, np.ndarray]] = None
        # Cached per-entry ANN MinHash sketches: ``((num_hashes, grid,
        # seed), (E, num_hashes) int64 array)`` aligned with
        # ``entries``.  Populated by the ann layer or a v4 snapshot;
        # maintained under mutation exactly like the signature cache.
        self._sketch_cache: Optional[
            Tuple[Tuple[int, int, int], np.ndarray]] = None
        # How this base's arrays are backed: "memory" (built in
        # process), "eager" (snapshot read into memory), "mmap"
        # (zero-copy views over a file mapping — what process-tier
        # workers attach) or a caller's label for views over its own
        # buffer.  ``_backing_buffer`` pins the mapping/buffer for the
        # life of the base.
        self.snapshot_backing = "memory"
        self._backing_buffer = None

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add_shape(self, shape: Shape, image_id: Optional[int] = None,
                  shape_id: Optional[int] = None) -> int:
        """Add one original shape; returns its shape id.

        A batch of one through :meth:`add_shapes`: normalized about all
        its alpha-diameters (both orders), one entry per copy; rejected
        (:func:`validate_shape`) if it has non-finite coordinates or
        fewer than 3 distinct vertices.
        """
        return self.add_shapes(
            [shape], image_id,
            shape_ids=None if shape_id is None else [shape_id])[0]

    def add_shapes(self, shapes: Sequence[Shape],
                   image_id: Optional[int] = None, *,
                   image_ids: Optional[Sequence[Optional[int]]] = None,
                   shape_ids: Optional[Sequence[int]] = None) -> List[int]:
        """Add several shapes in one vectorized pass; returns their ids.

        Validation, alpha-diameter computation and all normalized-copy
        coordinates run as stacked numpy passes over every shape at
        once (:func:`repro.geometry.batch_normalized_copies`), producing
        entries bit-for-bit identical to the paper-§2.4 scalar reference
        :func:`repro.geometry.transform.normalized_copies` applied shape
        by shape in the same order.

        ``image_id`` assigns every shape to one image (the legacy
        signature); ``image_ids`` gives one image per shape and wins
        over ``image_id``.  ``shape_ids`` pins explicit ids (each must
        be new to the base).  Everything is validated *before* the
        first mutation, so a rejected shape leaves the base untouched.
        A live range index is extended incrementally, a cold one is
        built lazily on next use.
        """
        shapes = list(shapes)
        if not shapes:
            return []
        if image_ids is None:
            per_image: List[Optional[int]] = [image_id] * len(shapes)
        else:
            per_image = list(image_ids)
            if len(per_image) != len(shapes):
                raise ValueError("image_ids must match shapes in length")
        self._validate_batch(shapes)
        with self._build_lock:
            if shape_ids is None:
                ids = list(range(self._next_shape_id,
                                 self._next_shape_id + len(shapes)))
            else:
                ids = [int(s) for s in shape_ids]
                if len(ids) != len(shapes):
                    raise ValueError(
                        "shape_ids must match shapes in length")
            seen = set()
            for sid in ids:
                if sid in self.shapes or sid in seen:
                    raise ValueError(f"shape id {sid} already present")
                seen.add(sid)
            self._absorb(ids, shapes, per_image,
                         batch_normalized_copies(shapes, self.alpha))
        return ids

    def _validate_batch(self, shapes: Sequence[Shape]) -> None:
        """Batched :func:`validate_shape` with identical error messages."""
        flat = np.concatenate([s.vertices for s in shapes], axis=0)
        if not np.all(np.isfinite(flat)):
            for shape in shapes:       # find the offender, raise exactly
                validate_shape(shape)
        for shape in shapes:
            if not _has_three_distinct(shape.vertices):
                raise ValueError(
                    "shape must have at least 3 distinct vertices")

    def _absorb(self, ids: Sequence[int], shapes: Sequence[Shape],
                image_ids: Sequence[Optional[int]],
                copies_per_shape: Sequence[Sequence[NormalizedCopy]], *,
                signatures: Optional[Tuple[int, np.ndarray]] = None,
                sketches: Optional[
                    Tuple[Tuple[int, int, int], np.ndarray]] = None,
                columns: Optional[CopyColumns] = None) -> int:
        """The one way shapes and their copies enter the base; returns
        the first new entry id.

        ``ids`` / ``shapes`` / ``image_ids`` name the originals and
        ``copies_per_shape`` holds each one's ready normalized copies —
        fresh from :func:`batch_normalized_copies` (ingest), carried
        over from another base (:meth:`subset`) or rebuilt from stored
        columns (snapshot load, delta apply; ``repro.storage.persist``).
        Sources that already hold per-entry cache rows pass them with
        their family — ``signatures=(num_curves, rows)``,
        ``sketches=(key, rows)`` — and sources that hold the copies as
        flat columns pass ``columns`` so nothing is re-concatenated.

        The caller has checked that ``ids`` are distinct and new to the
        base, and holds ``_build_lock`` unless no other thread can see
        the base yet.
        """
        first_entry = len(self.entries)
        if not ids:
            return first_entry
        if signatures is not None:          # refused before any mutation
            signatures = (int(signatures[0]), _signature_rows(
                int(signatures[0]), signatures[1],
                sum(len(copies) for copies in copies_per_shape)))
        new_entries: List[ShapeEntry] = []
        for sid, shape, iid, copies in zip(ids, shapes, image_ids,
                                           copies_per_shape):
            self._next_shape_id = max(self._next_shape_id, sid + 1)
            self.shapes[sid] = shape
            self.shape_image[sid] = iid
            entry_ids: List[int] = []
            for copy in copies:
                entry = ShapeEntry(len(self.entries), sid, iid, copy)
                self.entries.append(entry)
                entry_ids.append(entry.entry_id)
                new_entries.append(entry)
            self._entries_by_shape[sid] = entry_ids
            if iid is not None:
                self._shapes_by_image.setdefault(iid, []).append(sid)
        self._register_new_entries(new_entries, signatures, sketches,
                                   columns)
        self.version += 1
        return first_entry

    def _register_new_entries(self, new_entries: List[ShapeEntry],
                              signatures=None, sketches=None,
                              columns: Optional[CopyColumns] = None
                              ) -> None:
        """Absorb freshly appended entries into the derived structures.

        With live flat arrays the new entries' non-anchor vertices are
        appended and the range index is extended incrementally
        (:meth:`IncrementalIndex.extended`) instead of being thrown
        away — the single-shape ingest fast path.  With cold arrays
        everything is left to the next lazy build, except when the
        first entries of a base arrive as ready ``columns`` (a snapshot
        load): the flat arrays are then pure slicing of the stored
        vertex block, so they are installed now and only the index
        stays lazy.  Signature/sketch caches are patched, not
        invalidated (:meth:`_patch_entry_caches`).

        Publication order matters for lock-free readers: every array is
        replaced (never written in place) with its old contents as a
        prefix, and the range index — whose point ids bound every other
        access — is published *last*.  A reader that captures the index
        first therefore sees arrays at least as new as the ids it will
        probe (see ``reader_view``).
        """
        if not new_entries:
            return
        first_new = len(self.entries) - len(new_entries)
        self._patch_entry_caches(new_entries, first_new, signatures,
                                 sketches)
        live = self._vertex_points is not None and self._index is not None
        if not live and (first_new or columns is None):
            self._index = None
            self._vertex_points = None
            return
        new_points = self._extend_flat_arrays(
            columns or _copy_columns(new_entries), first_new)
        if live:
            self._index = IncrementalIndex.extended(self._index, new_points,
                                                    self.backend,
                                                    fold=self.auto_fold)

    def _extend_flat_arrays(self, columns: CopyColumns,
                            first_new: int) -> np.ndarray:
        """Append a block of copies (entry ids from ``first_new``) to
        the flat arrays, minus each copy's two anchor rows (see
        ``_ensure_arrays`` for why those stay out of the index);
        returns the block's indexed points."""
        flat, counts, pairs = columns
        if np.any(pairs < 0) or np.any(pairs >= counts[:, None]):
            raise IndexError("entry anchor pair out of range")
        starts = np.cumsum(counts) - counts
        mask = np.ones(len(flat), dtype=bool)
        mask[starts + pairs[:, 0]] = False
        mask[starts + pairs[:, 1]] = False
        new_points = points = flat[mask]
        sizes = counts - 2
        owner = np.repeat(np.arange(first_new, first_new + len(sizes)),
                          sizes)
        if first_new:
            points = np.concatenate([self._vertex_points, points], axis=0)
            sizes = np.concatenate([self._entry_sizes, sizes])
            owner = np.concatenate([self._vertex_owner, owner])
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        self._entry_sizes = sizes
        self._entry_offsets = offsets
        self._vertex_owner = owner
        # Points last: ``_register_new_entries`` and the lock-free
        # check in ``_ensure_arrays`` key off this field.
        self._vertex_points = points
        return new_points

    def _patch_entry_caches(self, new_entries: List[ShapeEntry],
                            first_new: int, signatures, sketches) -> None:
        """Keep the signature/sketch caches covering every entry.

        A warm cache gets the new entries' rows appended — the rows the
        source handed over (range-checked by ``_absorb``) when they are
        of the cache's family, signed here as one block otherwise
        (identical to what a cold rebuild would compute, so cache
        consumers stay bit-for-bit).  A base receiving
        its *first* entries has nothing to stay consistent with and
        adopts whatever rows come with them (snapshot load, subset).
        """
        if self._signature_cache is not None:
            num_curves, rows = self._signature_cache
            if signatures is not None and signatures[0] == num_curves:
                new_rows = signatures[1]
            else:
                from ..hashing import HashCurveFamily, compute_signatures
                new_rows = _signature_rows(num_curves, compute_signatures(
                    self, HashCurveFamily(num_curves),
                    range(first_new, len(self.entries))), len(new_entries))
            self._signature_cache = (
                num_curves, np.concatenate([rows, new_rows], axis=0))
        elif signatures is not None and not first_new:
            self._signature_cache = signatures
        if self._sketch_cache is not None:
            key, rows = self._sketch_cache
            if sketches is not None and tuple(sketches[0]) == key:
                new_rows = sketches[1]
            else:
                from ..ann.sketch import SketchConfig, sketch_vertex_sets
                new_rows = sketch_vertex_sets(
                    [e.shape.vertices for e in new_entries],
                    [e.shape.closed for e in new_entries],
                    SketchConfig(*key))
            new_rows = np.asarray(new_rows,
                                  dtype=np.int64).reshape(-1, key[0])
            self._sketch_cache = (
                key, np.concatenate([rows, new_rows], axis=0))
        elif sketches is not None and not first_new:
            self.set_sketch_cache(*sketches)

    def remove_shape(self, shape_id: int) -> None:
        """Remove a shape and all its normalized copies.

        Entry ids are compacted (entries are renumbered), so any
        externally held entry ids become stale — rebuild dependent
        structures (hash tables, external stores) after removals.  The
        range index is rebuilt lazily on next use.  This is the
        "dynamic environments" operation the paper's related-work
        section contrasts against [5, 7].
        """
        if shape_id not in self.shapes:
            raise KeyError(f"shape id {shape_id} not in the base")
        del self.shapes[shape_id]
        image_id = self.shape_image.pop(shape_id)
        removed_ids = self._entries_by_shape.pop(shape_id)
        if image_id is not None:
            remaining = [s for s in self._shapes_by_image[image_id]
                         if s != shape_id]
            if remaining:
                self._shapes_by_image[image_id] = remaining
            else:
                del self._shapes_by_image[image_id]
        entry_keep = np.ones(len(self.entries), dtype=bool)
        entry_keep[removed_ids] = False
        new_ids = np.cumsum(entry_keep) - 1      # old entry id -> new id
        # Renumbered survivors become *new* ShapeEntry objects (the
        # prefix before the first removed id keeps its identity): a
        # copy-on-write clone mutated through this path never touches
        # entries still referenced by the donor's readers.
        renumbered: List[ShapeEntry] = []
        for entry in self.entries:
            if not entry_keep[entry.entry_id]:
                continue
            new_id = int(new_ids[entry.entry_id])
            if new_id == entry.entry_id:
                renumbered.append(entry)
            else:
                renumbered.append(ShapeEntry(new_id, entry.shape_id,
                                             entry.image_id, entry.copy))
        self.entries = renumbered
        for sid, ids in self._entries_by_shape.items():
            self._entries_by_shape[sid] = [int(new_ids[i]) for i in ids]
        if self._vertex_points is not None and self._index is not None:
            # Patch the flat arrays and the index in place of a rebuild:
            # drop the removed entries' vertex rows, renumber owners
            # densely and shrink the kd-tree structurally.
            point_keep = np.repeat(entry_keep, self._entry_sizes)
            self._index = self._index.removed(point_keep)
            self._vertex_points = self._index.points
            self._entry_sizes = self._entry_sizes[entry_keep]
            offsets = np.zeros(len(self._entry_sizes) + 1, dtype=np.int64)
            np.cumsum(self._entry_sizes, out=offsets[1:])
            self._entry_offsets = offsets
            self._vertex_owner = np.repeat(
                np.arange(len(self.entries)), self._entry_sizes)
        else:
            # Arrays a snapshot load installed ahead of their index are
            # rebuilt lazily rather than left to describe removed copies.
            self._vertex_points = None
        if self._signature_cache is not None:
            num_curves, rows = self._signature_cache
            self._signature_cache = (num_curves, rows[entry_keep])
        if self._sketch_cache is not None:
            sketch_key, rows = self._sketch_cache
            self._sketch_cache = (sketch_key, rows[entry_keep])
        self.version += 1

    # ------------------------------------------------------------------
    # Copy-on-write support (streaming ingest)
    # ------------------------------------------------------------------
    def clone_cow(self) -> "ShapeBase":
        """A writable structurally-shared copy of this base.

        Top-level containers (entry list, shape/image dicts and their
        id lists) are copied; the numpy arrays, the range index, the
        ``Shape``/``NormalizedCopy`` objects and the caches are shared.
        Every mutation path replaces arrays rather than writing them in
        place, so mutating the clone never perturbs the donor — the
        shard layer uses this to apply a removal as a new epoch while
        in-flight readers finish against the old one.
        """
        clone = ShapeBase.__new__(ShapeBase)
        clone.alpha = self.alpha
        clone.backend = self.backend
        clone.auto_fold = self.auto_fold
        clone.entries = list(self.entries)
        clone.shapes = dict(self.shapes)
        clone.shape_image = dict(self.shape_image)
        clone._entries_by_shape = {sid: list(ids) for sid, ids
                                   in self._entries_by_shape.items()}
        clone._shapes_by_image = {iid: list(ids) for iid, ids
                                  in self._shapes_by_image.items()}
        clone._next_shape_id = self._next_shape_id
        clone.version = self.version
        clone._build_lock = threading.Lock()
        clone._index = self._index
        clone._vertex_points = self._vertex_points
        clone._vertex_owner = self._vertex_owner
        clone._entry_sizes = self._entry_sizes
        clone._entry_offsets = self._entry_offsets
        clone._signature_cache = self._signature_cache
        clone._sketch_cache = self._sketch_cache
        clone.snapshot_backing = self.snapshot_backing
        clone._backing_buffer = self._backing_buffer
        return clone

    def reader_view(self) -> Tuple[TriangleRangeIndex, np.ndarray,
                                   np.ndarray, np.ndarray, np.ndarray]:
        """A self-consistent ``(index, points, owner, sizes, offsets)``
        capture for a lock-free reader under concurrent appends.

        Appends publish the replaced arrays *before* the extended index
        (see ``_register_new_entries``), and every replacement keeps
        the old contents as a prefix.  Capturing the index first
        therefore guarantees each id it can report is in range for the
        arrays captured after it, whichever interleaving the writer is
        at — the core of the copy-on-write epoch contract.
        """
        self._ensure_arrays()
        index = self._index
        return (index, self._vertex_points, self._vertex_owner,
                self._entry_sizes, self._entry_offsets)

    @property
    def index_delta_size(self) -> int:
        """Unfolded tail points in the incremental index (0 if static)."""
        index = self._index
        return index.tail_size if isinstance(index, IncrementalIndex) else 0

    # ------------------------------------------------------------------
    # Statistics (the paper's p, n, ...)
    # ------------------------------------------------------------------
    @property
    def num_shapes(self) -> int:
        """``p``: the number of distinct database shapes."""
        return len(self.shapes)

    @property
    def num_entries(self) -> int:
        """Number of normalized copies stored."""
        return len(self.entries)

    @property
    def num_images(self) -> int:
        return len(self._shapes_by_image)

    @property
    def total_vertices(self) -> int:
        """``n``: total *indexed* (non-anchor) vertices over all copies.

        Every copy additionally holds its two anchor vertices near
        (0, 0)/(1, 0); those are excluded from the index (see
        ``_ensure_arrays``) and from this count, which is the ``n`` the
        density formulas use.
        """
        self._ensure_arrays()
        return len(self._vertex_points)

    @property
    def average_vertices_per_entry(self) -> float:
        if not self.entries:
            return 0.0
        return self.total_vertices / self.num_entries

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def entry(self, entry_id: int) -> ShapeEntry:
        return self.entries[entry_id]

    def entries_of_shape(self, shape_id: int) -> List[int]:
        return list(self._entries_by_shape.get(shape_id, []))

    def shapes_of_image(self, image_id: int) -> List[int]:
        return list(self._shapes_by_image.get(image_id, []))

    def image_of_shape(self, shape_id: int) -> Optional[int]:
        """``S.image`` in the paper's notation (Section 5)."""
        return self.shape_image[shape_id]

    def image_ids(self) -> List[int]:
        return sorted(self._shapes_by_image)

    def shape_ids(self) -> List[int]:
        return sorted(self.shapes)

    def __iter__(self) -> Iterator[ShapeEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------
    # Shard-friendly iteration and splitting (service layer)
    # ------------------------------------------------------------------
    def iter_shapes(self) -> Iterator[Tuple[int, Shape, Optional[int]]]:
        """Yield ``(shape_id, original shape, image_id)`` triples.

        Iterates the *originals* (not the normalized copies) in shape-id
        order — the unit a partitioner distributes across shards.
        """
        for shape_id in sorted(self.shapes):
            yield shape_id, self.shapes[shape_id], self.shape_image[shape_id]

    def subset(self, shape_ids: Sequence[int]) -> "ShapeBase":
        """A new base holding only ``shape_ids`` (ids preserved).

        The already-normalized entries are *carried over* (the
        immutable ``NormalizedCopy`` objects are shared, entry ids are
        renumbered locally), so taking a subset costs O(entries
        copied) instead of re-running normalization — structurally the
        result is identical to a base built fresh from those originals
        in the same order.  Cached hashing signatures come along too.
        """
        shape_ids = list(shape_ids)
        for shape_id in shape_ids:
            if shape_id not in self.shapes:
                raise KeyError(f"shape id {shape_id} not in the base")
        old_ids = [i for sid in shape_ids
                   for i in self._entries_by_shape[sid]]

        def carried(cache):
            return None if cache is None else \
                (cache[0], cache[1][np.array(old_ids, dtype=np.int64)])

        out = ShapeBase(alpha=self.alpha, backend=self.backend)
        out._absorb(
            shape_ids, [self.shapes[sid] for sid in shape_ids],
            [self.shape_image[sid] for sid in shape_ids],
            [[self.entries[i].copy for i in self._entries_by_shape[sid]]
             for sid in shape_ids],
            signatures=carried(self._signature_cache),
            sketches=carried(self._sketch_cache))
        return out

    def split(self, num_parts: int,
              partitioner: Optional[Callable[[int], int]] = None
              ) -> List["ShapeBase"]:
        """Partition the base into ``num_parts`` disjoint sub-bases.

        ``partitioner`` maps a shape id to its part index (values are
        taken modulo ``num_parts``); the default is the deterministic
        multiplicative hash of :func:`repro.service.shards.shard_for`,
        so a base split here agrees with the service layer's routing.
        Every shape lands in exactly one part, ids preserved.
        """
        if num_parts < 1:
            raise ValueError("num_parts must be at least 1")
        if partitioner is None:
            from ..service.shards import shard_for
            partitioner = lambda sid: shard_for(sid, num_parts)
        assignments: List[List[int]] = [[] for _ in range(num_parts)]
        for shape_id in sorted(self.shapes):
            assignments[partitioner(shape_id) % num_parts].append(shape_id)
        return [self.subset(ids) for ids in assignments]

    # ------------------------------------------------------------------
    # Flattened vertex arrays and the range index
    # ------------------------------------------------------------------
    def _ensure_arrays(self) -> None:
        """Build the flat vertex arrays and the range-search index.

        The two *anchor* vertices of every copy (``copy.pair``) sit at
        (0, 0) and (1, 0) up to rounding (not exactly: many are off by a
        few 1e-15), so any query envelope contains all of them — they
        carry no discriminative information and, left in the index,
        make the per-iteration output K grow linearly with the base
        size (breaking the paper's uniform-density analysis).  They are
        therefore excluded from the indexed point set and from the
        candidate-counter sizes; exact measures still use the full
        vertex set via :meth:`entry_vertices`.
        """
        if self._vertex_points is not None and self._index is not None:
            return
        # Cold build: serialize with writers — a concurrent append
        # would grow ``entries`` between the passes below and tear the
        # derived arrays.  Warm readers never reach this branch.
        with self._build_lock:
            if self._vertex_points is None:
                self._extend_flat_arrays(_copy_columns(self.entries), 0)
            if self._index is None:
                self._index = make_index(self._vertex_points, self.backend)

    @property
    def vertex_points(self) -> np.ndarray:
        """``(n, 2)`` array of all entry vertices."""
        self._ensure_arrays()
        return self._vertex_points

    @property
    def vertex_owner(self) -> np.ndarray:
        """For each vertex row, the owning entry id."""
        self._ensure_arrays()
        return self._vertex_owner

    @property
    def entry_sizes(self) -> np.ndarray:
        """Indexed (non-anchor) vertex count of each entry."""
        self._ensure_arrays()
        return self._entry_sizes

    def entry_vertices(self, entry_id: int) -> np.ndarray:
        """The *full* vertex set of one entry (anchors included).

        Exact measure evaluation uses all vertices; only the
        range-search index drops the anchors.
        """
        return self.entries[entry_id].shape.vertices

    def entry_vertices_batch(self, entry_ids) -> Tuple[np.ndarray,
                                                       np.ndarray]:
        """Concatenated full vertex sets of several entries.

        Returns ``(stacked, offsets)``: ``stacked`` is the row-wise
        concatenation of :meth:`entry_vertices` over ``entry_ids`` and
        ``offsets[i]:offsets[i+1]`` delimits entry ``i``'s rows — the
        layout the matcher's batched exact-measure evaluation consumes
        (one distance-engine call for the whole candidate set).
        """
        arrays = [self.entries[int(e)].shape.vertices for e in entry_ids]
        offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
        if not arrays:
            return np.zeros((0, 2)), offsets
        np.cumsum([len(a) for a in arrays], out=offsets[1:])
        return np.vstack(arrays), offsets

    def entry_indexed_vertices(self, entry_id: int) -> np.ndarray:
        """The indexed (non-anchor) vertex slice of one entry."""
        self._ensure_arrays()
        lo = self._entry_offsets[entry_id]
        hi = self._entry_offsets[entry_id + 1]
        return self._vertex_points[lo:hi]

    @property
    def index(self) -> TriangleRangeIndex:
        """The simplex range-search index over all entry vertices."""
        self._ensure_arrays()
        return self._index

    # ------------------------------------------------------------------
    # Hashing-signature cache (filled by the hashing layer / snapshots)
    # ------------------------------------------------------------------
    def cached_signatures(self, num_curves: int) -> Optional[np.ndarray]:
        """Per-entry characteristic quadruples, if cached for this family.

        Returns an ``(E, 4)`` int array aligned with ``entries`` or
        ``None`` when nothing is cached for a ``num_curves``-curve hash
        family.  The cache is extended on ingest and compacted on
        removal, so a non-``None`` answer is always current.
        """
        if self._signature_cache is None:
            return None
        cached_curves, rows = self._signature_cache
        if cached_curves != num_curves or len(rows) != len(self.entries):
            return None
        return rows

    def set_signature_cache(self, num_curves: int,
                            signatures: Sequence[Sequence[int]]) -> None:
        """Remember per-entry signatures for a ``num_curves`` family."""
        self._signature_cache = (int(num_curves), _signature_rows(
            int(num_curves), signatures, len(self.entries)))

    # ------------------------------------------------------------------
    # ANN-sketch cache (filled by the ann layer / v4 snapshots)
    # ------------------------------------------------------------------
    def cached_sketches(self, key: Tuple[int, int, int]
                        ) -> Optional[np.ndarray]:
        """Per-entry MinHash sketches, if cached for this family.

        ``key`` is ``SketchConfig.key`` — ``(num_hashes, grid,
        seed)``.  Returns an ``(E, num_hashes)`` int64 array aligned
        with ``entries`` or ``None`` when nothing is cached for that
        family.  Maintained like the signature cache: extended on
        ingest, compacted on removal, carried by :meth:`subset`.
        """
        if self._sketch_cache is None:
            return None
        cached_key, rows = self._sketch_cache
        if cached_key != tuple(key) or len(rows) != len(self.entries):
            return None
        return rows

    def set_sketch_cache(self, key: Tuple[int, int, int],
                         sketches: np.ndarray) -> None:
        """Remember per-entry ANN sketches for one sketch family."""
        rows = np.asarray(sketches, dtype=np.int64)
        if rows.shape != (len(self.entries), int(key[0])):
            raise ValueError("sketches must be one row per entry")
        self._sketch_cache = (tuple(int(k) for k in key), rows)

    def __repr__(self) -> str:
        return (f"ShapeBase(shapes={self.num_shapes}, "
                f"entries={self.num_entries}, alpha={self.alpha}, "
                f"backend={self.backend!r})")
