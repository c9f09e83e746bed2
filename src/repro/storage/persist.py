"""File persistence for the shape base.

The external store of Section 4 is an in-memory *simulated* disk so
I/O can be counted; this module is the boring real thing: one binary
snapshot per base, crash-safe and checksummed, plus the append-only
*delta* the process tier ships between snapshots.

There is one codec.  A base is a table with one row per shape and one
row per normalized copy; :func:`_columns` packs the rows past a prior
state into the flat little-endian columns of ``_SECTIONS`` and
:func:`_absorb_columns` turns such columns back into entries through
the base's own ingest step (``ShapeBase._absorb``) — zero
re-normalization, exact float64 vertices, the flat index arrays derived
by pure slicing of the stored vertex block, the range index built
lazily.  The three frames around those columns differ only in their
header:

* **v3** (default) — a snapshot: every row of the base, i.e. a delta
  from the empty base.  Optionally carries the precomputed hashing
  signatures.  A v3-loaded base answers queries bit-for-bit identically
  to the base that was saved.
* **v4** — v3 plus the per-entry ANN MinHash sketches (``repro.ann``)
  and their family parameters in the header.  Loading fills the base's
  sketch cache, so a service configured with the same
  :class:`~repro.ann.SketchConfig` warms its LSH tier with zero sketch
  recompute.  Written only when :func:`save_base` is given
  ``ann_sketch``; bases without the ANN tier keep writing v3.
* **delta** — the rows appended after a named prior state, with
  whatever signature/sketch rows the producer's warm caches hold.

Versions 1 and 2 (per-entry float32 records that had to be
re-normalized on load) are no longer read or written; like any other
unknown version they raise :class:`CorruptSnapshotError`.

Writes are crash-safe: :func:`save_base` writes to a temp file in the
destination directory, fsyncs it, and publishes with ``os.replace`` —
the destination is always either the old snapshot or the complete new
one, never a torn mix.  Every header carries the body length and a
CRC32 of the body; every reader verifies both, then checks that the
columns are consistent with each other, and raises
:class:`CorruptSnapshotError` (a :class:`ValueError`) *before touching
the target base* instead of loading garbage.

**Backing modes.**  A snapshot can load these ways, all bit-for-bit
identical at query time and all recorded in ``base.snapshot_backing``:

* ``"eager"`` — the file is read into process memory (the default);
* ``"mmap"`` — ``load_base(path, mmap=True)`` memory-maps the file
  read-only and wraps every column as a zero-copy ``np.frombuffer``
  view over the mapping.  N processes mapping the same snapshot share
  one set of physical pages (the kernel page cache), which is what the
  :mod:`repro.service.procpool` worker processes rely on: attaching a
  shard costs page-table entries, not a per-process copy of the
  corpus.  The views are read-only — writing through them raises.
* ``"buffer"`` (or whatever label the caller passes) —
  :func:`load_base_buffer` over any in-memory payload; the same
  zero-copy decode, with the caller's buffer as the backing.
"""

from __future__ import annotations

import mmap as _mmap
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.shapebase import ShapeBase
from ..geometry.polyline import Shape
from ..geometry.transform import NormalizedCopy, SimilarityTransform

MAGIC = b"GSIR"
VERSION = 3
#: A delta payload carries only the shapes *appended* to a base after
#: a known prior state — the unit the process tier ships to workers on
#: a version bump instead of republishing the whole corpus.  Deltas
#: cover pure-append windows only: removals compact entry ids, so any
#: removal forces a full republish (the publisher's compaction rule).
MAGIC_DELTA = b"GSID"
DELTA_VERSION = 1
_PREFIX = struct.Struct("<4sH")       # magic, version

_COUNTS = ("shapes", "entries", "n_orig", "n_copy", "sig_curves")
_SKETCH_KEY = ("sk_hashes", "sk_grid", "sk_seed")
# (magic, version) -> the header after the prefix and the names of its
# fields; every header ends with the body length and the body's CRC32.
# A field a frame does not carry reads as 0 (``_NO_HEAD``): a snapshot
# has no prior state, a v3 file no sketch family.
_FRAMES = {
    (MAGIC, 3): (struct.Struct("<dIIQQiQI"), ("alpha",) + _COUNTS),
    (MAGIC, 4): (struct.Struct("<dIIQQiiiqQI"),
                 ("alpha",) + _COUNTS + _SKETCH_KEY),
    (MAGIC_DELTA, DELTA_VERSION): (
        struct.Struct("<dIIIIQQiiiqQI"),
        ("alpha", "prior_shapes", "prior_entries") + _COUNTS + _SKETCH_KEY),
}
_NO_HEAD = dict.fromkeys(("prior_shapes", "prior_entries") + _SKETCH_KEY, 0)

# The one section table: every column of a body, in body order, with
# its element type and its length in terms of the header counts.
_SECTIONS = (
    ("shape_ids", "<i8", lambda h: h["shapes"]),
    ("shape_image", "<i8", lambda h: h["shapes"]),         # -1 = no image
    ("orig_counts", "<i4", lambda h: h["shapes"]),
    ("orig_closed", "<u1", lambda h: h["shapes"]),
    ("entry_shape_idx", "<i4", lambda h: h["entries"]),    # row in shape_ids
    ("pairs", "<u2", lambda h: 2 * h["entries"]),
    ("transforms", "<f8", lambda h: 4 * h["entries"]),
    ("copy_counts", "<i4", lambda h: h["entries"]),
    ("orig_vertices", "<f8", lambda h: 2 * h["n_orig"]),
    ("copy_vertices", "<f8", lambda h: 2 * h["n_copy"]),
    ("signatures", "<i2",
     lambda h: 4 * h["entries"] if h["sig_curves"] else 0),
    ("sketches", "<i8", lambda h: h["sk_hashes"] * h["entries"]),
)


class CorruptSnapshotError(ValueError):
    """A snapshot or delta is truncated, checksum-broken, internally
    inconsistent, or not ours.

    Subclasses :class:`ValueError` so callers guarding persistence
    with ``except (OSError, ValueError)`` keep working.
    """


def _write_atomic(path: Path, payload: bytes) -> int:
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return len(payload)


# ----------------------------------------------------------------------
# Encoding: base rows -> columns -> sealed frame
# ----------------------------------------------------------------------
def _columns(base: ShapeBase, prior_shapes: int, prior_entries: int
             ) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Header fields and columns for the rows of ``base`` past a prior
    state (``0, 0``: every row).

    Signature and sketch rows ride along when the base's caches are
    warm (they cover every entry); cold caches leave the section empty
    and its family fields 0.
    """
    shape_items = list(base.shapes.items())[prior_shapes:]   # insertion order
    entries = base.entries[prior_entries:]
    if prior_shapes + len(shape_items) != len(base.shapes) or \
            prior_entries + len(entries) != len(base.entries):
        raise ValueError("prior counts exceed the base's current size")
    sid_to_idx = {sid: i for i, (sid, _) in enumerate(shape_items)}
    try:
        entry_shape_idx = [sid_to_idx[e.shape_id] for e in entries]
    except KeyError as exc:
        raise ValueError(
            f"entry references shape {exc} outside the delta window "
            f"(not a pure-append window)") from exc

    def stacked(shapes):
        return (np.concatenate([s.vertices for s in shapes], axis=0)
                if shapes else np.zeros((0, 2))).astype("<f8")

    def cached(cache, dtype, no_family):
        if cache is None or len(cache[1]) != len(base.entries) \
                or not entries:
            return no_family, np.zeros((0, 0), dtype=dtype)
        return cache[0], np.asarray(cache[1][prior_entries:]).astype(dtype)

    sig_curves, sig_rows = cached(base._signature_cache, "<i2", 0)
    sketch_key, sketch_rows = cached(base._sketch_cache, "<i8", (0, 0, 0))
    cols = {
        "shape_ids": np.array([sid for sid, _ in shape_items], dtype="<i8"),
        "shape_image": np.array(
            [-1 if base.shape_image[sid] is None
             else int(base.shape_image[sid]) for sid, _ in shape_items],
            dtype="<i8"),
        "orig_counts": np.array([s.num_vertices for _, s in shape_items],
                                dtype="<i4"),
        "orig_closed": np.array([s.closed for _, s in shape_items],
                                dtype="<u1"),
        "entry_shape_idx": np.array(entry_shape_idx, dtype="<i4"),
        "pairs": np.array([e.copy.pair for e in entries], dtype="<u2"),
        "transforms": np.array([e.copy.transform.as_tuple()
                                for e in entries], dtype="<f8"),
        "copy_counts": np.array([e.shape.num_vertices for e in entries],
                                dtype="<i4"),
        "orig_vertices": stacked([s for _, s in shape_items]),
        "copy_vertices": stacked([e.shape for e in entries]),
        "signatures": sig_rows,
        "sketches": sketch_rows,
    }
    head = {"alpha": base.alpha, "prior_shapes": prior_shapes,
            "prior_entries": prior_entries, "shapes": len(shape_items),
            "entries": len(entries),
            "n_orig": len(cols["orig_vertices"]),
            "n_copy": len(cols["copy_vertices"]),
            "sig_curves": int(sig_curves)}
    head.update(zip(_SKETCH_KEY, map(int, sketch_key)))
    return head, cols


def _seal(magic: bytes, version: int, head: Dict[str, object],
          cols: Dict[str, np.ndarray]) -> bytes:
    layout, names = _FRAMES[magic, version]
    body = b"".join(cols[name].tobytes() for name, _, _ in _SECTIONS)
    return (_PREFIX.pack(magic, version) +
            layout.pack(*(head[name] for name in names),
                        len(body), zlib.crc32(body)) + body)


def encode_base(base: ShapeBase, *, hash_curves: Optional[int] = None,
                ann_sketch=None) -> bytes:
    """The v3/v4 snapshot payload for ``base`` as one bytes object.

    Exactly what :func:`save_base` would write (v4 when ``ann_sketch``
    is given, v3 otherwise), without touching the filesystem;
    :func:`load_base_buffer` is the inverse.
    """
    if hash_curves is not None:
        from ..hashing.curves import HashCurveFamily
        from .layout import compute_signatures
        compute_signatures(base, HashCurveFamily(int(hash_curves)))
    if ann_sketch is not None:
        from ..ann.sketch import compute_entry_sketches
        compute_entry_sketches(base, ann_sketch)
    head, cols = _columns(base, 0, 0)
    if ann_sketch is None:
        # A v3 file has no sketch section, whatever the base has cached.
        cols["sketches"] = cols["sketches"][:0]
        return _seal(MAGIC, 3, head, cols)
    # Names the family even when an empty base leaves no rows to carry.
    head.update(zip(_SKETCH_KEY, ann_sketch.key))
    return _seal(MAGIC, 4, head, cols)


def save_base(base: ShapeBase, path: Union[str, Path], *,
              version: int = VERSION,
              hash_curves: Optional[int] = None,
              ann_sketch=None) -> int:
    """Write the whole base to ``path`` atomically; returns bytes written.

    ``version`` is 3 (the default) or 4; anything else — including the
    retired record formats 1 and 2 — is a ``ValueError``.  With
    ``hash_curves`` set the snapshot additionally embeds the per-entry
    characteristic signatures for that curve-family size (computing
    them now if the base has no cache), so a later
    :class:`~repro.hashing.ApproximateRetriever` build costs nothing.
    With ``ann_sketch`` (a :class:`~repro.ann.SketchConfig`) the
    snapshot is written as v4 and embeds the per-entry ANN MinHash
    sketches the same way, so a service's LSH tier warms with zero
    recompute; passing ``version=4`` without ``ann_sketch`` is an
    error (a v4 file exists *because* it carries sketches).

    The payload lands in a same-directory temp file first (fsynced),
    then ``os.replace`` publishes it — a crash mid-write leaves the
    previous snapshot intact, never a torn file.
    """
    if version not in (3, 4):
        raise ValueError(f"cannot write shape-base file version {version}")
    if version == 4 and ann_sketch is None:
        raise ValueError(
            "version 4 embeds ANN sketches; pass ann_sketch")
    return _write_atomic(Path(path), encode_base(
        base, hash_curves=hash_curves, ann_sketch=ann_sketch))


def encode_base_delta(base: ShapeBase, prior_shapes: int,
                      prior_entries: int) -> bytes:
    """Columnar payload of everything appended after a prior state.

    ``prior_shapes``/``prior_entries`` name the consumer's current
    counts; the delta carries the shapes and entries past them, sliced
    from the same columns a v3/v4 snapshot stores.  Signature and
    sketch rows for the new entries ride along *when the base's caches
    are warm* (the ingest path keeps them patched), so the consumer
    extends its own caches without recomputing; cold caches just omit
    the section.  The caller must hold the base still (the shard's
    write lock) while encoding.
    """
    return _seal(MAGIC_DELTA, DELTA_VERSION,
                 *_columns(base, prior_shapes, prior_entries))


# ----------------------------------------------------------------------
# Decoding: frame check -> columns -> ShapeBase._absorb
# ----------------------------------------------------------------------
def _read_head(view, magic: bytes, what: str
               ) -> Tuple[Dict[str, object], int]:
    """Parse the prefix and header of a frame: ``(head, body offset)``,
    the promised body length and CRC32 under ``body_len`` / ``crc``."""
    if len(view) < _PREFIX.size:
        raise CorruptSnapshotError(f"truncated shape-base {what}")
    found, version = _PREFIX.unpack_from(view, 0)
    if found != magic:
        raise CorruptSnapshotError(f"not a GeoSIR shape-base {what}")
    if (magic, version) not in _FRAMES:
        raise CorruptSnapshotError(
            f"unsupported shape-base {what} version {version}")
    layout, names = _FRAMES[magic, version]
    start = _PREFIX.size + layout.size
    if len(view) < start:
        raise CorruptSnapshotError(f"truncated shape-base {what}")
    values = layout.unpack_from(view, _PREFIX.size)
    head = dict(_NO_HEAD, version=int(version),
                **dict(zip(names + ("body_len", "crc"), values)))
    return head, start


def _read_frame(view: memoryview, magic: bytes, what: str
                ) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """The one frame check — magic, version, length, CRC, section
    sizes — and the body's columns as zero-copy views over ``view``."""
    head, start = _read_head(view, magic, what)
    # memoryview: no copy of the body for the length/CRC checks even
    # when the payload is a large file mapping.
    body = view[start:]
    if len(body) != head["body_len"]:
        raise CorruptSnapshotError(
            f"truncated shape-base {what}: body holds {len(body)} "
            f"bytes, header promises {head['body_len']}")
    if zlib.crc32(body) != head["crc"]:
        raise CorruptSnapshotError(
            f"shape-base {what} checksum mismatch (corrupted snapshot)")
    counts = [count(head) for _, _, count in _SECTIONS]
    if min(counts) < 0 or len(body) != sum(
            np.dtype(dtype).itemsize * n
            for (_, dtype, _), n in zip(_SECTIONS, counts)):
        raise CorruptSnapshotError(
            f"shape-base {what} section sizes are inconsistent")
    cols: Dict[str, np.ndarray] = {}
    for (name, dtype, _), n in zip(_SECTIONS, counts):
        cols[name] = np.frombuffer(view, dtype=dtype, count=n, offset=start)
        start += cols[name].nbytes
    return head, cols


def _absorb_columns(base: ShapeBase, head: Dict[str, object],
                    cols: Dict[str, np.ndarray], what: str) -> int:
    """Turn decoded columns into entries of ``base``; returns the first
    new entry id.

    The inverse of :func:`_columns`, for snapshots and deltas alike.
    ``base`` must sit at exactly the prior state the columns were cut
    against (same shape/entry counts and alpha — for a snapshot, the
    empty base), so a worker that missed a window fails loudly instead
    of diverging.  A CRC only says these are the bytes somebody sealed:
    the columns are checked against each other *before the first
    mutation*, so a payload that does not describe a base raises
    :class:`CorruptSnapshotError` and leaves ``base`` exactly as it
    was.  Entries are built over slices of the columns — whoever
    supplies the columns decides whether those are views of a pinned
    buffer or copies.
    """
    def require(ok, detail):
        if not ok:
            raise CorruptSnapshotError(
                f"inconsistent shape-base {what}: {detail}")

    num_shapes, num_entries = head["shapes"], head["entries"]
    shape_ids = cols["shape_ids"].tolist()
    orig_counts = cols["orig_counts"].astype(np.int64)
    copy_counts = cols["copy_counts"].astype(np.int64)
    owner = cols["entry_shape_idx"].astype(np.int64)
    pairs = cols["pairs"].reshape(-1, 2).astype(np.int64)
    require(int(orig_counts.sum()) == head["n_orig"] and
            int(copy_counts.sum()) == head["n_copy"],
            "vertex counts do not add up to the vertex blocks")
    require(np.all(orig_counts >= 3) and np.all(copy_counts >= 3),
            "a shape or copy with fewer than 3 vertices")
    require(np.all((owner >= 0) & (owner < num_shapes)) and
            np.all(np.diff(owner) >= 0),
            "entries do not reference their shapes in order")
    require(np.all(pairs < copy_counts[:, None]) and
            np.all(pairs[:, 0] != pairs[:, 1]),
            "anchor pair outside its copy")
    require(0 <= head["sig_curves"] <= np.iinfo(np.int16).max and
            np.all((cols["signatures"] >= 0) &
                   (cols["signatures"] <= head["sig_curves"])),
            "signature outside its curve family")

    with base._build_lock:
        if len(base.shapes) != head["prior_shapes"] or \
                len(base.entries) != head["prior_entries"]:
            raise ValueError(
                f"{what} was cut against {head['prior_shapes']} shapes / "
                f"{head['prior_entries']} entries; base holds "
                f"{len(base.shapes)} / {len(base.entries)}")
        if abs(base.alpha - head["alpha"]) > 1e-12:
            raise ValueError(f"{what} alpha does not match the base")
        require(len(set(shape_ids)) == num_shapes and
                base.shapes.keys().isdisjoint(shape_ids),
                "shape id repeated or already present")

        closed = (cols["orig_closed"] != 0).tolist()
        orig_vertices = cols["orig_vertices"].reshape(-1, 2)
        bounds = np.concatenate(([0], np.cumsum(orig_counts))).tolist()
        shapes = [Shape._trusted(orig_vertices[bounds[k]:bounds[k + 1]],
                                 closed[k]) for k in range(num_shapes)]
        image_ids = [None if image < 0 else image
                     for image in cols["shape_image"].tolist()]
        copy_vertices = cols["copy_vertices"].reshape(-1, 2)
        bounds = np.concatenate(([0], np.cumsum(copy_counts))).tolist()
        copies: List[List[NormalizedCopy]] = [[] for _ in shapes]
        for e, (k, transform, pair) in enumerate(zip(
                owner.tolist(), cols["transforms"].reshape(-1, 4).tolist(),
                pairs.tolist())):
            copies[k].append(NormalizedCopy(
                Shape._trusted(copy_vertices[bounds[e]:bounds[e + 1]],
                               closed[k]),
                SimilarityTransform(*transform), tuple(pair)))

        sk_key = tuple(int(head[name]) for name in _SKETCH_KEY)
        return base._absorb(
            shape_ids, shapes, image_ids, copies,
            signatures=(int(head["sig_curves"]),
                        cols["signatures"].reshape(-1, 4))
            if head["sig_curves"] else None,
            sketches=(sk_key, cols["sketches"].reshape(-1, sk_key[0]))
            if sk_key[0] else None,
            columns=(copy_vertices, copy_counts, pairs))


def apply_base_delta(base: ShapeBase, payload) -> int:
    """Append a delta payload's shapes to ``base``; returns the first
    new entry id.

    The inverse of :func:`encode_base_delta`: the frame is verified
    (magic, length, CRC), then the columns go through the same decoder
    a snapshot load uses — prior-state check, consistency checks, the
    base's own append path with the delta's signature/sketch rows
    passed through when they match the base's warm cache families.  A
    rejected delta leaves ``base`` untouched.
    """
    head, cols = _read_frame(memoryview(payload), MAGIC_DELTA, "delta")
    # Copy the rows out: unlike a snapshot load, nothing pins the
    # delta buffer after this call returns.
    for name, column in cols.items():
        cols[name] = column.copy()
        cols[name].setflags(write=False)
    return _absorb_columns(base, head, cols, "delta")


def load_base_buffer(buffer, backend: str = "kdtree", *,
                     warm: bool = False,
                     backing: str = "buffer") -> ShapeBase:
    """Materialize a v3/v4 snapshot payload straight from a buffer.

    ``buffer`` is any object exposing the buffer protocol — a
    ``bytes`` payload, a ``memoryview``, an ``mmap`` mapping (what
    :func:`load_base` passes with ``mmap=True``).
    A snapshot is a delta from the empty base: the columns are decoded
    onto a fresh :class:`ShapeBase` as zero-copy views over the buffer,
    so the caller must keep it alive for the base's lifetime (the base
    pins it via ``_backing_buffer``); pass a read-only view (e.g.
    ``memoryview(buf).toreadonly()``) to guarantee the immutable-
    snapshot contract.  ``backing`` labels ``base.snapshot_backing``
    (:func:`load_base` passes ``"eager"`` or ``"mmap"``).  The range
    index is built lazily on first use, or right away when ``warm`` is
    true.
    """
    head, cols = _read_frame(memoryview(buffer), MAGIC, "file")
    base = ShapeBase(alpha=float(head["alpha"]), backend=backend)
    _absorb_columns(base, head, cols, "file")
    base.snapshot_backing = backing
    base._backing_buffer = buffer
    if warm:
        base._ensure_arrays()
    return base


def load_base(path: Union[str, Path], backend: str = "kdtree", *,
              warm: bool = False, mmap: bool = False) -> ShapeBase:
    """Rebuild a :class:`ShapeBase` from a file written by
    :func:`save_base`: read the file — or, with ``mmap=True``, map it
    read-only — then :func:`load_base_buffer`.

    ``base.snapshot_backing`` records which (``"eager"`` / ``"mmap"``,
    see *Backing modes* in the module docstring); the answers are
    bit-for-bit identical either way.
    """
    with open(path, "rb") as handle:
        # mmap refuses an empty file; reading it reports the truncation.
        if mmap and os.fstat(handle.fileno()).st_size:
            return load_base_buffer(
                _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ),
                backend, warm=warm, backing="mmap")
        return load_base_buffer(handle.read(), backend, warm=warm,
                                backing="eager")


def snapshot_info(path: Union[str, Path]) -> Dict[str, object]:
    """Header-only peek at a snapshot: version, alpha, counts, embedded
    signature family and (v4) sketch family.

    Reads just the fixed-size header (no body verification) — cheap
    enough for CLI ``stats`` to call on every invocation.
    """
    longest = max(layout.size for layout, _ in _FRAMES.values())
    with open(path, "rb") as handle:
        head, _ = _read_head(handle.read(_PREFIX.size + longest),
                             MAGIC, "file")
        size_bytes = os.fstat(handle.fileno()).st_size
    info: Dict[str, object] = {
        "version": head["version"], "size_bytes": int(size_bytes),
        "alpha": float(head["alpha"]), "num_shapes": int(head["shapes"]),
        "num_entries": int(head["entries"]),
        "signature_curves": int(head["sig_curves"])}
    if head["version"] == 4:
        info.update(ann_hashes=int(head["sk_hashes"]),
                    ann_grid=int(head["sk_grid"]),
                    ann_seed=int(head["sk_seed"]))
    return info
