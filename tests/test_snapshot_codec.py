"""The one snapshot/delta codec (``repro.storage.persist``).

Three contracts:

* **the bytes did not move** — sha256 of the v3, v4 and delta payloads
  of a fixed base, recorded at commit ``61ee7a7`` (before the two codecs
  were folded into one);
* **a snapshot is a delta from the empty base** — loading a snapshot,
  applying a whole-base delta onto an empty base, and loading a prefix
  snapshot then applying the rest as a delta all give the same base,
  bit for bit;
* **a payload that does not describe a base is refused whole** — a
  CRC only proves the bytes are the ones somebody sealed, so the
  columns are checked against each other before the first mutation.

The helpers below address columns by the documented byte layout, not
through ``persist``'s internals, so they also pin that layout.
"""

import hashlib
import struct
import zlib

import numpy as np
import pytest

from repro import GeometricSimilarityMatcher, Shape, ShapeBase
from repro.ann import SketchConfig, compute_entry_sketches
from repro.hashing import HashCurveFamily
from repro.storage import (CorruptSnapshotError, compute_signatures,
                           load_base)
from repro.storage.persist import (apply_base_delta, encode_base,
                                   encode_base_delta, load_base_buffer)

from .conftest import assert_same_base, star_shaped_polygon

SKETCH = SketchConfig(num_hashes=8, grid=16, seed=7)
CURVES = 12


# ----------------------------------------------------------------------
# (a) golden byte identity
# ----------------------------------------------------------------------
def _lattice_polygon(rng, n, closed):
    """A star-shaped polygon on integer coordinates: every step from
    here to the payload is exact IEEE arithmetic, so the digests do not
    depend on the platform's libm."""
    pts = np.unique(rng.integers(-40, 41, size=(3 * n, 2)), axis=0)
    pts = pts[rng.permutation(len(pts))[:n]].astype(float)
    centre = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - centre[1],
                                  pts[:, 0] - centre[0]), kind="stable")
    return Shape(pts[order], closed=closed)


def _golden_base():
    rng = np.random.default_rng(20020604)
    shapes = [_lattice_polygon(rng, int(rng.integers(6, 13)), i != 3)
              for i in range(8)]
    base = ShapeBase(alpha=0.1)
    base.add_shapes(shapes, image_ids=[0, 0, 1, None, 2, 2, 2, 5],
                    shape_ids=[0, 1, 2, 3, 4, 7, 8, 11])
    return base


GOLDEN = {
    "v3": "fb9f06a0db4e8e658d7e054e8d74aeaa2b28a9338aae73c1d7b155ea89c84f76",
    "v3_signed":
        "8bee664871516362c386fddddff5936ee7c9424c51e02690594ad1784cc5cf2d",
    "v4": "3703818f357dbced5bf09532a6facdf09bea398e3eb6137826a0b39e359244db",
    "v4_signed":
        "c24ce3e0b22466ee3b83b6d80f077fd7c820d274b7aa85b298046a313e064ea4",
    "delta_cold":
        "f56f2b0e40790e96723fcd32833c2f625d48370016597e7a317ea2ea55eb5d93",
    "delta_warm":
        "e8a19051cf3d44e48464ac0958022ecaa4da925aac8bbc018cf7597d2ba87dd2",
    "delta_whole":
        "29da68944ac2f2e9c38b7056908f82c5407411503a7de915741fff0023ef3b91",
}


def test_golden_digests():
    def sha(payload):
        return hashlib.sha256(payload).hexdigest()

    base = _golden_base()
    assert (base.num_shapes, base.num_entries) == (8, 54)
    prior = (5, 36)                       # the first five shapes' rows
    got = {"v3": sha(encode_base(base)),
           "delta_cold": sha(encode_base_delta(base, *prior)),
           "delta_whole": sha(encode_base_delta(base, 0, 0)),
           "v3_signed": sha(encode_base(_golden_base(),
                                        hash_curves=CURVES)),
           "v4": sha(encode_base(_golden_base(), ann_sketch=SKETCH))}
    warm = _golden_base()
    got["v4_signed"] = sha(encode_base(warm, hash_curves=CURVES,
                                       ann_sketch=SKETCH))
    # ``warm`` now carries both caches: the delta ships their rows.
    got["delta_warm"] = sha(encode_base_delta(warm, *prior))
    assert got == GOLDEN


# ----------------------------------------------------------------------
# (b) snapshot == delta from the empty base == prefix snapshot + delta
# ----------------------------------------------------------------------
def _assert_identical(a: ShapeBase, b: ShapeBase, sketches):
    assert_same_base(a, b)
    for cached in (lambda base: base.cached_signatures(CURVES),
                   lambda base: base.cached_sketches(SKETCH.key)):
        rows_a, rows_b = cached(a), cached(b)
        assert (rows_a is None) == (rows_b is None)
        assert rows_a is None or np.array_equal(rows_a, rows_b)
    for sketch in sketches:
        answers = [[(m.shape_id, m.distance) for m in
                    GeometricSimilarityMatcher(base).query(sketch, k=3)[0]]
                   for base in (a, b)]
        assert answers[0] == answers[1]


@pytest.mark.parametrize("caches", ["cold", "warm"])
@pytest.mark.parametrize("split", [0, 1, 4, 9])
@pytest.mark.parametrize("seed", [11, 23, 47])
def test_snapshot_is_a_delta_from_the_empty_base(seed, split, caches):
    rng = np.random.default_rng(seed)
    shapes = [star_shaped_polygon(rng, int(rng.integers(5, 14)))
              for _ in range(9)]
    whole = ShapeBase(alpha=0.1)
    ids = whole.add_shapes(shapes,
                           image_ids=[None if i == 2 else i % 3
                                      for i in range(9)],
                           shape_ids=[3 * i + 1 for i in range(9)])
    sketch_family = None
    if caches == "warm":
        compute_signatures(whole, HashCurveFamily(CURVES))
        compute_entry_sketches(whole, SKETCH)
        sketch_family = SKETCH
    probes = [shapes[0], shapes[-1].rotated(0.4).scaled(1.7)]

    loaded = load_base_buffer(encode_base(whole, ann_sketch=sketch_family))
    assert (loaded.cached_sketches(SKETCH.key) is not None) == \
        (caches == "warm")
    _assert_identical(whole, loaded, probes)

    from_empty = ShapeBase(alpha=0.1)
    assert apply_base_delta(from_empty,
                            encode_base_delta(whole, 0, 0)) == 0
    _assert_identical(loaded, from_empty, probes)

    prefix = whole.subset(ids[:split])
    delta = encode_base_delta(whole, prefix.num_shapes, prefix.num_entries)
    for live in (False, True):            # lazy rebuild / incremental patch
        grown = load_base_buffer(
            encode_base(prefix, ann_sketch=sketch_family), warm=live)
        assert apply_base_delta(grown, delta) == prefix.num_entries
        _assert_identical(loaded, grown, probes)


# ----------------------------------------------------------------------
# CRC-valid but inconsistent payloads
# ----------------------------------------------------------------------
_PREFIX = struct.Struct("<4sH")
#: magic -> (header after the prefix, index of its ``shapes`` field);
#: ``entries`` follows it, body length and CRC32 close every header.
_HEADERS = {b"GSIR": (struct.Struct("<dIIQQiQI"), 1),
            b"GSID": (struct.Struct("<dIIIIQQiiiqQI"), 3)}


def _resealed(payload: bytes, edit) -> bytes:
    """``payload`` (v3 snapshot or delta) after ``edit`` rewrote its
    leading columns in place, CRC recomputed — every frame check still
    passes, only the columns no longer agree with each other."""
    data = bytearray(payload)
    header, at = _HEADERS[_PREFIX.unpack_from(data, 0)[0]]
    shapes, entries = header.unpack_from(data, _PREFIX.size)[at:at + 2]
    start = offset = _PREFIX.size + header.size
    cols = {}
    for name, dtype, count in (
            ("shape_ids", "<i8", shapes), ("shape_image", "<i8", shapes),
            ("orig_counts", "<i4", shapes), ("orig_closed", "<u1", shapes),
            ("entry_shape_idx", "<i4", entries), ("pairs", "<u2", 2 * entries),
            ("transforms", "<f8", 4 * entries),
            ("copy_counts", "<i4", entries)):
        cols[name] = np.frombuffer(data, dtype=dtype, count=count,
                                   offset=offset)
        offset += cols[name].nbytes
    edit(cols)
    struct.pack_into("<I", data, start - 4, zlib.crc32(bytes(data[start:])))
    return bytes(data)


def _put(column, index, value):
    def edit(cols):
        cols[column][index] = value
    return edit


def _copy_neighbour(column):
    def edit(cols):
        cols[column][1] = cols[column][0]
    return edit


HOSTILE = {
    "entry-of-shape-minus-1": _put("entry_shape_idx", 0, -1),
    "entry-of-shape-1e6": _put("entry_shape_idx", 0, 10 ** 6),
    "entries-not-grouped-by-shape": _put("entry_shape_idx", -1, 0),
    "vertexless-original": _put("orig_counts", 0, 0),
    "original-overruns-its-block": _put("orig_counts", 0, 10 ** 6),
    "anchor-past-its-copy": _put("pairs", 0, 60000),
    "anchor-pair-collapsed": _copy_neighbour("pairs"),
    "copy-overruns-its-block": _put("copy_counts", 0, 10 ** 6),
    "one-vertex-copy": _put("copy_counts", 0, 1),
    "shape-id-repeated": _copy_neighbour("shape_ids"),
}


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(5)
    whole = ShapeBase(alpha=0.1)
    ids = whole.add_shapes([star_shaped_polygon(rng, int(rng.integers(6, 12)))
                            for _ in range(8)],
                           image_ids=[i % 3 for i in range(8)])
    compute_entry_sketches(whole, SKETCH)
    return whole, whole.subset(ids[:5])


def _frozen_state(base: ShapeBase):
    """What a refused delta must leave alone: the counts and version,
    and the very array/index objects (``id``: nothing was republished)."""
    base._ensure_arrays()
    return (base.num_shapes, base.num_entries, base.version,
            list(base.shapes), base.image_ids(),
            [id(part) for part in (
                base._index, base._vertex_points, base._vertex_owner,
                base._entry_sizes, base._entry_offsets,
                base.cached_sketches(SKETCH.key))])


@pytest.mark.parametrize("route", ["bytes", "mmap", "buffer", "delta"])
@pytest.mark.parametrize("case", list(HOSTILE))
def test_inconsistent_payload_refused_whole(corpus, tmp_path, case, route):
    whole, prefix = corpus
    if route != "delta":
        payload = _resealed(encode_base(whole), HOSTILE[case])
        path = tmp_path / "hostile.gsb"
        path.write_bytes(payload)
        with pytest.raises(CorruptSnapshotError, match="inconsistent"):
            if route == "buffer":
                load_base_buffer(memoryview(payload))
            else:
                load_base(path, mmap=(route == "mmap"))
        return
    target = load_base_buffer(encode_base(prefix, ann_sketch=SKETCH))
    before = _frozen_state(target)
    good = encode_base_delta(whole, prefix.num_shapes, prefix.num_entries)
    with pytest.raises(CorruptSnapshotError, match="inconsistent"):
        apply_base_delta(target, _resealed(good, HOSTILE[case]))
    # Not one row landed — and the honest delta still applies.
    assert _frozen_state(target) == before
    apply_base_delta(target, good)
    _assert_identical(whole, target, [])


@pytest.mark.parametrize("value", [-1, CURVES + 1])
def test_signature_outside_its_family_refused(value):
    data = bytearray(encode_base(_golden_base(), hash_curves=CURVES))
    # v3: the signature rows are the body's last section.
    struct.pack_into("<h", data, len(data) - 2, value)
    start = _PREFIX.size + _HEADERS[b"GSIR"][0].size
    struct.pack_into("<I", data, start - 4, zlib.crc32(bytes(data[start:])))
    with pytest.raises(CorruptSnapshotError, match="curve family"):
        load_base_buffer(bytes(data))


def test_delta_with_a_present_shape_id_refused_whole(corpus):
    whole, prefix = corpus
    target = load_base_buffer(encode_base(prefix))
    before = _frozen_state(target)
    taken = list(prefix.shapes)[0]
    hostile = _resealed(
        encode_base_delta(whole, prefix.num_shapes, prefix.num_entries),
        _put("shape_ids", 0, taken))
    with pytest.raises(CorruptSnapshotError, match="already present"):
        apply_base_delta(target, hostile)
    assert _frozen_state(target) == before
