"""Batch builds of the two bucket tables: the ANN tier's banded
:class:`~repro.ann.LshIndex` and the §3 :class:`~repro.hashing.
GeometricHashTable`.

Both add a batch by grouping its ids by bucket key and replacing each
touched bucket once.  The per-entry insert they replaced (one bucket
copy per posting, Σ bucket² / 2 element copies per build) stays here as
the reference: a batch build must end ``==`` to it — buckets,
signatures, ``len`` and candidates — however the entries are split
into batches, with duplicate signatures and empty quarters.  Around
that, without a clock: one bucket assignment per (table, key) per
batch, and a bucket a reader captured before a batch keeps its size.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ShapeBase
from repro.ann import LshIndex
from repro.hashing import (ApproximateRetriever, GeometricHashTable,
                           HashCurveFamily)
from repro.hashing.characteristic import EMPTY_QUARTER, compute_signatures
from tests.conftest import star_shaped_polygon

K_CURVES = 6


def reference_lsh_add(index, entry_id, signature):
    """The per-entry LSH insert: every posting copies its bucket."""
    for table, key in zip(index._buckets, index._band_keys(signature)):
        bucket = table.get(key)
        table[key] = (bucket | {entry_id}) if bucket else {entry_id}
    index._count += 1


def reference_hash_insert(table, entry_id, quadruple):
    """The per-entry hash-table insert: every posting copies its bucket."""
    table._signatures[entry_id] = quadruple
    for quarter, curve in enumerate(quadruple, start=1):
        if curve == EMPTY_QUARTER:
            continue
        bucket = table._buckets.get((quarter, curve))
        table._buckets[(quarter, curve)] = \
            (bucket | {entry_id}) if bucket else {entry_id}


def batches(items, cuts):
    """``items`` split at the sorted, de-duplicated ``cuts``."""
    bounds = [0] + sorted({min(c, len(items)) for c in cuts}) + [len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


class CountingDict(dict):
    """A bucket table that counts assignments per key."""

    def __init__(self, *args):
        super().__init__(*args)
        self.assigned = Counter()

    def __setitem__(self, key, value):
        self.assigned[key] += 1
        super().__setitem__(key, value)


# Few distinct values per row, so many signatures share band keys.
lsh_shapes = st.tuples(st.integers(1, 4), st.integers(1, 3))
cuts = st.lists(st.integers(0, 40), max_size=4)
quadruples = st.lists(st.tuples(*[st.integers(EMPTY_QUARTER, K_CURVES)] * 4),
                      max_size=40)


@st.composite
def lsh_cases(draw):
    tables, width = draw(lsh_shapes)
    rows = draw(st.integers(0, 40))
    values = draw(st.lists(st.integers(0, 2), min_size=rows * tables * width,
                           max_size=rows * tables * width))
    signatures = np.array(values, dtype=np.int64).reshape(rows,
                                                          tables * width)
    return tables, width, signatures, draw(cuts)


class TestLshBatchEqualsPerEntry:
    @settings(max_examples=80, deadline=None)
    @given(lsh_cases())
    def test_any_split_into_batches_ends_equal(self, case):
        tables, width, signatures, split = case
        reference = LshIndex(tables, width)
        for entry_id, row in enumerate(signatures):
            reference_lsh_add(reference, entry_id, row)
        batched = LshIndex(tables, width)
        single = LshIndex(tables, width)
        ids = list(range(len(signatures)))
        for part in batches(ids, split):
            batched.add_batch(part, signatures[part])
        for entry_id in ids:
            single.add(entry_id, signatures[entry_id])
        for index in (batched, single):
            assert index._buckets == reference._buckets
            assert len(index) == len(reference)
            for row in signatures:
                assert index.candidates(row) == reference.candidates(row)

    @settings(max_examples=40, deadline=None)
    @given(lsh_cases())
    def test_one_assignment_per_table_and_key(self, case):
        tables, width, signatures, split = case
        index = LshIndex(tables, width)
        ids = list(range(len(signatures)))
        for part in batches(ids, split):
            index._buckets = [CountingDict(t) for t in index._buckets]
            index.add_batch(part, signatures[part])
            for t, table in enumerate(index._buckets):
                touched = {signatures[e, t * width:(t + 1) * width]
                           .tobytes() for e in part}
                assert set(table.assigned) == touched
                assert set(table.assigned.values()) <= {1}

    def test_a_captured_bucket_keeps_its_size(self):
        index = LshIndex(tables=2, band_width=2)
        row = np.array([1, 1, 2, 2], dtype=np.int64)
        index.add_batch([0, 1], np.stack([row, row]))
        key = row[:2].tobytes()
        captured = index._buckets[0][key]
        index.add_batch([2, 3, 4], np.stack([row, row, row + 5]))
        assert captured == {0, 1}
        assert index._buckets[0][key] == {0, 1, 2, 3}
        assert index._buckets[0][key] is not captured

    def test_a_malformed_batch_changes_nothing(self):
        index = LshIndex(tables=2, band_width=2)
        with pytest.raises(ValueError):
            index.add_batch([0, 1], np.zeros((1, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            index.add_batch([0], np.zeros((1, 3), dtype=np.int64))
        assert len(index) == 0
        assert index._buckets == [{}, {}]


class TestHashTableBatchEqualsPerEntry:
    @settings(max_examples=80, deadline=None)
    @given(quadruples, cuts)
    def test_any_split_into_batches_ends_equal(self, quads, split):
        family = HashCurveFamily(K_CURVES)
        reference = GeometricHashTable(family)
        for entry_id, quadruple in enumerate(quads):
            reference_hash_insert(reference, entry_id, quadruple)
        batched = GeometricHashTable(family)
        single = GeometricHashTable(family)
        ids = list(range(len(quads)))
        for part in batches(ids, split):
            batched.insert_batch(part, [quads[e] for e in part])
        for entry_id in ids:
            single.insert(entry_id, quads[entry_id])
        for table in (batched, single):
            assert table._buckets == reference._buckets
            assert table._signatures == reference._signatures
            assert len(table) == len(reference)
            for quadruple in quads:
                for radius in (0, 1):
                    assert table.candidates(quadruple, radius) == \
                        reference.candidates(quadruple, radius)

    @settings(max_examples=40, deadline=None)
    @given(quadruples, cuts)
    def test_one_assignment_per_key(self, quads, split):
        table = GeometricHashTable(HashCurveFamily(K_CURVES))
        ids = list(range(len(quads)))
        for part in batches(ids, split):
            table._buckets = CountingDict(table._buckets)
            table.insert_batch(part, [quads[e] for e in part])
            touched = {(quarter, curve) for e in part
                       for quarter, curve in enumerate(quads[e], start=1)
                       if curve != EMPTY_QUARTER}
            assert set(table._buckets.assigned) == touched
            assert set(table._buckets.assigned.values()) <= {1}

    def test_a_captured_bucket_keeps_its_size(self):
        table = GeometricHashTable(HashCurveFamily(K_CURVES))
        table.insert_batch([0, 1], [(3, 0, 1, 2), (3, 0, 4, 4)])
        captured = table._buckets[(1, 3)]
        table.insert_batch([2, 3], [(3, 3, 3, 3), (3, 0, 0, 0)])
        assert captured == {0, 1}
        assert table._buckets[(1, 3)] == {0, 1, 2, 3}


class TestApproximateRetrieverBuildsInBatches:
    def test_build_and_append_equal_per_entry_inserts(self, rng,
                                                      monkeypatch):
        base = ShapeBase(alpha=0.05)
        for i in range(12):
            base.add_shape(star_shaped_polygon(rng, 10), image_id=i)

        def refused(*args):
            raise AssertionError("per-entry insert on a build path")

        monkeypatch.setattr(GeometricHashTable, "insert", refused)
        retriever = ApproximateRetriever(base, k_curves=20)
        first = base.num_entries
        for i in range(12, 16):
            base.add_shape(star_shaped_polygon(rng, 10), image_id=i)
        retriever.add_entries(range(first, base.num_entries))

        reference = GeometricHashTable(retriever.family)
        for entry_id, quadruple in enumerate(
                compute_signatures(base, retriever.family)):
            reference_hash_insert(reference, entry_id, quadruple)
        assert retriever.table._buckets == reference._buckets
        assert retriever.table._signatures == reference._signatures
