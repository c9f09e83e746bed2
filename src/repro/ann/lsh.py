"""Banded multi-table LSH over MinHash sketches.

The classic banding construction: a signature of ``tables *
band_width`` MinHash rows is sliced into ``tables`` contiguous bands,
each band hashed whole into its own table.  Two entries collide in a
table iff their band agrees on every row, so the probability of
colliding somewhere is ``1 - (1 - J^w)^t`` for Jaccard similarity
``J`` — the familiar S-curve whose knee the (tables, band width)
knobs position.

The index is incremental in the same spirit as
:mod:`repro.rangesearch.dynamic`: entries can be added and removed
and the structure after any interleaving equals a fresh build over
the surviving entries (asserted by ``tests/test_ann.py``).  Buckets
are plain dict-of-set tables like
:class:`repro.hashing.GeometricHashTable`, and like it the index adds
a batch one bucket at a time: the batch's ids are grouped by band key
and every touched bucket is replaced once, so a build copies each
posting once instead of once per later insert into its bucket
(Σ bucket² / 2 copies).  :meth:`LshIndex.add` is a batch of one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np


class LshIndex:
    """Multi-table banded LSH index over fixed-length int signatures.

    Parameters
    ----------
    tables:
        Number of bands / hash tables.  More tables raise recall and
        candidate volume.
    band_width:
        MinHash rows per band.  Wider bands demand closer agreement,
        sharpening precision at the cost of recall.
    """

    def __init__(self, tables: int = 16, band_width: int = 2):
        if tables < 1 or band_width < 1:
            raise ValueError("tables and band_width must be positive")
        self.tables = int(tables)
        self.band_width = int(band_width)
        self._buckets: List[Dict[bytes, Set[int]]] = \
            [dict() for _ in range(self.tables)]
        self._count = 0

    @property
    def signature_length(self) -> int:
        """MinHash rows a signature must carry (``tables * band_width``)."""
        return self.tables * self.band_width

    def __len__(self) -> int:
        return self._count

    def _band_keys(self, signature: np.ndarray) -> List[bytes]:
        signature = np.ascontiguousarray(signature, dtype=np.int64)
        if signature.shape != (self.signature_length,):
            raise ValueError(
                f"signature must have {self.signature_length} rows, "
                f"got {signature.shape}")
        w = self.band_width
        return [signature[t * w:(t + 1) * w].tobytes()
                for t in range(self.tables)]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, entry_id: int, signature: np.ndarray) -> None:
        """Insert one entry under every band of its signature."""
        self.add_batch([entry_id],
                       np.asarray(signature, dtype=np.int64)[None])

    def add_batch(self, entry_ids, signatures: np.ndarray) -> None:
        """Insert many entries; row ``i`` of ``signatures`` is id ``i``'s.

        Per table, the batch's ids are grouped by band key and each
        touched bucket is replaced once by its union with the group
        (a ``|`` of two sets sizes the result's table once, as the
        per-entry copies did; a set grown one id at a time can hold
        twice the slots).

        Buckets are replaced rather than mutated (copy-on-write at
        bucket granularity): ``candidates`` iterates buckets without a
        lock, and a reader that captured the old set must never watch
        it change size — the contract live delta ingest relies on.
        """
        ids = [int(e) for e in entry_ids]
        if not ids:
            return
        signatures = np.ascontiguousarray(signatures, dtype=np.int64)
        if signatures.shape != (len(ids), self.signature_length):
            raise ValueError(
                f"signatures must be {len(ids)} rows of "
                f"{self.signature_length}, got {signatures.shape}")
        w = self.band_width
        step = signatures.itemsize * w
        for t, table in enumerate(self._buckets):
            raw = signatures[:, t * w:(t + 1) * w].tobytes()
            groups: Dict[bytes, List[int]] = {}
            for row, entry_id in enumerate(ids):
                groups.setdefault(raw[row * step:(row + 1) * step],
                                  []).append(entry_id)
            for key, group in groups.items():
                table[key] = table.get(key, set()) | set(group)
        self._count += len(ids)

    def remove(self, entry_id: int, signature: np.ndarray) -> None:
        """Remove one entry, given the signature it was inserted with.

        Empty buckets are deleted so a long add/remove history cannot
        leak memory (mirrors ``GeometricHashTable.remove``).
        """
        entry_id = int(entry_id)
        found = False
        for table, key in zip(self._buckets, self._band_keys(signature)):
            bucket = table.get(key)
            if bucket is not None and entry_id in bucket:
                found = True
                remaining = bucket - {entry_id}
                if remaining:
                    table[key] = remaining
                else:
                    del table[key]
        if not found:
            raise KeyError(f"entry {entry_id} not present under "
                           f"this signature")
        self._count -= 1

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def candidates(self, signature: np.ndarray,
                   cap: Optional[int] = None
                   ) -> Tuple[List[int], int]:
        """Entry ids colliding with ``signature`` in any table.

        Returns ``(ids, total)`` where ``total`` counts distinct
        colliders before the cap.  Ids are ranked by (vote count
        across tables, then entry id) so a cap keeps the candidates
        most tables agree on — the ones most likely to be true
        neighbours — and stays deterministic.
        """
        votes: Dict[int, int] = {}
        for table, key in zip(self._buckets, self._band_keys(signature)):
            for entry_id in table.get(key, ()):
                votes[entry_id] = votes.get(entry_id, 0) + 1
        ranked = sorted(votes, key=lambda e: (-votes[e], e))
        total = len(ranked)
        if cap is not None and total > cap:
            ranked = ranked[:cap]
        return ranked, total

    def bucket_stats(self) -> Dict[str, float]:
        """Occupancy summary for diagnostics (`stats`, serve-bench)."""
        sizes = [len(bucket) for table in self._buckets
                 for bucket in table.values()]
        if not sizes:
            return {"buckets": 0, "max_bucket": 0, "mean_bucket": 0.0}
        return {"buckets": len(sizes), "max_bucket": max(sizes),
                "mean_bucket": sum(sizes) / len(sizes)}

    def __repr__(self) -> str:
        return (f"LshIndex(tables={self.tables}, "
                f"band_width={self.band_width}, entries={self._count})")
