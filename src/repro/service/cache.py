"""Query-result caching keyed by a canonical sketch signature.

Two sketches that differ only by a similarity transform (rotation,
scale, translation) are the *same query* to GeoSIR — retrieval is
invariant by construction.  The cache key therefore reuses the paper's
own normalization (:func:`repro.geometry.transform
.normalize_about_diameter`): the sketch is mapped so its diameter
endpoints land on (0,0)/(1,0), the resulting vertices are quantized to
a small grid (absorbing the float noise the transform introduces), and
the quantized bytes — plus the structural bits (closed flag, vertex
count) and the query parameters (kind, k / threshold) — are hashed.

Entries carry the shape-base version they were computed against;
:meth:`QueryResultCache.get` refuses stale entries, and ingest bumps
the version, so invalidation is automatic and O(1).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

import numpy as np

from ..geometry.polyline import Shape

#: Quantization grid for normalized vertices.  Normalized coordinates
#: live in the lune (|x|, |y| <= 1.5 in practice); 1e-6 is far below any
#: meaningful geometric difference yet far above the ~1e-12 float noise
#: of the normalization transform.
SIGNATURE_GRID = 1e-6


def sketch_signature(sketch: Shape, *, kind: str = "topk",
                     parameter: Any = 1,
                     grid: float = SIGNATURE_GRID) -> str:
    """A rotation/scale/translation-invariant digest of one query.

    ``kind``/``parameter`` distinguish top-k from threshold queries
    (and their k / threshold values) so they never alias.
    """
    normalized = sketch.normalized.shape
    quantized = np.rint(normalized.vertices / grid).astype(np.int64)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(b"closed" if normalized.closed else b"open")
    digest.update(len(quantized).to_bytes(4, "little"))
    digest.update(f"{kind}:{parameter}".encode())
    digest.update(np.ascontiguousarray(quantized).tobytes())
    return digest.hexdigest()


class QueryResultCache:
    """Thread-safe LRU of query results, versioned for invalidation.

    ``capacity`` bounds the number of cached results; the base version
    recorded with each entry makes results computed before an ingest
    invisible afterwards (they age out of the LRU naturally).
    """

    def __init__(self, capacity: int = 128):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, Tuple[int, Any]]" = \
            OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def get(self, key: Hashable, version: int) -> Optional[Any]:
        """The cached value, or ``None`` on miss/version mismatch."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == version:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry[1]
            if entry is not None:
                # Stale: computed against an older base.
                del self._entries[key]
            self.misses += 1
            return None

    def peek(self, key: Hashable, version: int) -> Optional[Any]:
        """The value :meth:`get` would return, without its effects: no
        hit or miss is counted and the LRU order and stale entries stay
        as they are (for probes that are not lookups)."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is not None and entry[0] == version:
            return entry[1]
        return None

    def put(self, key: Hashable, version: int, value: Any) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._entries[key] = (version, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self) -> None:
        """Drop everything (explicit invalidation on ingest)."""
        with self._lock:
            self.invalidations += 1
            self._entries.clear()

    @property
    def hit_ratio(self) -> float:
        accesses = self.hits + self.misses
        if accesses == 0:
            return 0.0
        return self.hits / accesses

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (f"QueryResultCache(capacity={self.capacity}, "
                f"size={len(self)}, hits={self.hits}, "
                f"misses={self.misses})")
