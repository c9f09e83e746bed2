"""Per-query deadlines and the service's degradation vocabulary.

A :class:`Deadline` is a monotonic-clock budget handed to one query.
The envelope matcher polls it between fattening iterations (the
``abort`` hook of :meth:`GeometricSimilarityMatcher.query`); once it
expires, the exact search is abandoned and the service answers from
the geometric-hashing tier instead — the paper's own two-method
combination, repurposed as graceful degradation: the fallback is
approximate but its cost is (expected) constant, so a late query's
residual budget is always enough for *an* answer.

:func:`backoff_delay` is the one retry-spacing rule: the service's
shard retries and the balancer's replica failover both sleep for it.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

#: Ceiling of one retry backoff, in seconds.
BACKOFF_CAP = 0.25


class Deadline:
    """A point on the monotonic clock after which work must stop.

    ``Deadline(None)`` never expires (the unlimited query);
    ``Deadline(0)`` is expired from birth — the first ``expired()``
    call returns True regardless of clock granularity.  The clock is
    injectable so tests can drive expiry deterministically.
    """

    __slots__ = ("_expires_at", "_clock", "_immediate")

    def __init__(self, seconds: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        if seconds is not None and seconds < 0:
            raise ValueError("deadline must be non-negative")
        self._clock = clock
        self._immediate = seconds == 0
        self._expires_at = None if seconds is None \
            else clock() + float(seconds)

    @classmethod
    def unlimited(cls) -> "Deadline":
        return cls(None)

    @property
    def bounded(self) -> bool:
        return self._expires_at is not None

    def expired(self) -> bool:
        if self._expires_at is None:
            return False
        if self._immediate:
            return True
        return self._clock() >= self._expires_at

    def remaining(self) -> float:
        """Seconds left (``inf`` when unlimited, clamped at 0)."""
        if self._expires_at is None:
            return float("inf")
        if self._immediate:
            return 0.0
        return max(0.0, self._expires_at - self._clock())

    def __repr__(self) -> str:
        if self._expires_at is None:
            return "Deadline(unlimited)"
        return f"Deadline(remaining={self.remaining():.4f}s)"


def backoff_delay(attempt: int, base: float, deadline: Deadline,
                  jitter: float = 0.0,
                  draw: Optional[Callable[[], float]] = None) -> float:
    """Seconds to wait before retry number ``attempt`` (1-based).

    The delay doubles from ``base`` up to :data:`BACKOFF_CAP`.  With
    ``jitter`` > 0 that fraction of it is scaled by ``draw()``, a
    uniform draw in [0, 1) that decorrelates retry storms (``draw`` is
    called only then, so a seeded source replays exactly).  The
    result never outlasts ``deadline``.
    """
    delay = min(BACKOFF_CAP, base * (2 ** (attempt - 1)))
    if jitter > 0:
        delay *= (1.0 - jitter) + jitter * draw()
    if deadline.bounded:
        delay = min(delay, deadline.remaining())
    return max(0.0, delay)
