"""The benchmark's one percentile helper, plus paired-difference medians.

Every latency the benchmark prints goes through :func:`percentile`, so
a quantile is never reported from a sample too small to support it:
the guide's rule is "the highest percentile that has at least ten
samples beyond it", and a ``p90`` over 60 samples has six.
"""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple, Sequence

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


class Quantile(NamedTuple):
    """A percentile together with the size of the sample behind it."""

    value: float
    samples: int


def percentile(values: Sequence[float], q: float,
               min_tail: int = MIN_TAIL) -> Quantile:
    """The ``q``-th percentile (``0 < q < 100``), linearly interpolated.

    Raises :class:`TooFewSamples` unless at least ``min_tail`` samples
    lie beyond the requested rank on its far side — above it for
    ``q >= 50``, below it otherwise.  The median needs one sample.
    """
    if not 0.0 < q < 100.0:
        raise ValueError("q must lie strictly between 0 and 100")
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise TooFewSamples(f"p{q:g} of an empty sample")
    if q != 50.0:
        beyond = count * min(q, 100.0 - q) / 100.0
        if beyond < min_tail:
            raise TooFewSamples(
                f"p{q:g} of {count} samples has {beyond:.1f} beyond it, "
                f"needs {min_tail}")
    rank = (count - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, count - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
    return Quantile(value, count)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (``0.0`` for an empty one, so a
    layer no request crossed reads as zero time)."""
    return statistics.median(values) if values else 0.0


def paired_median(outer: Sequence[float], inner: Sequence[float]) -> float:
    """Median of the per-query differences ``outer[i] - inner[i]``.

    A rung's added cost is what the *same* query costs more through
    the wrapping layer; a difference of medians would compare two
    different queries whenever the layers order them differently.
    """
    if len(outer) != len(inner):
        raise ValueError("paired samples must have equal length")
    return median([a - b for a, b in zip(outer, inner)])


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness measure the benchmark's bounds are set
    against (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else 0.0
