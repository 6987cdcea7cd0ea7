"""Percentiles as the benchmark reports them.

A tail percentile is only reported when at least :data:`MIN_BEYOND`
samples lie beyond it; a failed request is a sample of ``inf``, so it
counts against every percentile it falls under.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of too few samples to be steady."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value >= ``q`` of them."""
    if not values:
        raise TooFewSamples("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


def tail(values: Sequence[float], q: float) -> float:
    """:func:`percentile`, refusing when fewer than 10 lie beyond it."""
    if beyond(len(values), q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {len(values)} samples has "
            f"{beyond(len(values), q)} beyond it (need {MIN_BEYOND})"
        )
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    """The median (mean of the middle two for an even count)."""
    if not values:
        raise TooFewSamples("no samples")
    return statistics.median(values)
