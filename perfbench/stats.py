"""Summary statistics for the benchmark: exact percentiles, the
percentile-support rule, and the failure share."""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

#: Percentiles the benchmark may report, lowest first.
CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A percentile is supported only with at least this many samples above it.
MIN_SAMPLES_BEYOND = 10


def _rank(count: int, q: float) -> int:
    """Nearest rank of the ``q``-th percentile in a sample of ``count``
    (rounded first, so that 99.9% of 10000 is 9990, not 9991)."""
    return math.ceil(round(q / 100.0 * count, 6))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The exact nearest-rank ``q``-th percentile of an ascending sample:
    the smallest value with at least ``q`` percent of the sample at or
    below it. No interpolation, so the result is always a sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError("percentile must be in (0, 100], got %r" % q)
    return sorted_values[max(_rank(len(sorted_values), q), 1) - 1]


def supports(count: int, q: float) -> bool:
    """Whether a sample of ``count`` leaves at least ten samples beyond
    the ``q``-th percentile."""
    return count - _rank(count, q) >= MIN_SAMPLES_BEYOND


def highest_supported(count: int) -> Optional[float]:
    """The highest candidate percentile a sample of ``count`` supports,
    or None when even the lowest has fewer than ten samples beyond it."""
    best = None
    for q in CANDIDATE_PERCENTILES:
        if supports(count, q):
            best = q
    return best


def failed_share(attempted: int, failed: int) -> float:
    """``ops_failed_frac``: failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("%d failed out of %d attempted" % (failed, attempted))
    return failed / attempted


class ValueLedger:
    """Retired token values, checked for the gap-free rule.

    The system's retire callback appends to :attr:`values`. With every
    issued token retired and none failing, the values are exactly
    ``0 .. issued-1``, so a value fails the rule when it repeats one
    already seen or lies outside ``[0, issued)``.
    """

    def __init__(self) -> None:
        self.values: List[int] = []
        self._seen = bytearray()

    def add_up_to(self, issued: int) -> int:
        """Check the values appended since the last call against
        ``[0, issued)``; returns how many break the rule."""
        seen = self._seen
        if len(seen) < issued:
            seen.extend(bytes(issued - len(seen)))
        bad = 0
        for value in self.values:
            if value is None or not 0 <= value < issued or seen[value]:
                bad += 1
            else:
                seen[value] = 1
        self.values.clear()
        return bad
