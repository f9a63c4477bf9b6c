"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The highest percentile that still has ``TAIL_BEYOND`` samples
    beyond it, with the sample count it was taken from."""

    percentile: float
    value: float
    samples: int


def tail(samples: Sequence[float]) -> Tail:
    """The tail value of ``samples`` by the nearest-rank rule.

    Percentile ``p`` of ``n`` sorted samples is the sample at rank
    ``ceil(p * n / 100)``; the samples beyond it number
    ``n - rank``. The highest ``p`` that leaves ``TAIL_BEYOND`` of
    them is ``100 * (n - TAIL_BEYOND) / n``, at rank
    ``n - TAIL_BEYOND``.

    Raises:
        ValueError: With ``TAIL_BEYOND`` samples or fewer, no
            percentile has enough beyond it.
    """
    count = len(samples)
    if count <= TAIL_BEYOND:
        raise ValueError(
            f"need more than {TAIL_BEYOND} samples for a tail, "
            f"got {count}")
    rank = count - TAIL_BEYOND
    return Tail(percentile=100.0 * rank / count,
                value=sorted(samples)[rank - 1], samples=count)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (the figure the
    benchmark's bounds are compared against)."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)
