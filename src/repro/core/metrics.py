"""Metric helpers: percentiles and summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

__all__ = ["percentile", "summarize", "Summary"]


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) by linear interpolation.

    Raises ``ValueError`` on an empty input — silent zeros hide broken
    experiments.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    maximum: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.maximum,
        }


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics; empty inputs yield an all-zero summary."""
    if not values:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return Summary(
        count=len(values),
        mean=sum(values) / len(values),
        p50=percentile(values, 50),
        p90=percentile(values, 90),
        p99=percentile(values, 99),
        maximum=max(values),
    )
