"""Small statistics helpers (no numpy dependency in the core library)."""

from __future__ import annotations

import math
import sys
from typing import Sequence

from repro.value import Value


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0–100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high or ordered[low] == ordered[high]:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def p99_or_zero(values: Sequence[float]) -> float:
    """The 99th percentile, or 0.0 for an empty sample (a run that
    acknowledged no action)."""
    return percentile(values, 99) if values else 0.0


class Summary(Value):
    """Five-number-plus summary of a sample."""

    __slots__ = ("count", "mean", "minimum", "p50", "p90", "p99", "maximum")

    def __init__(
        self, count: int, mean: float, minimum: float, p50: float,
        p90: float, p99: float, maximum: float,
    ) -> None:
        self.count = count
        self.mean = mean
        self.minimum = minimum
        self.p50 = p50
        self.p90 = p90
        self.p99 = p99
        self.maximum = maximum

    def __str__(self) -> str:  # pragma: no cover - formatting sugar
        return (
            f"n={self.count} mean={self.mean:.4g} min={self.minimum:.4g} "
            f"p50={self.p50:.4g} p90={self.p90:.4g} "
            f"p99={self.p99:.4g} max={self.maximum:.4g}"
        )


def summarize(values: Sequence[float]) -> Summary:
    """Summarise a non-empty sample."""
    if not values:
        raise ValueError("summarize of empty sequence")
    return Summary(
        count=len(values),
        mean=math.fsum(values) / len(values),
        minimum=min(values),
        p50=percentile(values, 50),
        p90=percentile(values, 90),
        p99=percentile(values, 99),
        maximum=max(values),
    )


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length samples.

    Used by the bandwidth microbenchmark to assert "traffic corresponds
    directly to the size of the overlap regions".
    """
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    cov = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = math.fsum((x - mean_x) ** 2 for x in xs)
    var_y = math.fsum((y - mean_y) ** 2 for y in ys)
    product = var_x * var_y
    # Below the smallest normal float the product has underflowed to
    # zero or lost the precision the ratio needs (tiny but nonzero
    # variances): as unusable as a zero variance.
    if product < sys.float_info.min:
        raise ValueError("zero variance")
    return cov / math.sqrt(product)
