"""Mergeable log-bucketed histograms with percentile estimates.

The metrics registry's timing histograms record durations into
geometric buckets so that shards from many processes **merge by bucket
addition** — the same aggregation contract as counters — and still
answer percentile queries afterwards. That is the property a latency
SLO needs and a list of raw samples cannot give at fleet scale: you
cannot concatenate a million per-worker sample lists, but you can add
34 bucket counts.

Bucket bounds are geometric with :data:`BUCKETS_PER_DECADE` buckets per
decade from 1 µs to 100 s (quantile error is bounded by one bucket's
width, ~78% at 4/decade — tight enough to tell a 2x regression from
noise, coarse enough that a histogram is a handful of ints). The
quantile estimator interpolates linearly inside the containing bucket
and clamps to the recorded ``[min, max]``, so a single-sample histogram
reports that sample exactly.

:class:`Histogram` round-trips through the registry's timing-dict shape
(:meth:`Histogram.from_timing` / :meth:`Histogram.to_timing`), which is
how ``tools/perf_smoke.py`` turns recorded deltas into the percentile
section of ``BENCH_kernels.json`` and how ``telemetry.prometheus``
renders ``*_bucket`` series.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Geometric resolution: buckets per factor-of-10 of the bounds.
BUCKETS_PER_DECADE = 4

#: Bucket upper bounds in seconds, ``10**(e / BUCKETS_PER_DECADE)`` from
#: 1e-6 to 1e2; one final unbounded bucket catches everything above.
BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** (e / BUCKETS_PER_DECADE)
    for e in range(-6 * BUCKETS_PER_DECADE, 2 * BUCKETS_PER_DECADE + 1)
)

#: The percentile labels every report carries.
DEFAULT_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
)


class Histogram:
    """One mergeable log-bucketed histogram of non-negative durations."""

    __slots__ = ("bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = BOUNDS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count: int = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- recording -------------------------------------------------------------

    def observe(self, value: float) -> None:
        """Record one sample (values below 0 clamp into the first bucket)."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.buckets[bisect.bisect_left(self.bounds, value)] += 1

    def observe_many(self, values: Iterable[float]) -> "Histogram":
        for value in values:
            self.observe(value)
        return self

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another shard in; bucket-exact (addition commutes)."""
        if other.bounds != self.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        self.count += other.count
        self.total += other.total
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        return self

    def since(self, earlier: "Histogram") -> "Histogram":
        """The samples recorded after ``earlier`` (an older state of
        this histogram): counts, total and buckets subtract; min and max
        stay this histogram's, since an extremum has no difference."""
        delta = Histogram(self.bounds)
        delta.count = self.count - earlier.count
        delta.total = self.total - earlier.total
        delta.buckets = [
            new - old for new, old in zip(self.buckets, earlier.buckets)
        ]
        delta.min, delta.max = self.min, self.max
        return delta

    # -- queries ---------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (linear within the containing bucket).

        The estimate is exact up to the containing bucket's width: the
        true value and the estimate always share a bucket, which is the
        accuracy bound the property tests assert.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        # Rank of the q-th sample (1-based), then walk the buckets.
        rank = max(1, min(self.count, math.ceil(q * self.count)))
        seen = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            if seen + n >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = (
                    self.bounds[i]
                    if i < len(self.bounds)
                    else (self.max if self.max is not None else lo)
                )
                fraction = (rank - seen) / n
                estimate = lo + (hi - lo) * fraction
                if self.min is not None:
                    estimate = max(estimate, self.min)
                if self.max is not None:
                    estimate = min(estimate, self.max)
                return estimate
            seen += n
        return self.max if self.max is not None else 0.0

    def percentiles(self) -> Dict[str, float]:
        """The standard report section: ``{"p50": ..., "p90": ..., "p99": ...}``."""
        return {label: self.quantile(q) for label, q in DEFAULT_QUANTILES}

    def count_below(self, threshold: float) -> float:
        """Estimated number of samples ``<= threshold``.

        Whole buckets below the threshold count exactly; the containing
        bucket contributes linearly by the threshold's position inside
        it — the same interpolation (and therefore the same error
        bound) as :meth:`quantile`, just inverted. Clamps against the
        recorded ``[min, max]`` so a threshold outside the observed
        range answers 0 or ``count`` exactly.
        """
        threshold = float(threshold)
        if self.count == 0:
            return 0.0
        if self.min is not None and threshold < self.min:
            return 0.0
        if self.max is not None and threshold >= self.max:
            return float(self.count)
        below = 0.0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            lo = self.bounds[i - 1] if i > 0 else 0.0
            hi = (
                self.bounds[i]
                if i < len(self.bounds)
                else (self.max if self.max is not None else lo)
            )
            if threshold >= hi:
                below += n
                continue
            if threshold > lo and hi > lo:
                below += n * (threshold - lo) / (hi - lo)
            break
        return min(below, float(self.count))

    def fraction_over(self, threshold: float) -> float:
        """Estimated fraction of samples above ``threshold`` — the
        "bad event" rate a latency SLO measures against its target."""
        if self.count == 0:
            return 0.0
        return max(0.0, 1.0 - self.count_below(threshold) / self.count)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        histogram = cls(bounds=data["bounds"])
        histogram.buckets = list(data["buckets"])
        histogram.count = int(data["count"])
        histogram.total = float(data["total"])
        histogram.min = data.get("min")
        histogram.max = data.get("max")
        return histogram

    # -- registry bridge -------------------------------------------------------

    @classmethod
    def from_timing(
        cls, timing: dict, bounds: Optional[Sequence[float]] = None
    ) -> "Histogram":
        """Adopt a registry timing dict (``MetricsRegistry`` shape)."""
        histogram = cls(bounds=bounds if bounds is not None else BOUNDS)
        buckets = list(timing.get("buckets", ()))
        if len(buckets) != len(histogram.buckets):
            raise ValueError(
                f"timing has {len(buckets)} buckets; expected "
                f"{len(histogram.buckets)} for these bounds"
            )
        histogram.buckets = buckets
        histogram.count = int(timing.get("count", 0))
        histogram.total = float(timing.get("total_seconds", 0.0))
        histogram.min = timing.get("min_seconds")
        histogram.max = timing.get("max_seconds")
        return histogram

    def to_timing(self) -> dict:
        """The registry's timing-dict shape (snapshots, deltas, merges)."""
        return {
            "count": self.count,
            "total_seconds": self.total,
            "min_seconds": self.min,
            "max_seconds": self.max,
            "buckets": list(self.buckets),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(count={self.count}, mean={self.mean:.6g}, "
            f"p99={self.quantile(0.99):.6g})"
        )
