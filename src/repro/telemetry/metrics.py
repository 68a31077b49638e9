"""Process-wide metrics registry: counters, gauges, timing histograms.

The registry is a plain-dictionary store that is *always* live — an
increment is two dict operations, cheap enough to leave in hot kernels
unconditionally (unlike spans, which are gated on the recording setting).
It absorbs the ad-hoc statistics that used to live in module-level
dicts: :mod:`repro.join.run_cache` hit/miss tallies, the scatter
kernels' scipy-vs-argsort path counts, and the grouped probes'
dense-vs-searchsorted selection.

Timings are :class:`~repro.telemetry.histogram.Histogram` objects; a
snapshot renders each as the timing dict (``count``, ``total_seconds``,
``min_seconds``, ``max_seconds``, ``buckets``) that deltas, merges, the
Prometheus page and the perf smoke read.

Snapshots are JSON-serializable and mergeable, which is how the
parallel benchmark runner aggregates per-worker tallies: each worker
returns ``registry.delta_since(before)`` for its slice of the work and
the parent merges the deltas — the same code path the serial runner
reads directly.
"""

from __future__ import annotations

import sys as _sys
from typing import Dict, Optional

from repro.context import current as _current

#: Timing-histogram bucket upper bounds in seconds — the shared
#: geometric bounds from :mod:`repro.telemetry.histogram` (4 buckets
#: per decade, 1 µs to 100 s); the last bucket is unbounded. One set of
#: bounds everywhere is what lets registry timings, worker deltas, and
#: percentile reports merge bucket-for-bucket.
from repro.telemetry.histogram import BOUNDS as BUCKET_BOUNDS
from repro.telemetry.histogram import Histogram


class MetricsRegistry:
    """Counters, gauges, and timing histograms keyed by dotted names."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._timings: Dict[str, Histogram] = {}

    # -- writes ---------------------------------------------------------------
    #
    # Every write also lands in each metrics scope of the query context
    # (:mod:`repro.context`): the join service gives each query a fresh
    # child registry there, so per-query snapshots stay clean even when
    # queries on other threads interleave — the concurrency-safe
    # replacement for the serial ``snapshot()``/``delta_since()``
    # pattern, which conflates whatever ran in between. Scope registries
    # are only ever written through this tee.

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + n
        for scope in _current().scopes:
            scope._counters[name] = scope._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = float(value)
        for scope in _current().scopes:
            scope._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration into timing histogram ``name``."""
        for target in (self, *_current().scopes):
            histogram = target._timings.get(name)
            if histogram is None:
                histogram = target._timings[name] = Histogram()
            histogram.observe(seconds)

    # -- reads ----------------------------------------------------------------

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> Dict[str, float]:
        """All counters whose name starts with ``prefix``."""
        return {
            name: value
            for name, value in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def snapshot(self) -> dict:
        """JSON-serializable copy of the whole registry."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "timings": {
                name: histogram.to_timing()
                for name, histogram in self._timings.items()
            },
        }

    def delta_since(self, before: dict) -> dict:
        """Snapshot-shaped difference against an earlier :meth:`snapshot`.

        Counters and timing counts/totals/buckets subtract; gauges and
        timing min/max report the current value (a delta of an extremum
        is not meaningful). This is what a worker process returns per
        unit of work so a parent can :meth:`merge` without double
        counting when the process is reused.
        """
        before_counters = before.get("counters", {})
        counters = {}
        for name, value in self._counters.items():
            diff = value - before_counters.get(name, 0)
            if diff:
                counters[name] = diff
        before_timings = before.get("timings", {})
        timings = {}
        for name, histogram in self._timings.items():
            old = before_timings.get(name)
            if old is not None:
                histogram = histogram.since(Histogram.from_timing(old))
            if histogram.count > 0:
                timings[name] = histogram.to_timing()
        return {
            "counters": counters,
            "gauges": dict(self._gauges),
            "timings": timings,
        }

    # -- maintenance -----------------------------------------------------------

    def merge(self, snapshot: Optional[dict]) -> None:
        """Fold a snapshot (or delta) from another process into this one.

        Counters and timing histograms add, and like every other write
        they tee into the query context's metrics scopes. Gauges are
        last-write-wins
        — **except peak gauges** (any name containing ``peak``), which
        merge via ``max``: a high-water mark like
        ``process.children_peak_rss_bytes`` must survive worker deltas
        arriving in any order, and the biggest worker finishing first
        would otherwise be clobbered by every smaller one after it.
        """
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            if "peak" in name and name in self._gauges:
                value = max(float(value), self._gauges[name])
            self.gauge(name, value)
        targets = (self, *_current().scopes)
        for name, other in snapshot.get("timings", {}).items():
            histogram = Histogram.from_timing(other)
            for target in targets:
                target._timings.setdefault(name, Histogram()).merge(histogram)

    def reset(self, prefix: Optional[str] = None) -> None:
        """Drop all metrics, or only those whose names start with ``prefix``."""
        if prefix is None:
            self._counters.clear()
            self._gauges.clear()
            self._timings.clear()
            return
        for store in (self._counters, self._gauges, self._timings):
            for name in [n for n in store if n.startswith(prefix)]:
                del store[name]


#: The process-wide registry every instrumented module writes to.
registry = MetricsRegistry()


# -- process memory gauges -------------------------------------------------------

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

#: ``ru_maxrss`` is kilobytes on Linux, bytes on macOS.
_RU_MAXRSS_SCALE = 1 if _sys.platform == "darwin" else 1024


def process_peak_rss_bytes(children: bool = False) -> int:
    """This process's (or its reaped children's) peak resident set.

    Monotonic over the process lifetime — the high-water mark the kernel
    tracks, which is exactly what a memory-budget gate wants: a spill
    run whose peak stayed near the budget proves the budget held.
    Returns 0 where ``resource`` is unavailable.
    """
    if _resource is None:  # pragma: no cover - non-POSIX
        return 0
    who = (
        _resource.RUSAGE_CHILDREN if children else _resource.RUSAGE_SELF
    )
    return int(_resource.getrusage(who).ru_maxrss * _RU_MAXRSS_SCALE)


def update_process_gauges(target: Optional[MetricsRegistry] = None) -> dict:
    """Refresh the ``process.*`` memory gauges on ``target`` (default:
    the process-wide registry); returns the values written.

    ``process.peak_rss_bytes`` is this process's high-water mark;
    ``process.children_peak_rss_bytes`` the largest peak among reaped
    child processes (the morsel-pool workers). The perf smoke surfaces
    both per experiment so ``BENCH_history.json`` tracks memory
    alongside time.
    """
    target = target if target is not None else registry
    values = {
        "process.peak_rss_bytes": process_peak_rss_bytes(),
        "process.children_peak_rss_bytes": process_peak_rss_bytes(
            children=True
        ),
    }
    for name, value in values.items():
        target.gauge(name, value)
    return values
