"""Pins the metrics registry's snapshot, delta and merge documents.

``--metrics`` files, the Prometheus ``_bucket`` lines, perf_smoke's
percentiles and the worker capture envelopes all read the timing-dict
shape, so these tests spell out whole documents for one fixed sequence
of writes rather than probing single fields.
"""

from repro import context
from repro.telemetry.metrics import MetricsRegistry

#: Bucket count of the shared geometric bounds (33 bounds + overflow).
BUCKETS = 34


def buckets(**at):
    """A bucket list with ``at={"i<index>": n}`` counts, zeros elsewhere."""
    out = [0] * BUCKETS
    for key, n in at.items():
        out[int(key[1:])] = n
    return out


def timing(count, total, low, high, **at):
    return {
        "count": count,
        "total_seconds": total,
        "min_seconds": low,
        "max_seconds": high,
        "buckets": buckets(**at),
    }


def _written():
    registry = MetricsRegistry()
    registry.count("run_cache.hits")
    registry.count("run_cache.hits", 2)
    registry.gauge("exec.pool.occupancy", 3)
    # 0.5 -> bucket 23, 1.0 sits exactly on bound 24 (le), 500 overflows.
    for seconds in (0.5, 1.0, 0.25, 500.0, 0.5):
        registry.observe("join.run_seconds", seconds)
    registry.observe("bench.experiment_seconds", 0.001)
    return registry


SNAPSHOT = {
    "counters": {"run_cache.hits": 3},
    "gauges": {"exec.pool.occupancy": 3.0},
    "timings": {
        "join.run_seconds": timing(
            5, 502.25, 0.25, 500.0, i22=1, i23=2, i24=1, i33=1
        ),
        "bench.experiment_seconds": timing(1, 0.001, 0.001, 0.001, i12=1),
    },
}


class TestSnapshot:
    def test_document(self):
        assert _written().snapshot() == SNAPSHOT

    def test_snapshot_is_a_copy(self):
        registry = _written()
        snapshot = registry.snapshot()
        snapshot["timings"]["join.run_seconds"]["buckets"][0] = 99
        snapshot["timings"]["join.run_seconds"]["count"] = 99
        assert registry.snapshot() == SNAPSHOT

    def test_empty_registry(self):
        assert MetricsRegistry().snapshot() == {
            "counters": {},
            "gauges": {},
            "timings": {},
        }


class TestDelta:
    def test_document(self):
        registry = _written()
        before = registry.snapshot()
        registry.count("run_cache.misses")
        registry.observe("join.run_seconds", 2.0)
        registry.observe("join.run_seconds", 0.125)
        assert registry.delta_since(before) == {
            # Unchanged counters drop out; new ones appear.
            "counters": {"run_cache.misses": 1},
            "gauges": {"exec.pool.occupancy": 3.0},
            # A timing with no new samples is absent (a zero-count
            # delta); min/max report the current extremes, not the
            # delta's.
            "timings": {
                "join.run_seconds": timing(
                    2, 504.375 - 502.25, 0.125, 500.0, i21=1, i26=1
                ),
            },
        }

    def test_zero_count_delta_is_empty(self):
        registry = _written()
        assert registry.delta_since(registry.snapshot()) == {
            "counters": {},
            "gauges": {"exec.pool.occupancy": 3.0},
            "timings": {},
        }

    def test_against_empty_before(self):
        assert _written().delta_since({}) == SNAPSHOT


class TestMerge:
    def test_into_empty(self):
        registry = MetricsRegistry()
        registry.merge(SNAPSHOT)
        assert registry.snapshot() == SNAPSHOT

    def test_adds_and_widens(self):
        registry = _written()
        registry.merge(
            {
                "counters": {"run_cache.hits": 4},
                "gauges": {"exec.pool.occupancy": 0.5},
                "timings": {
                    "join.run_seconds": timing(
                        1, 1e-07, 1e-07, 1e-07, i0=1
                    ),
                },
            }
        )
        assert registry.snapshot() == {
            "counters": {"run_cache.hits": 7},
            "gauges": {"exec.pool.occupancy": 0.5},
            "timings": {
                "join.run_seconds": timing(
                    6, 502.25 + 1e-07, 1e-07, 500.0,
                    i0=1, i22=1, i23=2, i24=1, i33=1,
                ),
                "bench.experiment_seconds": timing(
                    1, 0.001, 0.001, 0.001, i12=1
                ),
            },
        }

    def test_none_extremes_keep_current(self):
        registry = _written()
        registry.merge(
            {"timings": {"join.run_seconds": timing(0, 0.0, None, None)}}
        )
        assert registry.snapshot() == SNAPSHOT

    def test_none_extremes_into_new_timing(self):
        registry = MetricsRegistry()
        registry.merge({"timings": {"x": timing(0, 0.0, None, None)}})
        assert registry.snapshot()["timings"] == {
            "x": timing(0, 0.0, None, None)
        }

    def test_peak_gauges_keep_the_maximum(self):
        registry = MetricsRegistry()
        registry.merge({"gauges": {"process.peak_rss_bytes": 9}})
        registry.merge({"gauges": {"process.peak_rss_bytes": 4}})
        registry.merge({"gauges": {"exec.pool.occupancy": 9}})
        registry.merge({"gauges": {"exec.pool.occupancy": 4}})
        assert registry.snapshot()["gauges"] == {
            "process.peak_rss_bytes": 9.0,
            "exec.pool.occupancy": 4.0,
        }

    def test_none_and_empty_are_no_ops(self):
        registry = _written()
        registry.merge(None)
        registry.merge({})
        assert registry.snapshot() == SNAPSHOT


class TestScopedTee:
    def test_scope_sees_only_writes_inside_it(self):
        parent, scope = MetricsRegistry(), MetricsRegistry()
        parent.observe("join.run_seconds", 2.0)
        with context.scoped(scopes=(scope,)):
            parent.count("run_cache.hits")
            parent.gauge("exec.pool.occupancy", 1)
            parent.observe("join.run_seconds", 0.5)
            parent.merge(
                {"timings": {"join.run_seconds": timing(1, 1.0, 1.0, 1.0, i24=1)}}
            )
        parent.count("run_cache.hits")
        # Merged counters, gauges and timings tee into the scope too.
        assert scope.snapshot() == {
            "counters": {"run_cache.hits": 1},
            "gauges": {"exec.pool.occupancy": 1.0},
            "timings": {
                "join.run_seconds": timing(2, 1.5, 0.5, 1.0, i23=1, i24=1)
            },
        }
        assert parent.snapshot() == {
            "counters": {"run_cache.hits": 2},
            "gauges": {"exec.pool.occupancy": 1.0},
            "timings": {
                "join.run_seconds": timing(
                    3, 3.5, 0.5, 2.0, i23=1, i24=1, i26=1
                )
            },
        }
