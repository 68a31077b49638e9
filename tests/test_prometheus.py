"""Prometheus exposition: naming, histogram triplets, validation."""

import pytest

from repro.telemetry import metrics as metrics_mod
from repro.telemetry.prometheus import (
    metric_name,
    parse_prometheus,
    prometheus_document,
    validate_prometheus,
)


@pytest.fixture
def registry():
    return metrics_mod.MetricsRegistry()


class TestNaming:
    def test_dots_flatten_under_prefix(self):
        assert metric_name("run_cache.hits") == "repro_run_cache_hits"
        assert (
            metric_name("exec.pool.jobs", "_total")
            == "repro_exec_pool_jobs_total"
        )

    def test_invalid_chars_become_underscores(self):
        assert metric_name("a-b c.d") == "repro_a_b_c_d"


class TestDocument:
    def test_counters_get_total_suffix(self, registry):
        registry.count("run_cache.hits", 3)
        samples = parse_prometheus(prometheus_document(registry))
        assert samples["repro_run_cache_hits_total"] == 3.0

    def test_gauges_keep_bare_name(self, registry):
        registry.gauge("exec.pool.occupancy", 0.75)
        samples = parse_prometheus(prometheus_document(registry))
        assert samples["repro_exec_pool_occupancy"] == 0.75

    def test_timing_renders_cumulative_histogram_triplet(self, registry):
        for seconds in (0.001, 0.01, 0.01, 5.0):
            registry.observe("bench.experiment_seconds", seconds)
        document = prometheus_document(registry)
        assert validate_prometheus(document) == []
        samples = parse_prometheus(document)
        base = "repro_bench_experiment_seconds"
        assert samples[f"{base}_count"] == 4.0
        assert samples[f"{base}_sum"] == pytest.approx(5.021)
        assert samples[f'{base}_bucket{{le="+Inf"}}'] == 4.0
        buckets = sorted(
            (
                float("inf") if "+Inf" in key else float(key.split('"')[1]),
                value,
            )
            for key, value in samples.items()
            if key.startswith(f"{base}_bucket")
        )
        values = [value for _, value in buckets]
        assert values == sorted(values)  # cumulative

    def test_empty_registry_renders_empty_document(self, registry):
        assert prometheus_document(registry) == ""

    def test_validate_catches_non_cumulative_buckets(self):
        bad = (
            'repro_x_bucket{le="0.1"} 5\n'
            'repro_x_bucket{le="1"} 3\n'
            'repro_x_bucket{le="+Inf"} 5\n'
            "repro_x_sum 1\n"
            "repro_x_count 5\n"
        )
        problems = validate_prometheus(bad)
        assert any("not cumulative" in p for p in problems)

    def test_validate_catches_missing_inf_bucket(self):
        bad = (
            'repro_x_bucket{le="1"} 3\n'
            "repro_x_sum 1\nrepro_x_count 3\n"
        )
        assert any(
            "+Inf" in p for p in validate_prometheus(bad)
        )

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a sample"):
            parse_prometheus("this is { not } prometheus at all }{")


class TestLabels:
    """The validator parses label sets (``le`` and any other label)."""

    def test_validator_distinguishes_label_sets(self):
        # Two label sets of the same histogram validate independently:
        # a count mismatch in one is attributed to that series.
        document = (
            'repro_w_bucket{queue="a",le="+Inf"} 2\n'
            'repro_w_sum{queue="a"} 1\n'
            'repro_w_count{queue="a"} 2\n'
            'repro_w_bucket{queue="b",le="+Inf"} 4\n'
            'repro_w_sum{queue="b"} 1\n'
            'repro_w_count{queue="b"} 3\n'
        )
        problems = validate_prometheus(document)
        assert any('queue="b"' in p or "queue=b" in p for p in problems)
        assert not any('queue="a"' in p and "count" in p for p in problems)
