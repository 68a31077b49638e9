"""Unit tests for repro.telemetry: spans, metrics, exporters, CLI wiring."""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.bench.__main__ import main as cli_main
from repro.data.generator import generate_workload
from repro.join import TritonJoin, run_cache
from repro.telemetry.export import (
    SIM_PID_BASE,
    chrome_trace_document,
    validate_chrome_trace,
)
from repro.telemetry import tracing
from repro.telemetry.metrics import MetricsRegistry


def _root(name: str = "test"):
    """A trace root: spans only record under one."""
    return tracing.trace_query(tracing.derive_trace_id(name), name=name)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with telemetry disabled and empty."""
    telemetry.set_recording(telemetry.OFF)
    telemetry.reset()
    yield
    telemetry.set_recording(telemetry.OFF)
    telemetry.reset()


class TestDisabledMode:
    def test_span_is_shared_noop(self):
        assert telemetry.span("anything", x=1) is telemetry.NULL_SPAN
        assert telemetry.span("other") is telemetry.NULL_SPAN

    def test_noop_span_accepts_protocol(self):
        with telemetry.span("a", n=3) as sp:
            sp.set(path="dense")
        assert tracing.records() == []

    def test_annotate_is_noop(self):
        telemetry.annotate(path="dense")  # must not raise
        assert tracing.records() == []

    def test_add_sim_result_is_noop(self):
        class Fake:
            trace = []
            makespan_seconds = 0.0

        telemetry.add_sim_result(Fake())
        assert tracing.tracks() == []


class TestSpans:
    def test_nesting_records_depth_and_parent(self):
        telemetry.set_recording(telemetry.SPANS)
        with _root():
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    assert telemetry.current_path() == "test / outer / inner"
        spans = {r["name"]: r for r in tracing.records()}
        assert spans["test"]["parent"] is None
        assert spans["outer"]["parent"] == spans["test"]["span"]
        assert spans["inner"]["parent"] == spans["outer"]["span"]
        assert spans["inner"]["ts"] >= spans["outer"]["ts"]
        assert (
            spans["inner"]["ts"] + spans["inner"]["dur"]
            <= spans["outer"]["ts"] + spans["outer"]["dur"]
        )

    def test_attrs_via_kwargs_set_and_annotate(self):
        telemetry.set_recording(telemetry.SPANS)
        with _root():
            with telemetry.span("k", n=5) as sp:
                sp.set(path="dense")
                telemetry.annotate(hits=2)
        spans = {r["name"]: r for r in tracing.records()}
        assert spans["k"]["attrs"] == {"n": 5, "path": "dense", "hits": 2}

    def test_exception_unwinds_open_spans(self):
        telemetry.set_recording(telemetry.SPANS)
        with _root():
            with pytest.raises(ValueError):
                with telemetry.span("outer"):
                    with telemetry.span("inner"):
                        raise ValueError("boom")
            assert telemetry.current_path() == "test"
        assert {r["name"] for r in tracing.records()} == {
            "test",
            "outer",
            "inner",
        }

    def test_span_tree_nesting(self):
        telemetry.set_recording(telemetry.SPANS)
        with _root():
            with telemetry.span("outer", tuples=8):
                with telemetry.span("inner"):
                    pass
        spans = {r["name"]: r for r in tracing.records()}
        assert spans["test"]["parent"] is None
        assert spans["outer"]["parent"] == spans["test"]["span"]
        assert spans["inner"]["parent"] == spans["outer"]["span"]
        assert spans["outer"]["attrs"] == {"tuples": 8}

    def test_chrome_export_contains_nested_events(self):
        telemetry.set_recording(telemetry.SPANS)
        with _root():
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
        doc = chrome_trace_document()
        assert validate_chrome_trace(doc) == []
        events = {
            e["name"]: e for e in doc["traceEvents"] if e.get("ph") == "X"
        }
        outer, inner = events["outer"], events["inner"]
        assert outer["cat"] == inner["cat"] == "trace"
        assert inner["ts"] >= outer["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 0.01


class TestMetrics:
    def test_count_gauge_observe(self):
        reg = MetricsRegistry()
        reg.count("a.hits")
        reg.count("a.hits", 2)
        reg.gauge("a.level", 0.5)
        reg.observe("a.seconds", 0.25)
        snap = reg.snapshot()
        assert snap["counters"] == {"a.hits": 3}
        assert snap["gauges"] == {"a.level": 0.5}
        assert snap["timings"]["a.seconds"]["count"] == 1
        assert snap["timings"]["a.seconds"]["total_seconds"] == 0.25

    def test_counters_prefix_filter(self):
        reg = MetricsRegistry()
        reg.count("x.one")
        reg.count("y.two")
        assert reg.counters("x.") == {"x.one": 1}
        assert reg.counter("missing") == 0

    def test_delta_since_ignores_earlier_work(self):
        reg = MetricsRegistry()
        reg.count("k", 5)
        reg.observe("t", 1.0)
        before = reg.snapshot()
        reg.count("k", 2)
        reg.observe("t", 3.0)
        delta = reg.delta_since(before)
        assert delta["counters"] == {"k": 2}
        assert delta["timings"]["t"]["count"] == 1
        assert delta["timings"]["t"]["total_seconds"] == pytest.approx(3.0)

    def test_merge_folds_snapshot(self):
        reg = MetricsRegistry()
        reg.count("k", 1)
        other = MetricsRegistry()
        other.count("k", 2)
        other.observe("t", 0.5)
        reg.merge(other.snapshot())
        assert reg.counter("k") == 3
        assert reg.snapshot()["timings"]["t"]["count"] == 1

    def test_reset_prefix_only(self):
        reg = MetricsRegistry()
        reg.count("run_cache.hits")
        reg.count("kernels.calls")
        reg.reset(prefix="run_cache.")
        assert reg.counter("run_cache.hits") == 0
        assert reg.counter("kernels.calls") == 1


class TestMultiprocessMerge:
    def test_absorbed_snapshot_exports_as_own_process(self):
        telemetry.set_recording(telemetry.SPANS)
        trace_id = tracing.derive_trace_id("test")
        root = tracing.root_span_id(trace_id, "test")
        with _root():
            with telemetry.span("local"):
                pass
        worker = {
            "records": [
                {
                    "trace": trace_id,
                    "span": tracing.derive_span_id(trace_id, root, "remote", 0),
                    "parent": root,
                    "name": "remote",
                    "ts": tracing.wall_now(),
                    "dur": 0.5,
                    "pid": 4242,
                    "attrs": {"experiment": "fig13"},
                },
                {
                    "label": "worker sim",
                    "makespan_seconds": 1.0,
                    "entries": [("join[0]", "Join", 0.0, 1.0)],
                    "trace": trace_id,
                    "pid": 4242,
                }
            ],
        }
        telemetry.absorb(worker)
        doc = chrome_trace_document()
        assert validate_chrome_trace(doc) == []
        complete = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        pids = {e["pid"] for e in complete}
        assert 4242 in pids
        assert any(pid >= SIM_PID_BASE for pid in pids)
        assert len(pids) >= 3  # local host, worker host, worker sim track

    def test_drain_prevents_double_reporting(self):
        telemetry.set_recording(telemetry.SPANS)
        with telemetry.capture() as first:
            with _root("first"):
                pass
        assert [s["name"] for s in first["records"]] == ["first"]
        with telemetry.capture() as second:
            with _root("second"):
                pass
        assert [s["name"] for s in second["records"]] == ["second"]
        assert tracing.records() == []

    def test_registry_delta_merge_roundtrip(self):
        telemetry.registry.count("run_cache.hits", 3)
        before = telemetry.registry.snapshot()
        telemetry.registry.count("run_cache.hits", 4)
        delta = telemetry.registry.delta_since(before)
        fresh = MetricsRegistry()
        fresh.merge(delta)
        assert fresh.counter("run_cache.hits") == 4


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []
        assert validate_chrome_trace({"nope": 1}) != []

    def test_flags_missing_keys_and_negatives(self):
        doc = {
            "traceEvents": [
                {"ph": "X", "name": "a", "ts": 0, "dur": 1, "pid": 1},
                {
                    "ph": "X",
                    "name": "b",
                    "ts": -1,
                    "dur": 1,
                    "pid": 1,
                    "tid": 1,
                },
            ]
        }
        problems = validate_chrome_trace(doc)
        assert any("missing" in p for p in problems)
        assert any("negative ts" in p for p in problems)

    def test_flags_host_overlap_without_nesting(self):
        doc = {
            "traceEvents": [
                {
                    "ph": "X", "name": "a", "cat": "trace",
                    "ts": 0, "dur": 100, "pid": 1, "tid": 1,
                },
                {
                    "ph": "X", "name": "b", "cat": "trace",
                    "ts": 50, "dur": 100, "pid": 1, "tid": 1,
                },
            ]
        }
        assert any(
            "overlaps" in p for p in validate_chrome_trace(doc)
        )

    def test_sim_overlap_is_legal(self):
        doc = {
            "traceEvents": [
                {
                    "ph": "X", "name": "a", "cat": "sim",
                    "ts": 0, "dur": 100, "pid": SIM_PID_BASE, "tid": 1,
                },
                {
                    "ph": "X", "name": "b", "cat": "sim",
                    "ts": 50, "dur": 100, "pid": SIM_PID_BASE, "tid": 2,
                },
            ]
        }
        assert validate_chrome_trace(doc) == []

    def test_empty_trace_is_a_problem(self):
        assert validate_chrome_trace({"traceEvents": []}) != []


class TestOperatorInstrumentation:
    def test_run_wrapper_spans_and_sim_track(self, system):
        telemetry.set_recording(telemetry.SPANS)
        workload = generate_workload(128, 512, scale_divisor=65536)
        with _root():
            TritonJoin(system).run(workload)
        names = [r["name"] for r in tracing.records()]
        assert any(n.startswith("run:") for n in names)
        assert "functional" in names
        assert "simulate" in names
        assert "batched_radix_join" in names
        (track,) = tracing.tracks()
        assert track["label"] == "test / run:GPU Triton Join / simulate"
        doc = chrome_trace_document()
        assert validate_chrome_trace(doc) == []

    def test_run_cache_annotates_hit(self, system):
        telemetry.set_recording(telemetry.SPANS)
        run_cache.enable()
        try:
            workload = generate_workload(128, 512, scale_divisor=65536)
            op = TritonJoin(system)
            with _root():
                op.run(workload)
                op.run(workload)
        finally:
            run_cache.disable()
            run_cache.clear()
        run_spans = [
            r for r in tracing.records() if r["name"].startswith("run:")
        ]
        assert [r["attrs"].get("run_cache") for r in run_spans] == [
            "miss",
            "hit",
        ]

    def test_disabled_run_records_nothing(self, system):
        workload = generate_workload(128, 512, scale_divisor=65536)
        with _root():
            TritonJoin(system).run(workload)
        assert tracing.records() == []
        assert tracing.tracks() == []


class TestBenchCliTrace:
    def test_trace_and_metrics_files(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = cli_main(
            [
                "fig13",
                "--sizes", "128",
                "--divisor", "1048576",
                "--trace", str(trace_path),
                "--metrics", str(metrics_path),
            ]
        )
        assert code == 0
        doc = json.loads(trace_path.read_text())
        assert validate_chrome_trace(doc) == []
        complete = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert any(e.get("cat") == "trace" for e in complete)
        assert any(e["pid"] >= SIM_PID_BASE for e in complete)
        assert any(
            e["name"].startswith("experiment:fig13") for e in complete
        )
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"].get("run_cache.misses", 0) > 0

    def test_cli_leaves_telemetry_disabled(self, tmp_path):
        cli_main(
            [
                "fig13",
                "--sizes", "128",
                "--divisor", "1048576",
                "--trace", str(tmp_path / "t.json"),
            ]
        )
        assert telemetry.recording() == telemetry.OFF
        assert tracing.records() == []


class TestCounterTracks:
    """Per-resource utilization counter (ph "C") events on sim tracks."""

    def test_sim_track_emits_counter_events(self, system):
        telemetry.set_recording(telemetry.SPANS)
        workload = generate_workload(128, 512, scale_divisor=65536)
        with _root():
            TritonJoin(system).run(workload)
        doc = chrome_trace_document()
        assert validate_chrome_trace(doc) == []
        counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert counters, "sim track should carry utilization counters"
        names = {e["name"] for e in counters}
        assert any(name.startswith("util:nvlink") for name in names)
        assert all(e["pid"] >= SIM_PID_BASE for e in counters)

    def test_counter_samples_are_valid_utilization(self, system):
        telemetry.set_recording(telemetry.SPANS)
        workload = generate_workload(128, 512, scale_divisor=65536)
        with _root():
            TritonJoin(system).run(workload)
        doc = chrome_trace_document()
        counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert counters
        for event in counters:
            for value in event["args"].values():
                assert 0.0 <= value <= 1.0 + 1e-9

    def test_counters_survive_snapshot_roundtrip(self, system):
        telemetry.set_recording(telemetry.SPANS)
        workload = generate_workload(128, 512, scale_divisor=65536)
        with telemetry.capture() as envelope:
            with _root():
                TritonJoin(system).run(workload)
        assert tracing.tracks() == []
        telemetry.absorb(envelope)
        doc = chrome_trace_document()
        assert validate_chrome_trace(doc) == []
        assert any(e.get("ph") == "C" for e in doc["traceEvents"])

    def test_fake_result_without_occupancy_still_works(self):
        telemetry.set_recording(telemetry.SPANS)

        class Fake:
            trace = []
            makespan_seconds = 1.0

        with _root():
            telemetry.add_sim_result(Fake(), label="fake")
        (track,) = tracing.tracks()
        assert "counters" not in track


class TestCounterValidation:
    def _counter(self, **overrides):
        event = {
            "ph": "C",
            "name": "util:nvlink_to_gpu",
            "ts": 0.0,
            "pid": SIM_PID_BASE,
            "tid": 0,
            "args": {"utilization": 0.5},
        }
        event.update(overrides)
        return event

    def _doc(self, counter):
        anchor = {
            "ph": "X", "name": "a", "cat": "sim",
            "ts": 0, "dur": 1, "pid": SIM_PID_BASE, "tid": 1,
        }
        return {"traceEvents": [counter, anchor]}

    def test_valid_counter_passes(self):
        assert validate_chrome_trace(self._doc(self._counter())) == []

    def test_missing_args_flagged(self):
        event = self._counter()
        del event["args"]
        problems = validate_chrome_trace(self._doc(event))
        assert any("missing" in p for p in problems)

    def test_empty_args_flagged(self):
        problems = validate_chrome_trace(self._doc(self._counter(args={})))
        assert any("no sample values" in p for p in problems)

    def test_negative_sample_rejected(self):
        problems = validate_chrome_trace(
            self._doc(self._counter(args={"utilization": -0.1}))
        )
        assert any("negative" in p for p in problems)

    def test_nan_sample_rejected(self):
        problems = validate_chrome_trace(
            self._doc(self._counter(args={"utilization": float("nan")}))
        )
        assert any("not finite" in p for p in problems)

    def test_infinite_sample_rejected(self):
        problems = validate_chrome_trace(
            self._doc(self._counter(args={"utilization": float("inf")}))
        )
        assert any("not finite" in p for p in problems)

    def test_non_numeric_sample_rejected(self):
        problems = validate_chrome_trace(
            self._doc(self._counter(args={"utilization": "busy"}))
        )
        assert any("not numeric" in p for p in problems)

    def test_negative_counter_ts_rejected(self):
        problems = validate_chrome_trace(self._doc(self._counter(ts=-1.0)))
        assert any("negative ts" in p for p in problems)


class TestPeakGaugeMerge:
    def test_peak_gauges_merge_via_max(self):
        """Out-of-order worker deltas must not regress a peak gauge.

        ``process.peak_rss_bytes`` is a high-water mark: if the worker
        that peaked higher reports *first*, last-write-wins merging
        would let the later, smaller delta overwrite the fleet peak.
        """
        reg = MetricsRegistry()
        high = MetricsRegistry()
        high.gauge("process.peak_rss_bytes", 900.0)
        low = MetricsRegistry()
        low.gauge("process.peak_rss_bytes", 400.0)
        # The higher peak arrives first — deliberately out of order.
        reg.merge(high.snapshot())
        reg.merge(low.snapshot())
        assert reg.snapshot()["gauges"]["process.peak_rss_bytes"] == 900.0

    def test_non_peak_gauges_keep_last_write_wins(self):
        reg = MetricsRegistry()
        first = MetricsRegistry()
        first.gauge("exec.pool.occupancy", 0.9)
        second = MetricsRegistry()
        second.gauge("exec.pool.occupancy", 0.3)
        reg.merge(first.snapshot())
        reg.merge(second.snapshot())
        # A point-in-time gauge reports the latest observation.
        assert reg.snapshot()["gauges"]["exec.pool.occupancy"] == 0.3


class TestInstantValidation:
    def _doc(self, event):
        anchor = {
            "ph": "X", "name": "a", "cat": "host",
            "ts": 0, "dur": 1, "pid": 1, "tid": 0,
        }
        return {"traceEvents": [event, anchor]}

    def _instant(self, **overrides):
        event = {
            "name": "fault.injected",
            "cat": "recorder",
            "ph": "i",
            "s": "p",
            "ts": 10.0,
            "pid": 1,
            "tid": 0,
        }
        event.update(overrides)
        return event

    def test_valid_instant_passes(self):
        assert validate_chrome_trace(self._doc(self._instant())) == []

    def test_missing_keys_flagged(self):
        problems = validate_chrome_trace(
            self._doc({"ph": "i", "name": "x"})
        )
        assert any("missing" in p for p in problems)

    def test_negative_ts_flagged(self):
        problems = validate_chrome_trace(self._doc(self._instant(ts=-1.0)))
        assert any("negative ts" in p for p in problems)

    def test_bad_scope_flagged(self):
        problems = validate_chrome_trace(self._doc(self._instant(s="z")))
        assert any("scope" in p for p in problems)

    def test_recorder_instants_render_from_events(self):
        from repro.telemetry.export import recorder_instant_events

        telemetry.set_recording(telemetry.SPANS)
        with _root("experiment:x"):
            telemetry.emit_event("fault.injected", kind="k", target="t")
            telemetry.emit_event("run.start", operator="op")  # not an instant
        (root,) = tracing.records()
        instants = recorder_instant_events(root["ts"])
        assert [e["name"] for e in instants] == ["fault.injected"]
        instant = instants[0]
        assert instant["ph"] == "i"
        assert instant["cat"] == "recorder"
        assert instant["s"] == "p"
        assert instant["ts"] >= 0
        assert instant["args"]["kind"] == "k"
