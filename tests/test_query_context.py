"""The query context: one record of a query's ambient state.

The record's fields are set only by ``context.scoped`` and read only
through ``context.current()``; a thread starts at the root record. The
portable part (fault plan, exec config, tags, explain on/off) crosses a
process boundary in ``telemetry.settings()`` and nothing else, which
the bench-worker and pool-worker tests pin down.
"""

from __future__ import annotations

import os
import pathlib
import threading

import pytest

from repro import context, explain, faults, telemetry
from repro.bench.__main__ import _render_one, _worker
from repro.exec import ExecutionConfig, shutdown_pool
from repro.exec import context as exec_context
from repro.service import JoinService
from repro.telemetry import MetricsRegistry, events, registry, tracing

PLANS = pathlib.Path(__file__).parent / "data" / "fault_plans"


def _on_fresh_thread(fn):
    """``fn()``'s return value, computed on a new thread."""
    box = {}

    def target():
        box["current"] = context.current()
        box["value"] = fn()

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(120)
    assert not thread.is_alive()
    return box


class TestRecord:
    def test_root_is_empty(self):
        root = context.ROOT
        assert context.current() is root
        assert root.fault_plan is None and root.exec_config is None
        assert root.scopes == () and root.tags == {}
        assert root.explain is None and root.notes is None

    def test_scopes_nest_and_restore(self):
        plan = faults.FaultPlan(seed=1)
        config = ExecutionConfig(force=True)
        with faults.injected(plan):
            with exec_context.configured(config):
                assert faults.active() is plan
                assert exec_context.active() is config
                with faults.injected(None):
                    assert faults.active() is None
                    assert exec_context.active() is config
                assert faults.active() is plan
            assert exec_context.active() is None
        assert context.current() is context.ROOT

    def test_new_threads_start_at_the_root(self):
        with context.scoped(tags={"query": "q1"}, explain=[]):
            box = _on_fresh_thread(lambda: None)
        assert box["current"] is context.ROOT

    def test_metrics_tee_into_every_scope(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with context.scoped(scopes=(outer,)):
            registry.count("ctx.test")
            with context.scoped(scopes=(outer, inner)):
                registry.count("ctx.test", 2)
                registry.observe("ctx.test_seconds", 0.5)
        registry.count("ctx.test")
        assert outer.counter("ctx.test") == 3
        assert inner.counter("ctx.test") == 2
        assert inner.snapshot()["timings"]["ctx.test_seconds"]["count"] == 1
        registry.reset("ctx.")

    def test_tags_merge_under_explicit_fields(self):
        telemetry.set_recording(telemetry.EVENTS)
        try:
            with context.scoped(tags={"query": "q7", "operator": "x"}):
                event = telemetry.emit_event("run.start", operator="mine")
        finally:
            telemetry.set_recording(telemetry.OFF)
            tracing.reset()
        assert event["query"] == "q7"
        assert event["operator"] == "mine"

    def test_settings_ship_the_portable_part_only(self):
        plan = faults.FaultPlan(seed=3)
        with context.scoped(
            fault_plan=plan,
            scopes=(MetricsRegistry(),),
            tags={"query": "q1"},
            explain=[],
            notes=[{"mode": "memory"}],
        ):
            shipped = telemetry.settings()["query"]
        assert shipped == {
            "fault_plan": plan,
            "exec_config": None,
            "tags": {"query": "q1"},
            "explain": True,
        }
        with telemetry.capture({"query": shipped}):
            adopted = context.current()
            assert adopted.fault_plan is plan
            assert adopted.scopes == ()
            assert adopted.explain == [] and adopted.notes == []


def _table(output: str) -> str:
    """Rendered tables without the wall-clock line."""
    return "\n".join(
        line for line in output.splitlines() if not line.startswith("[fig13:")
    )


class TestBenchWorker:
    SIZES = (128, 512)
    DIVISOR = 1048576.0

    def test_record_travels_through_settings_alone(self):
        plan = faults.FaultPlan.load(PLANS / "nvlink_brownout.json")
        config = ExecutionConfig(force=True)
        with context.scoped(
            fault_plan=plan, exec_config=config, explain=[], notes=[]
        ):
            job = telemetry.settings()
            faulted, _ = _render_one("fig13", self.SIZES, self.DIVISOR)
        clean, _ = _render_one("fig13", self.SIZES, self.DIVISOR)

        # The worker thread has no ambient state: only ``job`` carries
        # the plan, the config and the explain switch.
        box = _on_fresh_thread(
            lambda: _worker("fig13", self.SIZES, self.DIVISOR, False, job)
        )
        assert box["current"] is context.ROOT
        name, output, _, envelope, explanations = box["value"]
        assert name == "fig13"
        assert _table(output) == _table(faulted)
        assert _table(output) != _table(clean)
        assert explanations
        for run_dict in explanations:
            assert explain.ExplainedRun.from_dict(run_dict).verify() == []
        # The forced config ran the worker's joins out of core.
        assert envelope["metrics"]["counters"]["exec.oc.joins"] > 0


class TestPoolWorkerTags:
    def test_morsel_events_carry_the_query_tag(self):
        spec = {
            "name": "pooled",
            "workload": {
                "build_m_tuples": 64,
                "probe_m_tuples": 64,
                "scale_divisor": 65536,
                "seed": 4,
            },
            "root": {
                "op": "join",
                "algorithm": "triton",
                "build": {"op": "scan", "relation": "build"},
                "probe": {"op": "scan", "relation": "probe"},
            },
        }
        config = ExecutionConfig(workers=2, force=True, morsel_rows=1024)
        telemetry.set_recording(telemetry.EVENTS)
        tracing.reset()
        service = JoinService(workers=2)
        try:
            handle = service.submit(spec, exec_config=config)
            handle.result(timeout=120)
            recorded = tracing.events()
        finally:
            service.shutdown(wait=True)
            shutdown_pool()
            telemetry.set_recording(telemetry.OFF)
            tracing.reset()

        grouped = events.by_query(recorded)
        morsels = [
            event for event in recorded if event["type"] == "morsel.dispatched"
        ]
        assert morsels, "the query should have run morsels on the pool"
        assert all(event["pid"] != os.getpid() for event in morsels)
        tagged = [
            event
            for event in grouped[handle.id]
            if event["type"] == "morsel.dispatched"
        ]
        assert tagged == morsels


@pytest.mark.parametrize("explain_on", [False, True])
def test_capture_restores_the_caller_record(explain_on):
    with context.scoped(explain=[] if explain_on else None) as record:
        with telemetry.capture():
            assert context.current() is not record
        assert context.current() is record
