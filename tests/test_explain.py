"""Unit tests for repro.explain: attribution invariants, fig14
cross-checks, fault-aware critical paths, run diffs, and the CLI hooks."""

from __future__ import annotations

import json

import pytest

from repro import context, explain, faults, telemetry
from repro.bench.__main__ import _worker, main as cli_main
from repro.data.generator import generate_workload
from repro.explain.bounds import classify, resource_class
from repro.explain.critical_path import critical_path, slack_by_task
from repro.explain.timeline import utilization_timeline
from repro.join import NoPartitioningJoin, TritonJoin
from repro.sim.trace import TaskRecord, TraceEntry
from repro.telemetry import tracing


@pytest.fixture(autouse=True)
def clean_state():
    telemetry.set_recording(telemetry.OFF)
    telemetry.reset()
    yield
    telemetry.set_recording(telemetry.OFF)
    telemetry.reset()


@pytest.fixture(scope="module")
def workload():
    return generate_workload(128, 128, scale_divisor=65536)


@pytest.fixture(scope="module")
def triton_run(system, workload):
    return TritonJoin(system).run(workload)


@pytest.fixture(scope="module")
def explained(triton_run):
    return explain.explain(triton_run.sim, label="triton")


RETRY_PLAN = faults.FaultPlan(
    seed=7,
    tasks=(
        faults.TaskFault(match="join[*]", probability=1.0, max_failures=2),
    ),
    retry=faults.RetryPolicy(),
)


class TestInvariants:
    def test_verify_is_clean(self, explained):
        assert explained.verify() == []

    def test_critical_path_attributes_makespan_exactly(self, explained):
        # The path's waits + spans telescope over [0, makespan]: the
        # acceptance gate is exact equality, not approximation.
        assert (
            explained.critical_path_seconds == explained.makespan_seconds
        )

    def test_bound_seconds_sum_to_makespan(self, explained):
        total = sum(explained.seconds_by_bound.values())
        assert total == pytest.approx(
            explained.makespan_seconds, abs=1e-9 * explained.makespan_seconds
        )

    def test_timeline_covers_makespan_contiguously(self, explained):
        for name, segments in explained.timeline.items():
            assert segments[0][0] == 0.0
            assert segments[-1][1] == pytest.approx(
                explained.makespan_seconds
            )
            for (_, prev_end, _), (start, _, _) in zip(
                segments, segments[1:]
            ):
                assert start == prev_end

    def test_critical_tasks_have_zero_slack(self, explained):
        for step in explained.critical_path:
            slack = explained.slack_seconds[step.record.name]
            assert slack == pytest.approx(0.0, abs=1e-9)

    def test_all_slack_non_negative(self, explained):
        assert all(s >= -1e-12 for s in explained.slack_seconds.values())


class TestFig14CrossCheck:
    def test_interconnect_utilization_matches_fig14(self, triton_run):
        # The acceptance criterion: the explain-derived utilization
        # reproduces the fig14 table's value from the same single run.
        ex = explain.explain(triton_run.sim)
        assert ex.interconnect_utilization_75 == pytest.approx(
            triton_run.interconnect_utilization, rel=1e-12
        )

    def test_average_utilization_matches_engine_integrals(self, triton_run):
        # The timeline integrates the same draws the engine accumulates
        # into resource_busy_units; both views must agree.
        sim = triton_run.sim
        ex = explain.explain(sim)
        for name, capacity in sim.resource_capacities.items():
            expected = (
                sim.resource_busy_units.get(name, 0.0)
                / capacity
                / sim.makespan_seconds
            )
            assert ex.average_utilization[name] == pytest.approx(
                expected, abs=1e-9
            )

    def test_utilization_within_unit_interval(self, explained):
        for name, value in explained.average_utilization.items():
            assert 0.0 <= value <= 1.0 + 1e-9


class TestCriticalPath:
    def test_path_is_dependency_connected(self, triton_run):
        ex = explain.explain(triton_run.sim)
        for earlier, later in zip(ex.critical_path, ex.critical_path[1:]):
            assert (
                earlier.record.task_id in later.record.dep_ids
                or later.wait_seconds >= 0
            )

    def test_path_ends_at_makespan(self, explained):
        assert explained.critical_path[-1].record.end == pytest.approx(
            explained.makespan_seconds
        )

    def test_empty_records_empty_path(self):
        assert critical_path([]) == []

    def test_fallback_from_bare_trace(self):
        class Bare:
            trace = [
                TraceEntry(name="a", phase="P", start=0.0, end=1.0),
                TraceEntry(name="b", phase="P", start=1.0, end=3.0),
            ]
            makespan_seconds = 3.0

        ex = explain.explain(Bare())
        assert ex.verify() == []
        assert ex.critical_path[-1].record.name == "b"
        assert ex.critical_path_seconds == pytest.approx(3.0)

    def test_slack_of_sink_is_makespan_minus_end(self):
        records = [
            TaskRecord(task_id=1, name="long", phase="P", start=0.0, end=4.0),
            TaskRecord(task_id=2, name="short", phase="P", start=0.0, end=1.0),
        ]
        slack = slack_by_task(records, 4.0)
        assert slack[1] == pytest.approx(0.0)
        assert slack[2] == pytest.approx(3.0)


class TestBoundClassification:
    def test_resource_classes(self):
        assert resource_class("nvlink_to_gpu") == "transfer"
        assert resource_class("iommu_walks") == "translation"
        assert resource_class("gpu_sm") == "compute"
        assert resource_class("cpu_mem_bw") == "memory"

    def test_dominant_resource_wins(self):
        record = TaskRecord(
            task_id=1, name="t", phase="P", start=0.0, end=1.0,
            demands={"nvlink_to_gpu": 50e9, "gpu_sm": 1.0},
        )
        bound = classify(record, {"nvlink_to_gpu": 63e9, "gpu_sm": 80.0})
        assert bound.bound == "transfer-bound"
        assert bound.resource == "nvlink_to_gpu"

    def test_latency_bound_without_demands(self):
        record = TaskRecord(
            task_id=1, name="t", phase="P", start=0.0, end=0.1,
            min_seconds=0.1,
        )
        assert classify(record, {}).bound == "latency-bound"

    def test_triton_run_is_transfer_bound(self, explained):
        # The paper's headline: the Triton join saturates the
        # interconnect, so transfers dominate the makespan.
        assert explained.dominant_bound() == "transfer-bound"


class TestFaultedRuns:
    def test_retries_appear_as_dependency_wait(self, system, workload):
        with faults.injected(RETRY_PLAN):
            run = TritonJoin(system).run(workload)
        ex = explain.explain(run.sim, label="faulted")
        assert ex.verify() == []
        assert ex.retries > 0
        retried = [s for s in ex.critical_path if s.record.retries]
        assert retried, "retried joins should sit on the critical path"
        assert all(s.record.backoff_seconds > 0 for s in retried)
        # Backoff is surfaced as waiting time on the path.
        assert ex.critical_wait_seconds > 0
        report = ex.format()
        assert "dependency-wait" in report

    def test_faulted_invariants_still_hold(self, system, workload):
        with faults.injected(RETRY_PLAN):
            run = TritonJoin(system).run(workload)
        ex = explain.explain(run.sim)
        assert ex.critical_path_seconds == ex.makespan_seconds
        assert sum(ex.seconds_by_bound.values()) == pytest.approx(
            ex.makespan_seconds, abs=1e-9 * ex.makespan_seconds
        )


class TestRunDiff:
    def test_bandwidth_fault_names_task_and_resource(self, system, workload):
        # The acceptance criterion: a known injected slowdown must be
        # attributed to the slowed task and its bounding resource.
        clean = NoPartitioningJoin(system).run(workload)
        plan = faults.FaultPlan(
            seed=1,
            bandwidth=(
                faults.BandwidthFault(resource="nvlink_to_gpu", factor=0.5),
            ),
        )
        with faults.injected(plan):
            slowed = NoPartitioningJoin(system).run(workload)
        diff = explain.diff_runs(
            explain.explain(clean.sim, label="clean"),
            explain.explain(slowed.sim, label="slowed"),
        )
        assert diff.regression
        assert diff.makespan_delta > 0
        top = diff.task_deltas[0]
        assert top.delta_seconds > 0
        assert top.bound == "transfer-bound"
        assert top.resource == "nvlink_to_gpu"
        text = " ".join(diff.drivers)
        assert top.name in text
        assert "nvlink_to_gpu" in text

    def test_self_diff_is_neutral(self, explained):
        diff = explain.diff_runs(explained, explained)
        assert diff.makespan_delta == 0.0
        assert not diff.regression
        assert all(d.delta_seconds == 0 for d in diff.task_deltas)

    def test_diff_serializes(self, explained):
        diff = explain.diff_runs(explained, explained)
        doc = json.loads(json.dumps(diff.to_dict()))
        assert doc["makespan_delta"] == 0.0


class TestSerialization:
    def test_round_trip_preserves_everything(self, explained):
        restored = explain.ExplainedRun.from_dict(
            json.loads(json.dumps(explained.to_dict()))
        )
        assert restored.makespan_seconds == explained.makespan_seconds
        assert restored.verify() == []
        assert restored.critical_path_seconds == pytest.approx(
            explained.critical_path_seconds
        )
        assert restored.seconds_by_bound == pytest.approx(
            explained.seconds_by_bound
        )
        assert restored.average_utilization == pytest.approx(
            explained.average_utilization
        )
        assert [s.record.name for s in restored.critical_path] == [
            s.record.name for s in explained.critical_path
        ]

    def test_format_renders(self, explained):
        report = explained.format()
        assert "critical path" in report
        assert "bound classes" in report
        assert "fig14-style" in report


class TestCollection:
    def test_engine_collects_when_enabled(self, system, workload):
        with context.scoped(explain=[]):
            TritonJoin(system).run(workload)
            collected = explain.drain()
        assert len(collected) == 1
        assert collected[0].verify() == []

    def test_engine_ignores_when_disabled(self, system, workload):
        TritonJoin(system).run(workload)
        assert explain.drain() == []

    def test_labels_come_from_spans(self, system, workload):
        telemetry.set_recording(telemetry.SPANS)
        sink = []
        with context.scoped(explain=sink):
            with tracing.trace_query(tracing.derive_trace_id("t"), name="t"):
                TritonJoin(system).run(workload)
        (run,) = sink
        assert "run:GPU Triton Join" in run.label


class TestBenchCli:
    def test_explain_flag_writes_document(self, tmp_path):
        out = tmp_path / "explain.json"
        code = cli_main(
            [
                "fig14",
                "--sizes", "128",
                "--divisor", "1048576",
                "--explain", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        runs = doc["experiments"]["fig14"]
        assert len(runs) >= 3
        for run_dict in runs:
            restored = explain.ExplainedRun.from_dict(run_dict)
            assert restored.verify() == []
            assert restored.label.startswith("experiment:fig14")

    def test_explain_flag_prints_summary(self, tmp_path, capsys):
        cli_main(
            [
                "fig14",
                "--sizes", "128",
                "--divisor", "1048576",
                "--explain", str(tmp_path / "e.json"),
            ]
        )
        assert "[explain: " in capsys.readouterr().out

    def test_cli_leaves_collection_disabled(self, tmp_path):
        cli_main(
            [
                "fig14",
                "--sizes", "128",
                "--divisor", "1048576",
                "--explain", str(tmp_path / "e.json"),
            ]
        )
        assert context.current().explain is None
        assert explain.drain() == []

    def test_worker_returns_explanations(self):
        # The process-pool entry point, exercised in-process: the
        # parent's merge path consumes exactly this tuple shape.
        with context.scoped(explain=[]):
            job = telemetry.settings()
        name, _, _, _, explanations = _worker(
            "fig14", (128,), 1048576.0, False, job
        )
        assert name == "fig14"
        assert explanations
        for run_dict in explanations:
            assert explain.ExplainedRun.from_dict(run_dict).verify() == []

    def test_faulted_cli_run_keeps_invariants(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(RETRY_PLAN.to_dict()))
        out = tmp_path / "explain.json"
        code = cli_main(
            [
                "fig14",
                "--sizes", "128",
                "--divisor", "1048576",
                "--faults", str(plan_path),
                "--explain", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        runs = [
            explain.ExplainedRun.from_dict(r)
            for r in doc["experiments"]["fig14"]
        ]
        assert all(r.verify() == [] for r in runs)


class TestUtilizationTimeline:
    def test_gaps_become_zero_segments(self):
        class Gappy:
            makespan_seconds = 3.0
            resource_capacities = {"r": 10.0}

            class _I:
                def __init__(self, start, end, usage):
                    self.start, self.end, self.usage = start, end, usage

            occupancy = (
                _I(0.0, 1.0, {"r": 5.0}),
                _I(2.0, 3.0, {"r": 10.0}),
            )

        timeline = utilization_timeline(Gappy())
        assert timeline["r"] == [
            (0.0, 1.0, 0.5),
            (1.0, 2.0, 0.0),
            (2.0, 3.0, 1.0),
        ]

    def test_empty_occupancy_is_all_zero(self):
        class Idle:
            makespan_seconds = 2.0
            resource_capacities = {"r": 1.0}
            occupancy = ()

        timeline = utilization_timeline(Idle())
        assert timeline["r"] == [(0.0, 2.0, 0.0)]
