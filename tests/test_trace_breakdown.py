"""Edge cases of PhaseBreakdown's overlap-splitting and the TaskRecord/
OccupancyInterval artifacts the attribution engine consumes."""

from __future__ import annotations

import pytest

from repro import faults
from repro.data.generator import generate_workload
from repro.join import TritonJoin
from repro.sim.trace import (
    OccupancyInterval,
    PhaseBreakdown,
    TaskRecord,
    TraceEntry,
)


def _entry(name, phase, start, end):
    return TraceEntry(name=name, phase=phase, start=start, end=end)


class TestOverlapSplitting:
    def test_zero_length_tasks_contribute_nothing(self):
        # An instantaneous task (a scheduling point, a barrier) defines
        # a slice boundary but no time; the split must not divide by it
        # or attribute seconds to its phase.
        trace = [
            _entry("work", "Compute", 0.0, 2.0),
            _entry("barrier", "Sync", 1.0, 1.0),
        ]
        breakdown = PhaseBreakdown.from_trace(trace, makespan=2.0)
        assert breakdown.seconds_by_phase == {"Compute": 2.0}
        assert "Sync" not in breakdown.seconds_by_phase

    def test_only_zero_length_tasks(self):
        trace = [_entry("a", "P", 1.0, 1.0), _entry("b", "Q", 1.0, 1.0)]
        breakdown = PhaseBreakdown.from_trace(trace, makespan=1.0)
        assert breakdown.seconds_by_phase == {}
        assert breakdown.fraction("P") == 0.0

    def test_fully_nested_span_splits_the_inner_window(self):
        # outer spans [0, 4]; inner phase [1, 3] fully inside it. Both
        # are active over [1, 3], so each gets half of that window.
        trace = [
            _entry("outer", "Outer", 0.0, 4.0),
            _entry("inner", "Inner", 1.0, 3.0),
        ]
        breakdown = PhaseBreakdown.from_trace(trace, makespan=4.0)
        assert breakdown.seconds_by_phase["Outer"] == pytest.approx(3.0)
        assert breakdown.seconds_by_phase["Inner"] == pytest.approx(1.0)
        assert sum(breakdown.seconds_by_phase.values()) == pytest.approx(4.0)

    def test_identical_spans_same_phase_pool_their_share(self):
        trace = [
            _entry("a", "P", 0.0, 2.0),
            _entry("b", "P", 0.0, 2.0),
        ]
        breakdown = PhaseBreakdown.from_trace(trace, makespan=2.0)
        assert breakdown.seconds_by_phase == {"P": 2.0}

    def test_identical_spans_distinct_phases_split_evenly(self):
        trace = [
            _entry("a", "P", 0.0, 2.0),
            _entry("b", "Q", 0.0, 2.0),
        ]
        breakdown = PhaseBreakdown.from_trace(trace, makespan=2.0)
        assert breakdown.seconds_by_phase["P"] == pytest.approx(1.0)
        assert breakdown.seconds_by_phase["Q"] == pytest.approx(1.0)

    def test_faulted_retry_entries_keep_the_sum_exact(self, system):
        # A faulted run's trace carries failed-attempt entries that
        # overlap the successful attempt's span; the split must still
        # attribute every slice exactly once.
        plan = faults.FaultPlan(
            seed=3,
            tasks=(
                faults.TaskFault(
                    match="join[*]", probability=1.0, max_failures=2
                ),
            ),
            retry=faults.RetryPolicy(),
        )
        workload = generate_workload(128, 128, scale_divisor=65536)
        with faults.injected(plan):
            run = TritonJoin(system).run(workload)
        assert any("failed" in e.name for e in run.sim.trace)
        breakdown = PhaseBreakdown.from_trace(
            list(run.sim.trace), run.sim.makespan_seconds
        )
        covered = sum(breakdown.seconds_by_phase.values())
        # Slices are attributed once each; idle gaps (retry backoff
        # with nothing running) are legitimately unattributed.
        assert covered <= run.sim.makespan_seconds + 1e-9
        assert covered > 0
        assert sum(breakdown.percentages().values()) == pytest.approx(100.0)

    def test_empty_trace(self):
        breakdown = PhaseBreakdown.from_trace([], makespan=0.0)
        assert breakdown.seconds_by_phase == {}
        assert breakdown.percentages() == {}


class TestTaskRecord:
    def test_span_includes_backoff(self):
        record = TaskRecord(
            task_id=1, name="j", phase="Join", start=0.0, end=2.0,
            retries=2, backoff_seconds=0.5, active_seconds=1.5,
        )
        assert record.span_seconds == pytest.approx(2.0)
        assert record.backoff_seconds + record.active_seconds <= (
            record.span_seconds + 1e-12
        )

    def test_round_trip(self):
        record = TaskRecord(
            task_id=3, name="t", phase="P", start=0.5, end=1.5,
            demands={"gpu_sm": 2.0}, dep_ids=(1, 2), min_seconds=0.1,
            retries=1, backoff_seconds=0.05, active_seconds=0.9,
        )
        assert TaskRecord.from_dict(record.to_dict()) == record

    def test_hashable_despite_dict_field(self):
        record = TaskRecord(
            task_id=1, name="t", phase="P", start=0.0, end=1.0,
            demands={"r": 1.0},
        )
        assert len({record, record}) == 1


class TestOccupancyInterval:
    def test_round_trip_and_duration(self):
        interval = OccupancyInterval(
            start=1.0, end=2.5, usage={"nvlink_to_gpu": 50e9}
        )
        assert interval.duration == pytest.approx(1.5)
        assert OccupancyInterval.from_dict(interval.to_dict()) == interval

    def test_engine_occupancy_integrates_to_busy_units(self, system):
        workload = generate_workload(128, 128, scale_divisor=65536)
        run = TritonJoin(system).run(workload)
        sim = run.sim
        for name in sim.resource_capacities:
            integral = sum(
                interval.usage.get(name, 0.0) * interval.duration
                for interval in sim.occupancy
            )
            assert integral == pytest.approx(
                sim.resource_busy_units.get(name, 0.0), rel=1e-9, abs=1e-9
            )

    def test_occupancy_tiles_without_overlap(self, system):
        workload = generate_workload(128, 128, scale_divisor=65536)
        sim = TritonJoin(system).run(workload).sim
        for earlier, later in zip(sim.occupancy, sim.occupancy[1:]):
            assert later.start >= earlier.end - 1e-12
        assert sim.occupancy[-1].end <= sim.makespan_seconds + 1e-12
