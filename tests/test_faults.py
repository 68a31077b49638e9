"""Unit tests for the fault-injection subsystem (:mod:`repro.faults`)."""

import math

import pytest

from repro import faults, telemetry
from repro.errors import ConfigurationError, TaskFailedError
from repro.faults import (
    BandwidthFault,
    FaultPlan,
    RetryPolicy,
    TaskFault,
    _name_match,
    _uniform,
)
from repro.sim.engine import SimEngine
from repro.sim.resources import Resource, ResourcePool
from repro.sim.tasks import Task, TaskGraph, chain


def pool_():
    return ResourcePool(
        {name: Resource(name, 100.0) for name in ("link", "mem", "sm")}
    )


class TestNameMatch:
    def test_star_matches_everything(self):
        assert _name_match("anything[3]@1", "*")

    def test_literal_brackets_are_not_character_classes(self):
        # fnmatch would read "[*]" as a class; task names carry literal
        # brackets, so only "*" may be special.
        assert _name_match("join[0]", "join[*]")
        assert _name_match("join[17]", "join[*]")
        assert not _name_match("join0", "join[*]")
        assert not _name_match("j", "[j]")

    def test_prefix_and_suffix_patterns(self):
        assert _name_match("nvlink_to_gpu", "nvlink_*")
        assert _name_match("nvlink_to_gpu[1]", "nvlink_*")
        assert not _name_match("xbus", "nvlink_*")
        assert _name_match("join[2]@1", "*@1")
        assert not _name_match("join[2]@0", "*@1")

    def test_exact_match_without_wildcard(self):
        assert _name_match("xbus", "xbus")
        assert not _name_match("xbus2", "xbus")


class TestUniformDraw:
    def test_deterministic_and_in_unit_interval(self):
        draw = _uniform(0, "join[0]", 0, 0)
        assert draw == _uniform(0, "join[0]", 0, 0)
        assert 0.0 <= draw < 1.0

    def test_varies_with_every_key_component(self):
        base = _uniform(0, "join[0]", 0, 0)
        assert base != _uniform(1, "join[0]", 0, 0)
        assert base != _uniform(0, "join[1]", 0, 0)
        assert base != _uniform(0, "join[0]", 1, 0)
        assert base != _uniform(0, "join[0]", 0, 1)


class TestBandwidthFault:
    def test_rejects_bad_factor_and_window(self):
        with pytest.raises(ConfigurationError):
            BandwidthFault("link", 0.0)
        with pytest.raises(ConfigurationError):
            BandwidthFault("link", 1.5)
        with pytest.raises(ConfigurationError):
            BandwidthFault("link", 0.5, start_s=2.0, end_s=1.0)

    def test_applies_respects_window_and_pattern(self):
        fault = BandwidthFault("nvlink_*", 0.5, start_s=1.0, end_s=2.0)
        assert fault.applies("nvlink_to_gpu", 1.0)
        assert fault.applies("nvlink_to_cpu", 1.5)
        assert not fault.applies("nvlink_to_gpu", 0.5)
        assert not fault.applies("nvlink_to_gpu", 2.0)  # end exclusive
        assert not fault.applies("cpu_mem_bw", 1.5)


class TestTaskFault:
    def test_rejects_bad_probability_and_cap(self):
        with pytest.raises(ConfigurationError):
            TaskFault("join[*]", probability=0.0)
        with pytest.raises(ConfigurationError):
            TaskFault("join[*]", max_failures=0)

    def test_max_failures_caps_firing(self):
        fault = TaskFault("join[*]", probability=1.0, max_failures=2)
        assert fault.fires(0, "join[0]", "Join", 0, 0)
        assert fault.fires(0, "join[0]", "Join", 1, 0)
        assert not fault.fires(0, "join[0]", "Join", 2, 0)

    def test_phase_filter(self):
        fault = TaskFault("*", phase="Join")
        assert fault.fires(0, "join[0]", "Join", 0, 0)
        assert not fault.fires(0, "part1", "Part 1", 0, 0)

    def test_failure_sets_are_nested_in_probability(self):
        # The same deterministic draw backs every probability, so a
        # higher rate can only add failures — the monotone-curve basis.
        lo = TaskFault("t*", probability=0.2)
        hi = TaskFault("t*", probability=0.6)
        for i in range(200):
            if lo.fires(7, f"t{i}", "", 0, 0):
                assert hi.fires(7, f"t{i}", "", 0, 0)

    def test_probability_one_always_fires(self):
        fault = TaskFault("t", probability=1.0)
        assert all(fault.fires(s, "t", "", 0, 0) for s in range(20))


class TestRetryPolicy:
    def test_backoff_grows_then_saturates(self):
        policy = RetryPolicy(backoff_s=1.0, multiplier=2.0, max_backoff_s=3.0)
        assert policy.backoff(0) == 1.0
        assert policy.backoff(1) == 2.0
        assert policy.backoff(2) == 3.0  # capped, not 4.0
        assert policy.backoff(10) == 3.0

    def test_class_budgets_are_pattern_matched(self):
        policy = RetryPolicy(
            class_budgets=(("Join", 2), ("Part *", 0)),
            default_class_budget=5,
        )
        assert policy.budget_for("Join") == 2
        assert policy.budget_for("Part 1") == 0
        assert policy.budget_for("Part 2") == 0
        assert policy.budget_for("PS 1") == 5

    def test_unlimited_by_default(self):
        assert RetryPolicy().budget_for("anything") is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_s=-1.0)


class TestFaultPlan:
    def test_empty_plan_queries(self):
        plan = FaultPlan()
        assert plan.is_empty()
        assert not plan.affects_engine()
        assert plan.bandwidth_factor("link", 0.0) == 1.0
        assert plan.boundaries() == ()
        assert plan.next_boundary(0.0) is None
        assert plan.task_fault("join[0]", "Join", 0) is None
        assert plan.summary() == "empty fault plan"

    def test_capacity_only_plan_skips_the_engine(self):
        plan = FaultPlan(gpu_memory_factor=0.5)
        assert not plan.is_empty()
        assert not plan.affects_engine()

    def test_bandwidth_factors_compound(self):
        plan = FaultPlan(
            bandwidth=(
                BandwidthFault("link", 0.5),
                BandwidthFault("l*", 0.5, start_s=1.0, end_s=2.0),
            )
        )
        assert plan.bandwidth_factor("link", 0.0) == 0.5
        assert plan.bandwidth_factor("link", 1.5) == 0.25
        assert plan.bandwidth_factor("mem", 1.5) == 1.0

    def test_boundaries_sorted_and_next(self):
        plan = FaultPlan(
            bandwidth=(
                BandwidthFault("a", 0.5, start_s=2.0, end_s=3.0),
                BandwidthFault("b", 0.5, start_s=0.0),  # inf end: no boundary
            )
        )
        assert plan.boundaries() == (2.0, 3.0)
        assert plan.next_boundary(0.0) == 2.0
        assert plan.next_boundary(2.0) == 3.0
        assert plan.next_boundary(3.0) is None

    def test_json_round_trip_preserves_infinite_window(self):
        plan = FaultPlan(
            seed=7,
            bandwidth=(
                BandwidthFault("nvlink_*", 0.3),
                BandwidthFault("xbus", 0.5, start_s=0.1, end_s=0.2),
            ),
            tasks=(TaskFault("join[*]", probability=0.5, max_failures=3),),
            gpu_memory_factor=0.25,
            retry=RetryPolicy(max_attempts=6, class_budgets=(("Join", 2),)),
            description="kitchen sink",
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert math.isinf(restored.bandwidth[0].end_s)
        # And the wire form is plain JSON (None, not Infinity).
        assert "Infinity" not in plan.to_json()

    def test_save_and_load(self, tmp_path):
        plan = FaultPlan(seed=3, tasks=(TaskFault("t"),))
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_summary(self):
        plan = FaultPlan(
            bandwidth=(BandwidthFault("link", 0.5),), description="brownout"
        )
        summary = plan.summary()
        assert "brownout" in summary and "1 bandwidth fault(s)" in summary


class TestAmbientPlan:
    def test_injected_nests_and_restores(self):
        outer = FaultPlan(seed=1)
        inner = FaultPlan(seed=2)
        assert faults.active() is None
        with faults.injected(outer):
            assert faults.active() is outer
            with faults.injected(inner):
                assert faults.active() is inner
            assert faults.active() is outer
        assert faults.active() is None

    def test_injected_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with faults.injected(FaultPlan(seed=1)):
                raise RuntimeError("boom")
        assert faults.active() is None

    def test_effective_gpu_memory(self):
        assert faults.effective_gpu_memory(100.0) == 100.0
        before = telemetry.registry.counter("faults.capacity_shrink")
        with faults.injected(FaultPlan(gpu_memory_factor=0.25)):
            assert faults.effective_gpu_memory(100.0) == 25.0
        after = telemetry.registry.counter("faults.capacity_shrink")
        assert after == before + 1


class TestEngineFaults:
    def _graph(self):
        return TaskGraph(
            chain(
                [
                    Task(name="a", phase="P", demands={"link": 100.0}),
                    Task(name="b", phase="Q", demands={"mem": 100.0}),
                ]
            )
        )

    def test_empty_plan_is_byte_identical_to_no_plan(self):
        engine = SimEngine(pool_())
        graph = self._graph()
        clean = engine.run(graph)
        plans = (
            FaultPlan(seed=5),
            # Affects the engine, so it runs the plan path, but never
            # fires: the window opens after the makespan and the task
            # fault names no task.
            FaultPlan(
                seed=5,
                bandwidth=(BandwidthFault("link", 0.5, start_s=100.0),),
                tasks=(TaskFault("no-such-task"),),
            ),
        )
        for plan in plans:
            with faults.injected(plan):
                injected = engine.run(graph)
            assert injected.makespan_seconds == clean.makespan_seconds
            assert injected.trace == clean.trace
            assert injected.task_records == clean.task_records
            assert injected.occupancy == clean.occupancy
            assert injected.resource_busy_units == clean.resource_busy_units
            assert injected.fault_events == clean.fault_events == ()

    def test_transient_fault_retries_and_records(self):
        plan = FaultPlan(
            tasks=(TaskFault("a", max_failures=2),),
            retry=RetryPolicy(
                max_attempts=4, backoff_s=0.1, multiplier=2.0,
                max_backoff_s=1.0,
            ),
        )
        engine = SimEngine(pool_())
        clean = engine.run(self._graph())
        before = telemetry.registry.snapshot()
        with faults.injected(plan):
            result = engine.run(self._graph())
        delta = telemetry.registry.delta_since(before)["counters"]
        # Two doomed attempts, each a full task duration plus backoff
        # (0.1 then 0.2 simulated seconds).
        assert result.makespan_seconds == pytest.approx(
            clean.makespan_seconds + 2 * 1.0 + 0.1 + 0.2
        )
        failed = [e for e in result.trace if "failed" in e.name]
        assert [e.name for e in failed] == [
            "a [attempt 1 failed]",
            "a [attempt 2 failed]",
        ]
        kinds = [e.kind for e in result.fault_events]
        assert kinds == ["task_transient", "task_transient"]
        assert delta["faults.task_transient"] == 2
        assert delta["faults.retries"] == 2

    def test_permanent_fault_raises_with_context(self):
        plan = FaultPlan(tasks=(TaskFault("b", transient=False),))
        with faults.injected(plan):
            with pytest.raises(TaskFailedError) as info:
                SimEngine(pool_()).run(self._graph())
        error = info.value
        assert error.task_name == "b"
        assert error.phase == "Q"
        assert not error.gpu  # "mem" is not a GPU-side resource
        assert error.attempts == 1

    def test_gpu_attribution(self):
        graph = TaskGraph([Task(name="k", demands={"gpu_mem_bw": 10.0})])
        pool = ResourcePool({"gpu_mem_bw": Resource("gpu_mem_bw", 100.0)})
        plan = FaultPlan(tasks=(TaskFault("k", transient=False),))
        with faults.injected(plan):
            with pytest.raises(TaskFailedError) as info:
                SimEngine(pool).run(graph)
        assert info.value.gpu

    def test_retry_budget_exhaustion_escalates(self):
        plan = FaultPlan(
            tasks=(TaskFault("a"),),  # always fires
            retry=RetryPolicy(max_attempts=3, backoff_s=1e-3),
        )
        with faults.injected(plan):
            with pytest.raises(TaskFailedError) as info:
                SimEngine(pool_()).run(self._graph())
        assert info.value.attempts == 3
        assert "retry budget exhausted" in str(info.value)

    def test_class_budget_exhaustion_escalates(self):
        plan = FaultPlan(
            tasks=(TaskFault("a", max_failures=3),),
            retry=RetryPolicy(
                max_attempts=10, class_budgets=(("P", 1),)
            ),
        )
        with faults.injected(plan):
            with pytest.raises(TaskFailedError) as info:
                SimEngine(pool_()).run(self._graph())
        assert "class 'P' retry budget exhausted" in str(info.value)

    def test_bandwidth_fault_slows_run_and_emits_events(self):
        plan = FaultPlan(bandwidth=(BandwidthFault("link", 0.5),))
        engine = SimEngine(pool_())
        clean = engine.run(self._graph())
        with faults.injected(plan):
            slowed = engine.run(self._graph())
        # Task "a" (link) takes 2x; task "b" (mem) is unaffected.
        assert slowed.makespan_seconds == pytest.approx(
            clean.makespan_seconds + 1.0
        )
        assert [e.kind for e in slowed.fault_events] == ["bandwidth_drop"]
        assert slowed.fault_events[0].target == "link"

    def test_bandwidth_window_applies_only_inside(self):
        # 100 units of link at capacity 100: 1s clean. Halved for the
        # first 0.5s: 25 units done by t=0.5, remaining 75 at full rate.
        plan = FaultPlan(
            bandwidth=(BandwidthFault("link", 0.5, start_s=0.0, end_s=0.5),)
        )
        graph = TaskGraph([Task(name="t", demands={"link": 100.0})])
        with faults.injected(plan):
            result = SimEngine(pool_()).run(graph)
        assert result.makespan_seconds == pytest.approx(0.5 + 0.75)
        kinds = [e.kind for e in result.fault_events]
        assert kinds == ["bandwidth_drop", "bandwidth_restore"]

    def test_work_conservation_under_retries(self):
        # Each attempt consumes the full demand: 3 attempts = 3x units.
        plan = FaultPlan(
            tasks=(TaskFault("t", max_failures=2),),
            retry=RetryPolicy(max_attempts=5, backoff_s=1e-3),
        )
        graph = TaskGraph([Task(name="t", demands={"link": 100.0})])
        with faults.injected(plan):
            result = SimEngine(pool_()).run(graph)
        assert result.resource_busy_units["link"] == pytest.approx(300.0)


class TestRunCacheKey:
    def test_key_includes_the_ambient_plan(self, system, fault_workload):
        from repro.join.run_cache import run_key
        from repro.join.triton import TritonJoin

        op = TritonJoin(system)
        clean_key = run_key(op, fault_workload)
        with faults.injected(FaultPlan(gpu_memory_factor=0.5)):
            fault_key = run_key(op, fault_workload)
        assert clean_key != fault_key
        # Same plan content => same key (plans are value objects).
        with faults.injected(FaultPlan(gpu_memory_factor=0.5)):
            assert run_key(op, fault_workload) == fault_key
