"""Co-processing join: split correctness, search quality, collapse.

Covers the cost-based CPU+GPU co-processing operator
(:class:`repro.join.coprocess.CoProcessingJoin`) and the advisor's
split search (:meth:`repro.advisor.JoinAdvisor.recommend_split`):

- the split join's functional output is byte-identical to the
  single-backend reference at any fraction (hash partitions are
  disjoint, so the merged sub-joins reconstruct the whole join);
- the headline acceptance claim: with the advisor's split it beats
  both single-backend operators end-to-end at every Fig. 16 size while
  keeping both pools busy;
- under faults the operator collapses onto the surviving processor
  (GPU brownout -> all-CPU, CPU task death -> all-GPU), and the
  co-processing ladder falls through to the standard rungs only when
  both collapse targets are dead;
- split plans are memoized in the run cache per fault plan;
- Hypothesis: the searched fraction lands within one search step of
  the empirical argmin on randomized cardinalities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.advisor import _COSTING_DIVISOR, JoinAdvisor
from repro.data.generator import generate_workload
from repro.errors import CapacityError, ConfigurationError
from repro.faults import FaultPlan, RetryPolicy, TaskFault
from repro.join import (
    CoProcessingJoin,
    CpuPartitionedJoin,
    DegradationLadder,
    TritonJoin,
    coprocess_rungs,
    reference_join,
    run_cache,
)
from repro.join import coprocess
from repro.join.base import merge_matches


@pytest.fixture(scope="module")
def workload():
    return generate_workload(128, 128, scale_divisor=65536, seed=13)


@pytest.fixture(scope="module")
def expected(workload):
    return reference_join(workload.build, workload.probe)


class TestFunctionalIdentity:
    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_split_matches_reference(self, system, workload, expected, fraction):
        run = CoProcessingJoin(system, cpu_fraction=fraction).run(workload)
        assert run.match == expected

    def test_reference_mode_crosscheck(self, system, workload):
        split = CoProcessingJoin(system, cpu_fraction=0.4).run(workload)
        whole = CoProcessingJoin(
            system, cpu_fraction=0.4, reference=True
        ).run(workload)
        assert split.match == whole.match

    def test_matches_single_backends(self, system, workload):
        co = CoProcessingJoin(system, cpu_fraction=0.3).run(workload)
        assert co.match == TritonJoin(system).run(workload).match
        assert co.match == CpuPartitionedJoin(system).run(workload).match

    def test_merge_is_checksum_exact(self, system, workload, expected):
        # The merged sub-join summaries must reconstruct the whole
        # join's checksums exactly, not just the match count.
        run = CoProcessingJoin(system, cpu_fraction=0.5).run(workload)
        assert run.match.key_checksum == expected.key_checksum
        assert run.match.payload_checksum == expected.payload_checksum

    def test_merge_adds_mod_2_62(self):
        from repro.join.base import JoinMatch

        a = JoinMatch(
            matches=3, key_checksum=2**62 - 1, payload_checksum=5
        )
        b = JoinMatch(matches=4, key_checksum=2, payload_checksum=7)
        merged = merge_matches(a, b)
        assert merged.matches == 7
        assert merged.key_checksum == 1
        assert merged.payload_checksum == 12


class TestEdges:
    def test_all_gpu_edge(self, system, workload, expected):
        run = CoProcessingJoin(system, cpu_fraction=0.0).run(workload)
        assert run.match == expected
        assert run.uses_gpu
        # No CPU-side partitions (the Triton graph itself still touches
        # cpu_cores a little, e.g. for the prefix-sum assist).
        assert run.notes["split"]["cpu_partitions"] == 0

    def test_all_cpu_edge(self, system, workload, expected):
        run = CoProcessingJoin(system, cpu_fraction=1.0).run(workload)
        assert run.match == expected
        assert not run.uses_gpu
        assert run.notes["utilization"]["gpu_busy_seconds"] == 0.0

    @pytest.mark.parametrize("fraction", [-0.1, 1.1, 2.0])
    def test_invalid_fraction_rejected(self, system, fraction):
        with pytest.raises(ConfigurationError):
            CoProcessingJoin(system, cpu_fraction=fraction)

    def test_fraction_rounds_to_whole_partitions(self, system, workload):
        run = CoProcessingJoin(system, cpu_fraction=0.37).run(workload)
        split = run.notes["split"]
        assert split["gpu_partitions"] + split["cpu_partitions"] == (
            split["fanout"]
        )
        assert run.notes["cpu_fraction"] == pytest.approx(
            split["cpu_partitions"] / split["fanout"]
        )


class TestAcceptance:
    """The ISSUE's headline: beat every single backend on fig16."""

    @pytest.mark.parametrize("size", [128, 512, 2048])
    def test_beats_both_singles_with_both_pools_busy(self, system, size):
        workload = generate_workload(size, size, scale_divisor=16384)
        co = CoProcessingJoin(system).run(workload)
        triton = TritonJoin(system).run(workload)
        cpp = CpuPartitionedJoin(system).run(workload)
        assert co.seconds < triton.seconds
        assert co.seconds < cpp.seconds
        utilization = co.notes["utilization"]
        assert utilization["gpu_idle_fraction"] <= 0.25
        assert utilization["cpu_idle_fraction"] <= 0.25
        assert co.match == triton.match == cpp.match

    def test_auto_mode_records_split_plan(self, system, workload):
        run = CoProcessingJoin(system).run(workload)
        plan = run.notes["split_plan"]
        assert 0.0 <= plan["cpu_fraction"] <= 1.0
        assert plan["seconds"] <= plan["seconds_all_gpu"]
        assert plan["seconds"] <= plan["seconds_all_cpu"]

    def test_bound_classification_present(self, system, workload):
        run = CoProcessingJoin(system, cpu_fraction=0.4).run(workload)
        utilization = run.notes["utilization"]
        assert utilization["cpu_bound"] in ("cpu_cores", "cpu_mem_bw")
        assert utilization["gpu_bound"] in (
            "gpu_sm",
            "gpu_mem_bw",
            "nvlink_to_gpu",
            "nvlink_to_cpu",
        )


class TestCollapse:
    """Under faults the operator lands on the surviving processor.

    Two mechanisms, both covered: a *pinned* fraction collapses via the
    exception path (``notes["collapsed"]``); the *auto* (advisor) mode
    never raises at all — the split search costs the dead side at
    ``inf`` and converges onto the survivor directly.
    """

    def test_pinned_gpu_capacity_loss_collapses_to_cpu(
        self, system, workload, expected
    ):
        plan = FaultPlan(gpu_memory_factor=0.01, description="gpu gone")
        with faults.injected(plan):
            run = CoProcessingJoin(system, cpu_fraction=0.4).run(workload)
        assert run.match == expected
        assert not run.uses_gpu
        assert run.notes["collapsed"]["to"] == "cpu"
        assert "CapacityError" in run.notes["collapsed"]["reason"]

    def test_pinned_gpu_kernel_death_collapses_to_cpu(
        self, system, workload, expected
    ):
        plan = FaultPlan(
            tasks=(TaskFault("join[*]", transient=False),),
            description="GPU join kernels die",
        )
        with faults.injected(plan):
            run = CoProcessingJoin(system, cpu_fraction=0.4).run(workload)
        assert run.match == expected
        assert not run.uses_gpu
        assert run.notes["collapsed"]["to"] == "cpu"

    def test_pinned_cpu_task_death_collapses_to_gpu(
        self, system, workload, expected
    ):
        plan = FaultPlan(
            tasks=(TaskFault("cpu_join", transient=False),),
            description="CPU join dies",
        )
        with faults.injected(plan):
            run = CoProcessingJoin(system, cpu_fraction=0.4).run(workload)
        assert run.match == expected
        assert run.uses_gpu
        assert run.notes["cpu_fraction"] == 0.0
        assert run.notes["collapsed"]["to"] == "gpu"

    def test_auto_mode_shifts_cpu_ward_on_capacity_loss(
        self, system, workload, expected
    ):
        plan = FaultPlan(gpu_memory_factor=0.01, description="gpu gone")
        with faults.injected(plan):
            run = CoProcessingJoin(system).run(workload)
        assert run.match == expected
        assert not run.uses_gpu
        assert run.notes["cpu_fraction"] == 1.0
        assert run.notes["split_plan"]["seconds_all_gpu"] == float("inf")

    def test_auto_mode_shifts_gpu_ward_on_cpu_death(
        self, system, workload, expected
    ):
        plan = FaultPlan(
            tasks=(TaskFault("cpu_*", transient=False),),
            description="CPU-side tasks die",
        )
        with faults.injected(plan):
            run = CoProcessingJoin(system).run(workload)
        assert run.match == expected
        assert run.uses_gpu
        assert run.notes["cpu_fraction"] == 0.0
        assert run.notes["split_plan"]["seconds_all_cpu"] == float("inf")

    def test_ladder_falls_through_when_both_sides_die(
        self, system, workload, expected
    ):
        # Kill the GPU join kernels AND the CPU-side join task: every
        # split fraction is infeasible, so the coprocess rung fails
        # with PlanError and the ladder falls through. Triton's
        # GPU-attributed failure then marks the GPU unhealthy, skipping
        # triton-spill and cpu-partitioned, and the join completes on
        # cpu-radix (whose join task is named "join" — neither pattern
        # matches it).
        plan = FaultPlan(
            tasks=(
                TaskFault("join[*]", transient=False),
                TaskFault("cpu_join", transient=False),
            ),
            description="both processors' join kernels die",
        )
        ladder = DegradationLadder(
            system, rungs=coprocess_rungs(), use_advisor=False
        )
        with faults.injected(plan):
            run = ladder.run(workload)
        assert run.match == expected
        assert run.notes["degradation"]["rung"] == "cpu-radix"
        assert "coprocess" in run.notes["degradation"]["failures"]

    def test_ladder_top_rung_survives_gpu_brownout(
        self, system, workload, expected
    ):
        # A transient storm the retry budget cannot absorb: the
        # coprocess rung itself completes by shifting every partition
        # CPU-ward — no degradation note, the top rung held.
        plan = FaultPlan(
            tasks=(TaskFault("join[*]", transient=True),),
            retry=RetryPolicy(max_attempts=2, backoff_s=1e-4),
            description="GPU join kernels never succeed",
        )
        ladder = DegradationLadder(
            system, rungs=coprocess_rungs(), use_advisor=False
        )
        with faults.injected(plan):
            run = ladder.run(workload)
        assert run.match == expected
        assert run.notes.get("degradation") is None
        assert not run.uses_gpu
        assert run.notes["cpu_fraction"] == 1.0


class TestSplitSearch:
    def test_endpoints_always_costed(self, system):
        plan = JoinAdvisor(system).recommend_split(128, 128)
        fractions = {e.cpu_fraction for e in plan.estimates}
        assert {0.0, 1.0} <= fractions
        assert plan.seconds <= plan.seconds_all_gpu
        assert plan.seconds <= plan.seconds_all_cpu

    def test_seeded_by_partition_ratio(self, system):
        plan = JoinAdvisor(system).recommend_split(512, 512)
        assert 0.0 < plan.seeded_fraction < 1.0
        assert any(
            e.cpu_fraction == pytest.approx(plan.seeded_fraction)
            for e in plan.estimates
        )

    def test_predicts_speedup_on_balanced_join(self, system):
        plan = JoinAdvisor(system).recommend_split(512, 512)
        assert plan.speedup_vs_best_single > 1.0
        assert 0.0 < plan.cpu_fraction < 1.0

    def test_search_runs_no_functional_join(self, system, monkeypatch):
        # Candidates are costed by the simulator alone: only the makespan
        # is read, so no functional join may run.
        def forbidden(*args, **kwargs):
            raise AssertionError("the split search ran a functional join")

        monkeypatch.setattr(coprocess, "batched_radix_join", forbidden)
        plan = JoinAdvisor(system).recommend_split(128, 128)
        assert 0.0 < plan.cpu_fraction < 1.0

    @pytest.mark.parametrize(
        "size, cpu_fraction, seconds",
        [
            (128, 0.36881, 0.09355228329158813),
            (512, 0.373835, 0.3739663856274189),
            (2048, 0.386991, 1.8707148287294448),
        ],
    )
    def test_fig16_plans_match_full_run_costing(
        self, system, monkeypatch, size, cpu_fraction, seconds
    ):
        """The simulator-only search returns the plan a search costing
        every candidate with a whole run (functional join included) does,
        at each Fig. 16 size."""
        plan = JoinAdvisor(system).recommend_split(size, size)
        assert (plan.cpu_fraction, plan.seconds) == (cpu_fraction, seconds)

        def full_run(self, workload, fraction, on_error):
            operator = CoProcessingJoin(self.system, cpu_fraction=fraction)
            return float(operator.run(workload).seconds)

        monkeypatch.setattr(JoinAdvisor, "_cost_split", full_run)
        assert JoinAdvisor(system).recommend_split(size, size) == plan

    def test_rejects_bad_inputs(self, system):
        advisor = JoinAdvisor(system)
        with pytest.raises(ConfigurationError):
            advisor.recommend_split(0)
        with pytest.raises(ConfigurationError):
            advisor.recommend_split(128, tolerance=0.0)
        with pytest.raises(ConfigurationError):
            advisor.recommend_split(128, on_error="maybe")

    def test_search_converges_to_survivor_under_faults(self, system):
        plan_fault = FaultPlan(
            gpu_memory_factor=0.01, description="gpu gone"
        )
        with faults.injected(plan_fault):
            plan = JoinAdvisor(system).recommend_split(
                128, 128, on_error="skip"
            )
        assert plan.cpu_fraction == 1.0
        assert plan.seconds_all_gpu == float("inf")

    def test_plan_memoized_per_fault_plan(self, system):
        advisor = JoinAdvisor(system)
        before = run_cache.stats
        run_cache.enable()
        try:
            run_cache.clear()
            first = advisor.recommend_split(128, 128)
            assert run_cache.stats["plan_misses"] == before["plan_misses"] + 1
            second = advisor.recommend_split(128, 128)
            assert run_cache.stats["plan_hits"] == before["plan_hits"] + 1
            assert second == first
            # A different ambient fault plan must miss: a plan searched
            # under a brownout is never served to a healthy run.
            with faults.injected(
                FaultPlan(gpu_memory_factor=0.5, description="shrink")
            ):
                advisor.recommend_split(128, 128)
            assert run_cache.stats["plan_misses"] == before["plan_misses"] + 2
        finally:
            run_cache.disable()
            run_cache.clear()


class TestEstimateSkip:
    """estimate(on_error='skip') with a candidate dying mid-search."""

    class _Boom:
        def cost(self, workload):
            raise CapacityError("state does not fit anywhere")

    def _advisor(self, system):
        return JoinAdvisor(
            system,
            candidates={
                "triton": lambda: TritonJoin(system),
                "boom": lambda: self._Boom(),
                "cpu_partitioned": lambda: CpuPartitionedJoin(system),
            },
        )

    def test_skip_drops_the_dead_candidate(self, system):
        estimates = self._advisor(system).estimate(128, 128, on_error="skip")
        assert {e.operator for e in estimates} == {
            "triton",
            "cpu_partitioned",
        }

    def test_raise_propagates(self, system):
        with pytest.raises(CapacityError):
            self._advisor(system).estimate(128, 128)


class TestSearchOptimality:
    """Hypothesis: the search lands within one step of the grid argmin."""

    @given(
        build_m=st.integers(min_value=64, max_value=1024),
        ratio=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=8, deadline=None)
    def test_within_one_step_of_empirical_argmin(self, build_m, ratio):
        from repro.hw.specs import ac922

        tolerance = 1.0 / 32.0
        advisor = JoinAdvisor(ac922())
        probe_m = build_m * ratio
        plan = advisor.recommend_split(
            build_m, probe_m, tolerance=tolerance
        )
        workload = generate_workload(
            build_m, probe_m, scale_divisor=_COSTING_DIVISOR
        )
        grid = np.arange(0.0, 1.0 + 1e-9, tolerance)
        costs = {
            float(f): advisor._cost_split(workload, float(f), "raise")
            for f in grid
        }
        argmin = min(costs, key=lambda f: (costs[f], f))
        assert abs(plan.cpu_fraction - argmin) <= 2 * tolerance + 1e-9
