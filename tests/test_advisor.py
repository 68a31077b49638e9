"""Unit tests for the cost-based join advisor (repro.advisor)."""

import pytest

from repro import faults
from repro.advisor import _COSTING_DIVISOR, JoinAdvisor, _default_candidates
from repro.data.generator import generate_workload
from repro.errors import ConfigurationError, ReproError
from repro.faults import FaultPlan
from repro.join import CoProcessingJoin, NoPartitioningJoin, cpu_radix, triton
from repro.join.ladder import default_rungs


@pytest.fixture(scope="module")
def advisor(system):
    return JoinAdvisor(system)


class TestEstimates:
    def test_all_candidates_costed(self, advisor):
        estimates = advisor.estimate(128, 128)
        assert {e.operator for e in estimates} == {
            "triton",
            "no_partitioning",
            "cpu_radix",
        }

    def test_sorted_fastest_first(self, advisor):
        estimates = advisor.estimate(512, 512)
        seconds = [e.seconds for e in estimates]
        assert seconds == sorted(seconds)

    def test_estimates_have_throughput(self, advisor):
        for estimate in advisor.estimate(128, 128):
            assert estimate.throughput_g_tuples_per_s > 0


class TestRecommendations:
    def test_np_join_for_small_state(self, advisor):
        # Comfortably in-core: the no-partitioning join wins (Fig. 13).
        assert advisor.recommend(128).operator == "no_partitioning"

    def test_triton_for_large_state(self, advisor):
        assert advisor.recommend(2048).operator == "triton"

    def test_hedging_prefers_triton_near_the_cliff(self, advisor):
        # At 640M the NP join still wins on the point estimate, but a 2x
        # cardinality error would push it off the GPU-memory cliff; the
        # robust choice is the Triton join.
        point = advisor.recommend(640)
        hedged = advisor.recommend(640, cardinality_error=2.0)
        assert point.operator == "no_partitioning"
        assert hedged.operator == "triton"
        assert hedged.hedged and not point.hedged

    def test_hedging_is_noop_when_already_robust(self, advisor):
        assert advisor.recommend(2048, cardinality_error=1.5).operator == (
            "triton"
        )

    def test_probe_defaults_to_build(self, advisor):
        rec = advisor.recommend(128)
        assert rec.best.operator == rec.operator

    def test_rejects_bad_inputs(self, advisor):
        with pytest.raises(ConfigurationError):
            advisor.recommend(0)
        with pytest.raises(ConfigurationError):
            advisor.recommend(128, cardinality_error=0.5)

    def test_custom_candidates(self, system):
        from repro.join import TritonJoin

        advisor = JoinAdvisor(
            system, candidates={"only": lambda: TritonJoin(system)}
        )
        assert advisor.recommend(128).operator == "only"

    def test_empty_candidates_rejected(self, system):
        with pytest.raises(ConfigurationError):
            JoinAdvisor(system, candidates={})


def _outcome(step):
    """``step()``'s simulated seconds, or the name of the error it raised."""
    try:
        result = step()
    except ReproError as error:
        return type(error).__name__
    return getattr(result, "makespan_seconds", getattr(result, "seconds", None))


#: No fault, and GPU memory shrunk below the Triton pipeline reservation.
FAULT_PLANS = [None, FaultPlan(gpu_memory_factor=0.05, description="shrunk")]


class TestCostStep:
    """The advisor prices candidates with ``cost``: no functional join."""

    def test_estimate_runs_no_functional_join(self, advisor, monkeypatch):
        joins = []

        def counted(join):
            def counting(*args, **kwargs):
                joins.append(join)
                return join(*args, **kwargs)

            return counting

        for module in (triton, cpu_radix):
            join = counted(module.batched_radix_join)
            monkeypatch.setattr(module, "batched_radix_join", join)
        monkeypatch.setattr(
            NoPartitioningJoin,
            "functional",
            counted(NoPartitioningJoin.functional),
        )
        assert len(advisor.estimate(512, 512)) == 3
        assert joins == []

    @pytest.mark.parametrize("plan", FAULT_PLANS, ids=["clean", "shrunk"])
    @pytest.mark.parametrize("shape", [(128, 128), (512, 2048)])
    def test_cost_is_the_run_seconds(self, system, shape, plan):
        workload = generate_workload(*shape, scale_divisor=_COSTING_DIVISOR)
        operators = [make() for make in _default_candidates(system).values()]
        operators += [rung.factory(system) for rung in default_rungs()]
        with faults.injected(plan):
            for operator in operators:
                cost = _outcome(lambda: operator.cost(workload))
                assert cost == _outcome(lambda: operator.run(workload)), (
                    operator.name
                )
                if plan is None:
                    assert isinstance(cost, float)

    @pytest.mark.parametrize("cpu_fraction", [0.4, None])
    def test_coprocessing_estimate_is_the_collapsed_run(
        self, system, cpu_fraction
    ):
        operator = CoProcessingJoin(system, cpu_fraction=cpu_fraction)
        advisor = JoinAdvisor(system, candidates={"co": lambda: operator})
        workload = generate_workload(
            128, 128, scale_divisor=_COSTING_DIVISOR
        )
        with faults.injected(FAULT_PLANS[1]):
            (estimate,) = advisor.estimate(128, 128)
            run = operator.run(workload)
        assert not run.uses_gpu
        if cpu_fraction is not None:
            assert run.notes["collapsed"]["to"] == "cpu"
        assert estimate.seconds == run.seconds
