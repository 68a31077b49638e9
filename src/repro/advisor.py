"""Cost-based operator selection (the §1 optimizer angle).

The paper motivates robustness with the query optimizer's dilemma:
"spilling the join state to CPU memory results in a performance cliff
[and] cardinality estimates can be significantly wrong". This module is
the optimizer-side counterpart: given a workload and a system, it costs
every join operator through the simulator and recommends one,
optionally hedging against cardinality misestimates by evaluating each
candidate across an error band.

Only the nominal cardinalities decide a cost, so every candidate is
priced by its ``cost`` step on a minimal generated workload: the
simulated run with no functional join. That covers
:meth:`JoinAdvisor.estimate` (the path the degradation ladder ranks
its rungs with) and the co-processing split search
(:meth:`JoinAdvisor.recommend_split`).

The expected recommendation pattern, asserted in tests: the
no-partitioning join for comfortably in-core workloads and high
build:probe ratios, the Triton join elsewhere — and, under
cardinality uncertainty, the Triton join even near the cliff, because
its worst case degrades gracefully while the NP join's does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.data.generator import Workload, generate_workload
from repro.errors import ConfigurationError, PlanError, ReproError
from repro.hashing import HashScheme
from repro.hw.specs import SystemSpec
from repro.join import (
    CoProcessingJoin,
    CpuRadixJoin,
    NoPartitioningJoin,
    TritonJoin,
    run_cache,
)
from repro.join.base import JoinOperator
from repro.units import G_TUPLES

#: Functional arrays are irrelevant for costing; keep them minimal.
_COSTING_DIVISOR = 1 << 17

#: Golden-section search constant: (sqrt(5) - 1) / 2.
_GOLDEN = 0.6180339887498949

#: Default resolution of the split search: fractions closer than this
#: are indistinguishable at realistic partition fanouts (the operator
#: rounds the fraction to whole partitions anyway).
DEFAULT_SPLIT_TOLERANCE = 1.0 / 64.0

#: Search-candidate label: distinct from the final operator name so
#: explain documents (and the CI gate) can tell costing runs apart from
#: the production co-processing run.
_SEARCH_LABEL = "Co-Processing Join [split search]"


@dataclass(frozen=True)
class CostEstimate:
    """One candidate operator's estimated cost for one cardinality."""

    operator: str
    seconds: float
    throughput_g_tuples_per_s: float


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict."""

    operator: str
    estimates: List[CostEstimate]
    hedged: bool

    @property
    def best(self) -> CostEstimate:
        return self.estimates[0]


@dataclass(frozen=True)
class SplitEstimate:
    """One costed CPU/GPU split fraction."""

    cpu_fraction: float
    seconds: float


@dataclass(frozen=True)
class SplitPlan:
    """The advisor's co-processing verdict: how to split one join.

    ``seconds`` is the costing-simulator estimate at the chosen
    fraction; ``seconds_all_gpu`` / ``seconds_all_cpu`` are the
    single-backend endpoints of the same search (``inf`` when that
    endpoint was infeasible under the ambient fault plan), so callers
    can read the predicted co-processing speedup straight off the plan.
    """

    cpu_fraction: float
    seconds: float
    seconds_all_gpu: float
    seconds_all_cpu: float
    seeded_fraction: float
    tolerance: float
    estimates: Tuple[SplitEstimate, ...]

    @property
    def speedup_vs_best_single(self) -> float:
        """Predicted gain over the better single-backend endpoint."""
        best_single = min(self.seconds_all_gpu, self.seconds_all_cpu)
        if self.seconds <= 0 or best_single == float("inf"):
            return float("inf")
        return best_single / self.seconds


def _default_candidates(system: SystemSpec) -> Dict[str, Callable]:
    return {
        "triton": lambda: TritonJoin(system),
        "no_partitioning": lambda: NoPartitioningJoin(
            system, HashScheme.PERFECT
        ),
        "cpu_radix": lambda: CpuRadixJoin(system, HashScheme.PERFECT),
    }


class JoinAdvisor:
    """Costs join operators and recommends one per workload."""

    def __init__(
        self,
        system: SystemSpec,
        candidates: Optional[Dict[str, Callable]] = None,
    ) -> None:
        self.system = system
        if candidates is None:
            candidates = _default_candidates(system)
        if not candidates:
            raise ConfigurationError("advisor needs at least one candidate")
        self.candidates = candidates

    def estimate(
        self,
        build_m_tuples: float,
        probe_m_tuples: float,
        on_error: str = "raise",
    ) -> List[CostEstimate]:
        """All candidates' costs for one cardinality pair, best first.

        With ``on_error="skip"`` a candidate whose costing raises a
        :class:`~repro.errors.ReproError` (e.g. a capacity fault makes
        its plan infeasible) simply drops out of the ranking — this is
        how the degradation ladder asks "which rungs still work?" under
        an active fault plan.
        """
        if on_error not in ("raise", "skip"):
            raise ConfigurationError("on_error must be 'raise' or 'skip'")
        estimates = []
        for name, candidate in self.candidates.items():
            try:
                workload = generate_workload(
                    build_m_tuples, probe_m_tuples,
                    scale_divisor=_COSTING_DIVISOR,
                )
                seconds = candidate().cost(workload).makespan_seconds
            except ReproError:
                if on_error == "raise":
                    raise
                continue
            throughput = workload.total_nominal_tuples / seconds / G_TUPLES
            estimates.append(CostEstimate(name, seconds, throughput))
        return sorted(estimates, key=lambda e: e.seconds)

    def recommend(
        self,
        build_m_tuples: float,
        probe_m_tuples: Optional[float] = None,
        cardinality_error: float = 1.0,
    ) -> Recommendation:
        """Recommend an operator for the estimated cardinalities.

        ``cardinality_error`` hedges against misestimation: each
        candidate is costed at the estimate and at estimate × error, and
        ranked by its *worst* case — a robust (minimax) choice, which is
        exactly where the Triton join's graceful degradation pays.
        """
        if build_m_tuples <= 0:
            raise ConfigurationError("cardinality must be positive")
        if cardinality_error < 1.0:
            raise ConfigurationError("cardinality_error must be >= 1")
        probe_m = (
            probe_m_tuples if probe_m_tuples is not None else build_m_tuples
        )
        scenarios: Sequence = [(build_m_tuples, probe_m)]
        hedged = cardinality_error > 1.0
        if hedged:
            scenarios = [
                (build_m_tuples, probe_m),
                (
                    build_m_tuples * cardinality_error,
                    probe_m * cardinality_error,
                ),
            ]
        worst: Dict[str, CostEstimate] = {}
        for build_m, this_probe_m in scenarios:
            for estimate in self.estimate(build_m, this_probe_m):
                current = worst.get(estimate.operator)
                if current is None or estimate.seconds > current.seconds:
                    worst[estimate.operator] = estimate
        ranked = sorted(worst.values(), key=lambda e: e.seconds)
        return Recommendation(
            operator=ranked[0].operator, estimates=ranked, hedged=hedged
        )

    # -- co-processing split search -------------------------------------------

    def _split_seed(self, build_m: float, probe_m: float) -> float:
        """Initial CPU fraction from the Fig. 16b partitioning rates.

        Partitioning dominates both backends' runtime, so the
        throughput-proportional share ``cpu / (cpu + gpu)`` lands close
        to the balance point; the search only has to polish it. Lazy
        imports keep the advisor importable without the bench package.
        """
        from repro.bench.experiments.fig04_partition_locations import (
            cpu_partition_throughput,
            gpu_partition_throughput,
        )
        from repro.hw.tlb import MemSpace
        from repro.partition.planner import plan_radix_join
        from repro.units import GIB, M_TUPLES

        tuple_bytes = 16
        data_gib = (build_m + probe_m) * M_TUPLES * tuple_bytes / GIB
        fanout = plan_radix_join(
            int(build_m * M_TUPLES),
            int(probe_m * M_TUPLES),
            tuple_bytes,
            self.system,
        ).fanout1
        cpu_rate = cpu_partition_throughput(self.system, data_gib, fanout)
        gpu_rate = gpu_partition_throughput(
            self.system, data_gib, fanout, MemSpace.CPU
        )
        total = cpu_rate + gpu_rate
        if total <= 0:
            return 0.5
        return cpu_rate / total

    def _cost_split(
        self, workload: Workload, cpu_fraction: float, on_error: str
    ) -> float:
        """Costing-simulator seconds at one split fraction (inf = dead).

        Candidates run under the ambient fault plan, so an infeasible
        side (GPU memory below the pipeline reservation, a permanently
        failing kernel) costs ``inf`` with ``on_error="skip"`` and the
        search naturally converges on the surviving processor.
        """
        from repro import telemetry

        operator = CoProcessingJoin(
            self.system, cpu_fraction=cpu_fraction, label=_SEARCH_LABEL
        )
        try:
            # The skeleton's cost step, not the operator's: candidates
            # must not collapse on faults (infeasibility IS the signal).
            # They get a distinct span label so explain documents can
            # filter them out of the production runs.
            with telemetry.span(
                f"run:{_SEARCH_LABEL}", cpu_fraction=cpu_fraction
            ):
                sim = JoinOperator.cost(operator, workload)
                return float(sim.makespan_seconds)
        except ReproError:
            if on_error == "raise":
                raise
            return float("inf")

    def recommend_split(
        self,
        build_m_tuples: float,
        probe_m_tuples: Optional[float] = None,
        tolerance: float = DEFAULT_SPLIT_TOLERANCE,
        on_error: str = "raise",
    ) -> SplitPlan:
        """Search the CPU/GPU split fraction for one join's partitions.

        Golden-section search over the fraction of partitions assigned
        to the CPU, seeded by the Fig. 16b partitioning-throughput ratio
        and bracketed by the single-backend endpoints (0.0 = all GPU,
        1.0 = all CPU), which are always costed — so the returned plan
        is never worse than either single backend *at costing scale*.
        Each candidate runs the co-processing operator's simulated task
        graph through the fluid engine; the makespan is the cost.

        Plans are memoized per (system, cardinalities, tolerance,
        ambient fault plan) key when the run cache is enabled — the same
        key discipline as run memoization, so a plan searched under a
        brownout is never served to a healthy run.
        """
        if on_error not in ("raise", "skip"):
            raise ConfigurationError("on_error must be 'raise' or 'skip'")
        if build_m_tuples <= 0:
            raise ConfigurationError("cardinality must be positive")
        if not 0 < tolerance < 1:
            raise ConfigurationError("tolerance must be in (0, 1)")
        probe_m = (
            probe_m_tuples if probe_m_tuples is not None else build_m_tuples
        )
        plan_key = (
            self.system, build_m_tuples, probe_m, tolerance, faults.active()
        )
        hit = run_cache.cached_plan(plan_key)
        if hit is not None:
            return hit

        workload = generate_workload(
            build_m_tuples, probe_m, scale_divisor=_COSTING_DIVISOR
        )
        evaluated: Dict[float, float] = {}

        def cost(fraction: float) -> float:
            fraction = min(1.0, max(0.0, round(fraction, 6)))
            if fraction not in evaluated:
                evaluated[fraction] = self._cost_split(
                    workload, fraction, on_error
                )
            return evaluated[fraction]

        seed = min(1.0, max(0.0, self._split_seed(build_m_tuples, probe_m)))
        # Endpoints and seed first: the endpoints are the single-backend
        # references the plan must not lose to, and the seed recenters
        # the initial bracket around the throughput-proportional split.
        cost(0.0)
        cost(1.0)
        cost(seed)

        low, high = 0.0, 1.0
        x1 = high - _GOLDEN * (high - low)
        x2 = low + _GOLDEN * (high - low)
        f1, f2 = cost(x1), cost(x2)
        while (high - low) > tolerance:
            if f1 <= f2:
                high, x2, f2 = x2, x1, f1
                x1 = high - _GOLDEN * (high - low)
                f1 = cost(x1)
            else:
                low, x1, f1 = x1, x2, f2
                x2 = low + _GOLDEN * (high - low)
                f2 = cost(x2)

        finite = {f: s for f, s in evaluated.items() if s != float("inf")}
        if not finite:
            raise PlanError(
                "no feasible CPU/GPU split: every costed fraction failed "
                "under the active fault plan"
            )
        best_fraction = min(finite, key=lambda f: (finite[f], f))
        plan = SplitPlan(
            cpu_fraction=best_fraction,
            seconds=finite[best_fraction],
            seconds_all_gpu=evaluated[0.0],
            seconds_all_cpu=evaluated[1.0],
            seeded_fraction=seed,
            tolerance=tolerance,
            estimates=tuple(
                SplitEstimate(cpu_fraction=f, seconds=s)
                for f, s in sorted(evaluated.items())
            ),
        )
        run_cache.store_plan(plan_key, plan)
        return plan
