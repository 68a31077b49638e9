"""CPU+GPU co-processing join: one join split across both processors.

The Triton join keeps the GPU busy while the CPU mostly feeds it;
"Revisiting Co-Processing for Hash Joins on the Coupled CPU-GPU
Architecture" (PAPERS.md) shows that a single join goes faster when
*both* processors work on disjoint slices of the same partitioned
state. :class:`CoProcessingJoin` implements that strategy on the Triton
machinery:

- The join's radix space (the first-pass partitions) is split into two
  **contiguous partition ranges**: partitions ``[0, gpu_partitions)``
  run the Triton grouped-kernel path end to end (GPU-partitioned,
  hybrid-cached, pipelined second pass + join), partitions
  ``[gpu_partitions, fanout)`` run the multi-core CPU radix-join path
  (SWWC partitioning + cache-resident joins).
- Both sides execute **concurrently** in one simulated task graph: the
  GPU side's kernels and the CPU side's partition/join tasks share the
  machine's resource pools (the GPU's first pass reads base relations
  out of CPU memory, so both sides genuinely contend for
  ``cpu_mem_bw`` — the co-processing tax is emergent, not modeled).
- Functionally each side joins only its own partitions' tuples; hash
  partitions are disjoint, so merging the two :class:`JoinMatch`
  summaries is exact and byte-identical to the single-backend reference
  path (``reference=True`` computes the whole join in one pass for the
  cross-check, like PRs 1-2's reference modes).

The split fraction is a cost decision: :meth:`repro.advisor.JoinAdvisor.
recommend_split` searches it through this operator (golden-section over
the fraction, seeded by the Fig. 16b partitioning-throughput ratio).
``cpu_fraction=None`` asks the advisor at run time.

Under faults the operator **collapses to the surviving processor**
instead of failing: a GPU capacity loss or a permanent GPU task fault
re-plans all partitions CPU-ward (``cpu_fraction=1.0``), a permanent
CPU-side task fault re-plans them GPU-ward (``cpu_fraction=0.0``); soft
degradation (bandwidth brownouts) shifts the advisor's cost optimum
instead. The degradation ladder's ``coprocess`` rung
(:func:`repro.join.ladder.coprocess_rungs`) sits on top of the standard
ladder and therefore only falls through when *both* processors are gone.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.generator import Workload
from repro.errors import CapacityError, ConfigurationError, TaskFailedError
from repro.hashing.functions import hash_u64, radix_window
from repro.join.base import (
    NO_MATCH,
    JoinMatch,
    JoinOperator,
    JoinRun,
    merge_matches,
)
from repro.join.batched import batched_radix_join
from repro.join.cpu_radix import CpuRadixJoin, radix_bits_for
from repro.join.triton import TritonJoin
from repro.sim.tasks import Task, TaskGraph

#: Functional radix width cap shared with the single-backend operators.
_MAX_FUNCTIONAL_BITS = 10

#: Operator display name (the bench gate greps explain labels for it).
CO_PROCESS_NAME = "Co-Processing Join (CPU+GPU)"


@dataclass(frozen=True)
class CoProcessingJoin(JoinOperator):
    """One join, cost-split across the CPU and the GPU concurrently."""

    cpu_fraction: Optional[float] = None
    reference: bool = False
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cpu_fraction is not None and not 0.0 <= self.cpu_fraction <= 1.0:
            raise ConfigurationError("cpu_fraction must be in [0, 1]")

    @property
    def name(self) -> str:
        return self.label or CO_PROCESS_NAME

    @functools.cached_property
    def gpu_side(self) -> TritonJoin:
        """The Triton join that prices the GPU side's partitions."""
        return TritonJoin(self.system)

    @functools.cached_property
    def cpu_side(self) -> CpuRadixJoin:
        """The CPU radix join that prices the CPU side's partitions."""
        return CpuRadixJoin(self.system)

    def _cpu_side_tasks(self, side: Workload) -> List[Task]:
        """The CPU radix join's tasks, labelled as the CPU side's."""
        tasks = self.cpu_side.build_graph(side).tasks
        for task, name in zip(tasks, ("cpu_part", "cpu_join")):
            task.name = name
            task.phase = f"CPU {task.phase}"
        return tasks

    # -- split geometry ---------------------------------------------------------

    def _split_workload(
        self, workload: Workload, bits: int, boundary: int
    ) -> Tuple[Workload, Workload]:
        """The GPU- and CPU-side sub-workloads (contiguous radix ranges).

        Rows route by the same hashed-key radix window every partitioner
        uses, so "partitions [0, boundary) on the GPU" is exactly the
        contiguous range a real first pass would hand over. ``take``
        scales each side's nominal cardinality by its measured share,
        which keeps the cost model skew-aware.
        """
        sides = []
        for relation in (workload.build, workload.probe):
            selector = radix_window(hash_u64(relation.keys), bits, 0)
            on_gpu = selector < boundary
            sides.append(
                (
                    relation.take(np.nonzero(on_gpu)[0]),
                    relation.take(np.nonzero(~on_gpu)[0]),
                )
            )
        (build_gpu, build_cpu), (probe_gpu, probe_cpu) = sides
        gpu = Workload(config=workload.config, build=build_gpu, probe=probe_gpu)
        cpu = Workload(config=workload.config, build=build_cpu, probe=probe_cpu)
        return gpu, cpu

    # -- functional -------------------------------------------------------------

    def functional(
        self,
        workload: Workload,
        bits: int,
        bits2: int,
        sides: Tuple[Workload, Workload],
        **_,
    ) -> JoinMatch:
        """Join each side's partitions, merge the summaries.

        ``reference=True`` is the single-backend reference path: the
        whole workload through one batched radix join, which the split
        path must match byte for byte (hash partitions are disjoint and
        the checksums are modular sums, so they do).
        """
        if self.reference:
            return batched_radix_join(workload.build, workload.probe, bits, bits2)
        gpu, cpu = sides
        match = NO_MATCH
        if len(gpu.build) and len(gpu.probe):
            match = merge_matches(
                match, batched_radix_join(gpu.build, gpu.probe, bits, bits2)
            )
        if len(cpu.build) and len(cpu.probe):
            cpu_bits = radix_bits_for(max(cpu.build.nominal_rows, 1))
            match = merge_matches(
                match, batched_radix_join(cpu.build, cpu.probe, cpu_bits)
            )
        return match

    # -- cost -------------------------------------------------------------------

    def build_graph(
        self,
        workload: Workload,
        bits: int,
        boundary: int,
        sides: Tuple[Workload, Workload],
        **_,
    ) -> TaskGraph:
        """Both sides' task DAGs in one graph, no cross dependencies.

        The engine schedules them against the shared resource pools, so
        contention (the GPU's first-pass reads vs. the CPU side's
        partitioning traffic, both on ``cpu_mem_bw``) emerges from the
        fluid allocation rather than being hand-modeled.
        """
        fanout = 1 << bits
        gpu_side, cpu_side = sides
        graph = TaskGraph()
        if boundary > 0 and gpu_side.total_nominal_tuples > 0:
            graph.extend(self.gpu_side.build_graph(gpu_side).tasks)
        if boundary < fanout and cpu_side.total_nominal_tuples > 0:
            graph.extend(self._cpu_side_tasks(cpu_side))
        if not graph.tasks:
            raise ConfigurationError(
                "co-processing split produced an empty task graph"
            )
        return graph

    # -- per-side utilization ---------------------------------------------------

    @staticmethod
    def _busy_seconds(records, pool_resources: Tuple[str, ...]) -> float:
        """Union length of intervals of tasks demanding the pool."""
        intervals = sorted(
            (record.start, record.end)
            for record in records
            if any(
                record.demands.get(resource, 0.0) > 0
                for resource in pool_resources
            )
        )
        busy = cursor = 0.0
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                busy += end - start
                cursor = end
        return float(busy)

    def _side_utilization(self, sim) -> Dict[str, float]:
        """Busy seconds and idle fractions for each processor pool.

        "Busy" means a task demanding the pool's compute resource was in
        flight (GPU: ``gpu_sm``; CPU: ``cpu_cores`` — the CPU-located
        prefix sums of the Triton pipeline count as CPU work too).
        """
        records = sim.task_records
        makespan = sim.makespan_seconds
        gpu_busy = self._busy_seconds(
            records,
            ("gpu_sm", "gpu_mem_bw", "nvlink_to_gpu", "nvlink_to_cpu"),
        )
        cpu_busy = self._busy_seconds(records, ("cpu_cores",))

        def idle(busy: float) -> float:
            if makespan <= 0:
                return 0.0
            return max(0.0, 1.0 - busy / makespan)

        def bound(resources) -> Optional[str]:
            # The side's dominant resource by delivered-units share of
            # its capacity: "what would this side hit first if pushed?"
            shares = {
                name: sim.resource_busy_units.get(name, 0.0)
                / sim.resource_capacities[name]
                for name in resources
                if sim.resource_capacities.get(name)
            }
            if not shares or max(shares.values()) <= 0:
                return None
            return max(shares, key=lambda name: (shares[name], name))

        return {
            "gpu_busy_seconds": gpu_busy,
            "cpu_busy_seconds": cpu_busy,
            "gpu_idle_fraction": idle(gpu_busy),
            "cpu_idle_fraction": idle(cpu_busy),
            "gpu_bound": bound(
                ("gpu_sm", "gpu_mem_bw", "nvlink_to_gpu", "nvlink_to_cpu")
            ),
            "cpu_bound": bound(("cpu_cores", "cpu_mem_bw")),
        }

    # -- execution --------------------------------------------------------------

    def prepare(self, workload: Workload) -> dict:
        """The split at the record's fraction: the split space is the
        first-pass radix window, capped at the functional width."""
        plan = self.plan(workload)
        bits = min(plan.bits1, _MAX_FUNCTIONAL_BITS)
        # Partitions [0, boundary) go to the GPU side.
        boundary = int(round((1 << bits) * (1.0 - self.cpu_fraction)))
        return {
            "bits": bits,
            "bits2": plan.bits2,
            "boundary": boundary,
            "sides": self._split_workload(workload, bits, boundary),
        }

    def annotate(self, run: JoinRun, bits: int, boundary: int, **_) -> None:
        fanout = 1 << bits
        run.uses_gpu = boundary > 0
        run.notes["cpu_fraction"] = 1.0 - boundary / fanout
        run.notes["split"] = {
            "bits": bits,
            "fanout": fanout,
            "gpu_partitions": boundary,
            "cpu_partitions": fanout - boundary,
            "requested_cpu_fraction": self.cpu_fraction,
        }
        run.notes["utilization"] = self._side_utilization(run.sim)

    def _resolved(self, workload: Workload):
        """This record at a split fraction (the advisor's when
        ``cpu_fraction`` is None), and the advisor's split plan."""
        if self.cpu_fraction is not None:
            return self, None
        from repro.advisor import JoinAdvisor
        from repro.units import M_TUPLES

        split_plan = JoinAdvisor(self.system).recommend_split(
            workload.build.nominal_rows / M_TUPLES,
            workload.probe.nominal_rows / M_TUPLES,
            on_error="skip",
        )
        fraction = split_plan.cpu_fraction
        return dataclasses.replace(self, cpu_fraction=fraction), split_plan

    def _collapsing(self, step, workload: Workload):
        """``step(self, workload)`` (the skeleton's run or cost) and the
        collapse note: on a GPU capacity loss every partition shifts
        CPU-ward, on a permanent kernel failure onto the other side. A
        second failure propagates to the degradation ladder."""
        try:
            return step(self, workload), None
        except (CapacityError, TaskFailedError) as error:
            to_cpu = isinstance(error, CapacityError) or error.gpu
            fraction = 1.0 if to_cpu else 0.0
            survivor = dataclasses.replace(self, cpu_fraction=fraction)
            collapsed = {
                "to": "cpu" if to_cpu else "gpu",
                "reason": f"{type(error).__name__}: {error}",
            }
            return step(survivor, workload), collapsed

    def run(self, workload: Workload) -> JoinRun:
        operator, split_plan = self._resolved(workload)
        run, collapsed = operator._collapsing(JoinOperator.run, workload)
        if collapsed is not None:
            run.notes["collapsed"] = collapsed
        if split_plan is not None:
            run.notes["split_plan"] = {
                "cpu_fraction": split_plan.cpu_fraction,
                "seconds": split_plan.seconds,
                "seconds_all_gpu": split_plan.seconds_all_gpu,
                "seconds_all_cpu": split_plan.seconds_all_cpu,
                "seeded_fraction": split_plan.seeded_fraction,
            }
        return run

    def cost(self, workload: Workload):
        """The cost of the split :meth:`run` executes, collapse included
        (the advisor's split search costs its fixed-fraction candidates
        with the skeleton's :meth:`JoinOperator.cost`, uncollapsed)."""
        operator, _ = self._resolved(workload)
        return operator._collapsing(JoinOperator.cost, workload)[0]
