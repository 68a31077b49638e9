"""The CPU-partitioned GPU join strategy (Sioulas et al., section 3.1).

The prior state of the art for out-of-core GPU joins under a slow
interconnect: the CPU radix-partitions both relations into working sets
that fit GPU memory, streams them to the GPU, and the GPU performs the
second pass and the join. Partitioning the outer relation overlaps with
transferring/joining the inner one, and the working set is cached in GPU
memory.

The paper reimplements this strategy on the AC922 (section 6.2.4) and
shows why it loses to the GPU-partitioned Triton join on a fast
interconnect: the CPU cannot partition fast enough to saturate the link
(section 3.1's rate argument), and the partitioned copy must be written
to and re-read from CPU memory, consuming memory bandwidth. Both effects
are emergent here: the CPU partition tasks are compute-bound near
2 G tuples/s, and their memory traffic shares the CPU_MEM_BW resource
with the GPU's link reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from repro.data.generator import Workload
from repro.hashing.hash_table import HashScheme
from repro.hw.cpu import CpuModel
from repro.hw.gpu import GpuModel, MemoryRequest
from repro.hw.interconnect import AccessPattern, Op
from repro.hw.tlb import MemSpace
from repro.join import base
from repro.join.base import JoinOperator, JoinRun
from repro.join.batched import batched_radix_join, reference_radix_join
from repro.partition.planner import RadixPlan
from repro.partition.shared import SharedPartitioner
from repro.partition.swwc import CpuSwwcPartitioner
from repro.sim.kernels import CpuTaskBuilder, GpuKernelBuilder
from repro.sim.tasks import Task, TaskGraph
from repro.join.triton import (
    BUILD_SLOTS_PER_TUPLE,
    DEFAULT_PIPELINE_CHUNKS,
    PROBE_SLOTS_PER_TUPLE,
)

#: The GPU's in-memory second pass over each transferred working set.
SECOND_PASS = SharedPartitioner()
#: The GPU joins each working set with scratchpad bucket chaining.
BUILD_SLOTS = BUILD_SLOTS_PER_TUPLE[HashScheme.BUCKET_CHAINING]
PROBE_SLOTS = PROBE_SLOTS_PER_TUPLE[HashScheme.BUCKET_CHAINING]


@dataclass(frozen=True)
class CpuPartitionedJoin(JoinOperator):
    """CPU partitions, GPU joins — the Fig. 3 strategy."""

    reference: bool = False

    name = "CPU-Partitioned Radix Join"

    @functools.cached_property
    def cpu_builder(self) -> CpuTaskBuilder:
        return CpuTaskBuilder(CpuModel(self.system.cpu))

    @functools.cached_property
    def partitioner(self) -> CpuSwwcPartitioner:
        return CpuSwwcPartitioner(self.cpu_builder.cpu)

    @functools.cached_property
    def gpu_builder(self) -> GpuKernelBuilder:
        return GpuKernelBuilder(GpuModel(self.system))

    def prepare(self, workload: Workload) -> dict:
        return {"plan": self.plan(workload)}

    # -- functional -----------------------------------------------------------

    def functional(self, workload: Workload, plan: RadixPlan) -> base.JoinMatch:
        join = reference_radix_join if self.reference else batched_radix_join
        return join(
            workload.build, workload.probe, min(plan.bits1, 10), plan.bits2
        )

    # -- cost -----------------------------------------------------------------

    def _cpu_partition_task(
        self, name: str, tuples: float, tuple_bytes: int, fanout: int
    ) -> Task:
        work = self.partitioner.work(tuples, tuple_bytes, fanout)
        return self.cpu_builder.build(
            name=name,
            phase="CPU Partition",
            read_bytes=work.read_bytes,
            write_bytes=work.write_bytes,
            operations=work.operations,
            tuples=tuples,
        )

    def _gpu_chunk_task(
        self, chunk: int, workload: Workload, tuples: float, plan: RadixPlan
    ) -> Task:
        """Transfer one working set, second-pass it, and join it."""
        tuple_bytes = workload.build.tuple_bytes
        total_bytes = tuples * tuple_bytes
        scratch = self.system.gpu.usable_scratchpad_bytes
        share = tuples / workload.total_nominal_tuples
        requests = [
            # Stream the working set from the partitioned copy in CPU
            # memory (this read also consumes CPU memory bandwidth, which
            # the concurrent CPU partitioning is fighting for).
            MemoryRequest(
                total_bytes=total_bytes,
                access_bytes=128,
                op=Op.READ,
                space=MemSpace.CPU,
                pattern=AccessPattern.SEQUENTIAL,
            )
        ]
        issue_slots = 0.0
        if plan.bits2:
            fanout2 = 1 << plan.bits2
            profile = SECOND_PASS.write_profile(
                fanout2, tuple_bytes, scratch, MemSpace.GPU
            )
            requests.append(
                MemoryRequest(
                    total_bytes=total_bytes,
                    access_bytes=profile.flush_bytes,
                    op=Op.WRITE,
                    space=MemSpace.GPU,
                    pattern=AccessPattern.RANDOM,
                    stream_count=fanout2,
                )
            )
            issue_slots += tuples * profile.issue_slots_per_tuple
        requests.append(
            MemoryRequest(
                total_bytes=total_bytes,
                access_bytes=128,
                op=Op.READ,
                space=MemSpace.GPU,
                pattern=AccessPattern.SEQUENTIAL,
            )
        )
        requests.append(
            MemoryRequest(
                total_bytes=base.result_bytes(
                    base.nominal_matches(workload) * share
                ),
                access_bytes=128,
                op=Op.WRITE,
                space=MemSpace.CPU,
                pattern=AccessPattern.SEQUENTIAL,
            )
        )
        issue_slots += (
            workload.build.nominal_rows * share * BUILD_SLOTS
            + workload.probe.nominal_rows * share * PROBE_SLOTS
        )
        return self.gpu_builder.build(
            name=f"gpu[{chunk}]",
            phase="GPU Join",
            requests=requests,
            instructions=issue_slots,
            tuples=tuples,
        )

    def build_graph(
        self, workload: Workload, plan: Optional[RadixPlan] = None
    ) -> TaskGraph:
        """CPU partitioning of R, then S's chunks feeding the GPU joins.

        The inner relation must be fully partitioned before the join
        starts (Fig. 3); the outer relation's partitioning overlaps
        with the transfer/join pipeline.
        """
        if plan is None:
            plan = self.plan(workload)
        tuple_bytes = workload.build.tuple_bytes
        build_tuples = float(workload.build.nominal_rows)
        probe_tuples = float(workload.probe.nominal_rows)
        chunks = DEFAULT_PIPELINE_CHUNKS

        part_r = self._cpu_partition_task(
            "cpu_part_R", build_tuples, tuple_bytes, plan.fanout1
        )
        graph = TaskGraph([part_r])
        previous_gpu: Optional[Task] = None
        previous_part_s: Task = part_r
        for c in range(chunks):
            part_s = self._cpu_partition_task(
                f"cpu_part_S[{c}]", probe_tuples / chunks, tuple_bytes, plan.fanout1
            ).depends_on(previous_part_s)
            gpu = self._gpu_chunk_task(
                c, workload, (build_tuples + probe_tuples) / chunks, plan
            ).depends_on(part_s)
            if previous_gpu is not None:
                gpu.depends_on(previous_gpu)
            previous_gpu = gpu
            previous_part_s = part_s
            graph.extend([part_s, gpu])
        return graph

    def annotate(self, run: JoinRun, plan: RadixPlan) -> None:
        run.notes["plan_bits"] = plan.bits_per_pass
