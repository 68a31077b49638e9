"""The Triton join: a GPU-partitioned, hierarchical hybrid hash join.

Implements the paper's section 5 end to end:

- **1st pass** (section 5.1): the GPU radix-partitions R and S by the
  lowest B1 hashed-key bits with the Hierarchical partitioner, reading
  the base relations from pageable CPU memory over the fast interconnect
  and writing the partitioned state to the hybrid cache.
- **Caching** (section 5.3): the intermediate state lives in a virtual
  array of interleaved GPU/CPU pages; the GPU fraction follows the cache
  plan (by default: all GPU memory left after the pipeline reservation).
- **2nd pass + join with overlap** (section 5.2): partition pairs stream
  through a two-stage pipeline on concurrent kernels, each restricted to
  half the SMs: the second pass (Shared partitioner, B2 bits) reads the
  cached/spilled state and writes GPU memory; the join kernel builds a
  scratchpad bucket-chaining table per final partition, probes it, and
  materializes results to CPU memory. An optional third pass handles
  radix bits beyond B1+B2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import faults
from repro.data.generator import Workload
from repro.errors import CapacityError, ConfigurationError
from repro.hashing.hash_table import HashScheme
from repro.hw.gpu import GpuModel, MemoryRequest
from repro.hw.interconnect import AccessPattern, Op
from repro.hw.tlb import MemSpace
from repro.join import base
from repro.join.base import JoinOperator, JoinRun
from repro.join.batched import batched_radix_join, reference_radix_join
from repro.join.caching import (
    PIPELINE_RESERVED_BYTES,
    CachePlan,
    CachePolicy,
    plan_cache,
)
from repro.partition.base import GpuPartitioner
from repro.partition.hierarchical import HierarchicalPartitioner
from repro.partition.planner import RadixPlan
from repro.partition.prefix_sum import (
    CPU_OPS_PER_TUPLE,
    GPU_SLOTS_PER_TUPLE,
    PrefixSumLocation,
)
from repro.partition.shared import SharedPartitioner
from repro.sim.kernels import CpuTaskBuilder, GpuKernelBuilder
from repro.sim.tasks import Task, TaskGraph
from repro.hw.cpu import CpuModel

#: Pipeline depth: partition pairs are processed in chunks so the second
#: pass of chunk i+1 overlaps the join of chunk i (Fig. 11). The paper
#: pipelines pairs; a modest chunk count models the same steady state.
DEFAULT_PIPELINE_CHUNKS = 8

#: Issue slots per tuple in the join kernel (scratchpad hash build and
#: probe; scratchpad atomics replay on conflicts). The join kernel issues
#: instructions 42-48% of its cycles in the paper (Fig. 15b).
BUILD_SLOTS_PER_TUPLE = {
    HashScheme.BUCKET_CHAINING: 6.0,
    HashScheme.PERFECT: 4.0,
}
PROBE_SLOTS_PER_TUPLE = {
    HashScheme.BUCKET_CHAINING: 4.0,
    HashScheme.PERFECT: 3.0,
}
#: Issue slots per tuple for the join task scheduler kernel.
SCHED_SLOTS_PER_TUPLE = 0.3


def _sequential(op: Op, space: MemSpace, duplex: bool = False) -> MemoryRequest:
    """A sequential 128-byte stream whose bytes each chunk supplies."""
    return MemoryRequest(
        total_bytes=0.0,
        access_bytes=128,
        op=op,
        space=space,
        pattern=AccessPattern.SEQUENTIAL,
        duplex=duplex,
    )


def first_pass_task(
    builder: GpuKernelBuilder,
    partitioner: GpuPartitioner,
    tuples: float,
    tuple_bytes: int,
    fanout: int,
    gpu_fraction: float,
    system,
) -> Task:
    """Partition tuples out of CPU memory into the hybrid cache.

    The cached share is written to GPU memory, the rest spills back to
    CPU memory; both shares come from one sequential read of the base
    data, full duplex only when state actually spills.
    """
    scratch = system.gpu.usable_scratchpad_bytes
    spilled_tuples = tuples * (1.0 - gpu_fraction)
    cached_tuples = tuples * gpu_fraction
    requests: List[MemoryRequest] = []
    issue_slots = 0.0
    if spilled_tuples > 0:
        work = partitioner.gpu_work(
            spilled_tuples, tuple_bytes, fanout,
            MemSpace.CPU, MemSpace.CPU, scratch,
        )
        requests.extend(r for r in work.requests if r.op is Op.WRITE or
                        r.space is MemSpace.GPU)
        issue_slots += work.issue_slots
    if cached_tuples > 0:
        work = partitioner.gpu_work(
            cached_tuples, tuple_bytes, fanout,
            MemSpace.CPU, MemSpace.GPU, scratch,
        )
        requests.extend(r for r in work.requests if r.op is Op.WRITE)
        issue_slots += work.issue_slots
    requests.append(
        MemoryRequest(
            total_bytes=tuples * tuple_bytes,
            access_bytes=128,
            op=Op.READ,
            space=MemSpace.CPU,
            pattern=AccessPattern.SEQUENTIAL,
            duplex=spilled_tuples > 0,
        )
    )
    return builder.build(
        name="part1",
        phase="Part 1",
        requests=requests,
        instructions=issue_slots,
        tuples=tuples,
    )


@dataclass(frozen=True)
class TritonJoin(JoinOperator):
    """The paper's contribution (sections 4-5).

    ``degraded=True`` is the degradation ladder's spill rung: cache
    nothing, run a plain two-pass out-of-core radix join, and tolerate a
    GPU whose free memory has shrunk below the nominal pipeline
    reservation.
    """

    scheme: HashScheme = HashScheme.BUCKET_CHAINING
    first_pass: GpuPartitioner = HierarchicalPartitioner()
    cache_policy: CachePolicy = CachePolicy.EVEN_INTERLEAVED
    cache_bytes: Optional[float] = None
    prefix_sum: PrefixSumLocation = PrefixSumLocation.CPU
    overlap: bool = True
    aggregate: bool = False
    reference: bool = False
    degraded: bool = False

    name = "GPU Triton Join"
    second_pass = SharedPartitioner()

    def __post_init__(self) -> None:
        if self.scheme not in BUILD_SLOTS_PER_TUPLE:
            raise ConfigurationError(f"unsupported Triton scheme: {self.scheme}")

    @functools.cached_property
    def gpu_builder(self) -> GpuKernelBuilder:
        return GpuKernelBuilder(GpuModel(self.system))

    @functools.cached_property
    def cpu_builder(self) -> CpuTaskBuilder:
        return CpuTaskBuilder(CpuModel(self.system.cpu))

    # -- planning ---------------------------------------------------------------

    def cache_plan(self, workload: Workload) -> CachePlan:
        state_bytes = float(workload.total_nominal_bytes)
        capacity = faults.effective_gpu_memory(self.system.gpu_memory_capacity)
        if not self.degraded and capacity < PIPELINE_RESERVED_BYTES:
            # The pipeline's own buffers no longer fit: the nominal plan
            # is infeasible. The degradation ladder catches this and
            # retries with ``degraded=True`` (no cache, smaller
            # footprint) before leaving the GPU.
            raise CapacityError(
                f"GPU memory shrunk to {capacity / 2**30:.2f} GiB, below "
                f"the {PIPELINE_RESERVED_BYTES / 2**30:.2f} GiB pipeline "
                "reservation"
            )
        return plan_cache(
            state_bytes,
            capacity,
            policy=CachePolicy.NONE if self.degraded else self.cache_policy,
            cache_bytes=self.cache_bytes,
        )

    # -- functional ---------------------------------------------------------------

    def prepare(self, workload: Workload) -> dict:
        """The radix and cache plans."""
        return {"plan": self.plan(workload), "cache": self.cache_plan(workload)}

    def buffers(self, workload: Workload, plan: RadixPlan, **_) -> dict:
        """The pass-1 histogram array the functional join fills for
        :meth:`build_graph` to weight the pipeline with (a cost-only
        call histograms the relations in :meth:`chunk_weights`)."""
        return {"histogram": np.empty(1 << min(plan.bits1, 10), dtype=np.int64)}

    def functional(
        self,
        workload: Workload,
        plan: RadixPlan,
        histogram: Optional[np.ndarray] = None,
        **_,
    ) -> base.JoinMatch:
        """Execute the multi-pass partitioned join on the scaled arrays.

        ``reference=True`` runs :func:`reference_radix_join`, the
        per-partition loop tests cross-check the batched path against.
        ``histogram``, when given, receives the pass-1 histogram (build
        + probe partition sizes).
        """
        join = reference_radix_join if self.reference else batched_radix_join
        return join(
            workload.build, workload.probe, min(plan.bits1, 10), plan.bits2,
            histogram=histogram,
        )

    # -- cost ---------------------------------------------------------------------

    def _prefix_sum_task(self, tuples: float) -> Task:
        """The pass-1 histogram + scan over the base relations' key columns.

        It reads the keys from CPU memory, on the CPU or the GPU per
        configuration. The pass-2 prefix sums are built per chunk in
        :meth:`build_graph`.
        """
        column_bytes = tuples * 8
        if self.prefix_sum is PrefixSumLocation.CPU:
            return self.cpu_builder.build(
                name="ps1",
                phase="PS 1",
                read_bytes=column_bytes,
                operations=tuples * CPU_OPS_PER_TUPLE,
                tuples=tuples,
            )
        return self.gpu_builder.build(
            name="ps1",
            phase="PS 1",
            requests=[
                MemoryRequest(
                    total_bytes=column_bytes,
                    access_bytes=128,
                    op=Op.READ,
                    space=MemSpace.CPU,
                    pattern=AccessPattern.SEQUENTIAL,
                )
            ],
            instructions=tuples * GPU_SLOTS_PER_TUPLE,
            tuples=tuples,
        )

    def _second_pass_requests(
        self, plan: RadixPlan, tuple_bytes: int
    ) -> Tuple[List[MemoryRequest], List[float]]:
        """The pass-2 kernel's requests and its issue slots per tuple.

        The spilled part of a chunk was copied into GPU memory by the
        pass-2 prefix sum, so this kernel reads and writes GPU memory
        only ("the second pass ... writes its results to GPU memory",
        section 5.1); an optional third pass is another in-GPU-memory
        pass. Every request moves the chunk's whole state, so the
        requests carry no bytes: :meth:`build_graph` passes them per
        chunk.
        """
        scratch = self.system.gpu.usable_scratchpad_bytes
        requests = [_sequential(Op.READ, MemSpace.GPU)]
        slots_per_tuple: List[float] = []

        def scatter(fanout: int) -> MemoryRequest:
            profile = self.second_pass.write_profile(
                fanout, tuple_bytes, scratch, MemSpace.GPU
            )
            slots_per_tuple.append(profile.issue_slots_per_tuple)
            return MemoryRequest(
                total_bytes=0.0,
                access_bytes=profile.flush_bytes,
                op=Op.WRITE,
                space=MemSpace.GPU,
                pattern=AccessPattern.RANDOM,
                stream_count=fanout,
            )

        if plan.bits2:
            requests.append(scatter(1 << plan.bits2))
        if plan.passes > 2:
            requests += [
                _sequential(Op.READ, MemSpace.GPU),
                scatter(1 << plan.bits_per_pass[2]),
            ]
        return requests, slots_per_tuple

    def chunk_weights(
        self,
        workload: Workload,
        plan: RadixPlan,
        histogram: Optional[np.ndarray] = None,
    ) -> List[float]:
        """Pipeline chunk weights from the *actual* partition sizes.

        The paper's workloads are uniform, so chunks carry equal shares;
        under skew (Zipf foreign keys) the first-pass partitions are
        unbalanced and the pipeline's chunks inherit that imbalance —
        the straggling heavy chunk lengthens the join tail. Weights are
        measured on the materialized data and normalized to sum to 1.
        ``histogram`` is the functional join's pass-1 histogram (build +
        probe partition sizes, see :meth:`functional`); without
        it, the relations are histogrammed here.
        """
        bits = min(plan.bits1, 10)
        if histogram is None:
            from repro.partition.radix import radix_histogram

            histogram = sum(
                radix_histogram(relation.keys, bits)
                for relation in (workload.build, workload.probe)
            )
        elif len(histogram) != 1 << bits:
            raise ConfigurationError(
                f"histogram has {len(histogram)} partitions, "
                f"the plan {1 << bits}"
            )
        sizes = np.asarray(histogram).astype(float)
        total = sizes.sum()
        chunks = DEFAULT_PIPELINE_CHUNKS
        if total == 0:
            return [1.0 / chunks] * chunks
        # Contiguous partition ranges map to pipeline chunks.
        bounds = [
            int(round(i * len(sizes) / chunks)) for i in range(chunks + 1)
        ]
        weights = [
            float(sizes[lo:hi].sum()) / total
            for lo, hi in zip(bounds, bounds[1:])
        ]
        # Guard against empty chunks (degenerate tiny inputs).
        floor = 1e-9
        return [max(w, floor) for w in weights]

    def build_graph(
        self,
        workload: Workload,
        histogram: Optional[np.ndarray] = None,
        plan: Optional[RadixPlan] = None,
        cache: Optional[CachePlan] = None,
    ) -> TaskGraph:
        """The complete simulated execution DAG for one workload.

        ``histogram`` is the functional join's pass-1 histogram, and
        ``plan`` and ``cache`` the workload's radix and cache plans
        (a run passes all three, :meth:`cost` the two plans); standalone
        callers leave them out and they are computed here.

        The chunk kernels' requests are made once per graph: chunks
        differ only in the bytes and tuples they carry.
        """
        if plan is None:
            plan = self.plan(workload)
        if cache is None:
            cache = self.cache_plan(workload)
        tuples = float(workload.total_nominal_tuples)
        tuple_bytes = workload.build.tuple_bytes

        ps1 = self._prefix_sum_task(tuples)
        part1 = first_pass_task(
            self.gpu_builder, self.first_pass, tuples, tuple_bytes,
            plan.fanout1, cache.gpu_fraction, self.system,
        ).depends_on(ps1)

        graph = TaskGraph([ps1, part1])
        weights = self.chunk_weights(workload, plan, histogram)
        sm_fraction = 0.5 if self.overlap else 1.0
        # The spill-copying prefix sums are memory-bound; they run as a
        # third, thin kernel stream (the paper schedules the four
        # join-phase kernels over multiple CUDA streams, Fig. 11).
        ps2_fraction = 0.25 if self.overlap else 1.0

        # The pass-2 prefix sum histograms the cached part's key column
        # and *copies the spilled tuples into GPU memory* while it is at
        # it, "to avoid redundant transfers by subsequent kernels"
        # (section 6.2.3) -- which is why spilling shows up as prefix-sum
        # time in Fig. 15.
        ps2_requests = [
            _sequential(Op.READ, MemSpace.CPU, duplex=not self.aggregate),
            _sequential(Op.WRITE, MemSpace.GPU),
            _sequential(Op.READ, MemSpace.GPU),
        ]
        part2_requests, part2_slots = self._second_pass_requests(
            plan, tuple_bytes
        )
        # The join kernel builds + probes scratchpad hash tables and
        # materializes results to CPU memory (an aggregating join writes
        # none: its write gets zero bytes, which the builder skips).
        join_requests = [
            _sequential(Op.READ, MemSpace.GPU),
            _sequential(
                Op.WRITE, MemSpace.CPU, duplex=cache.spilled_fraction > 0
            ),
        ]
        matches = base.nominal_matches(workload)
        build_slots = BUILD_SLOTS_PER_TUPLE[self.scheme]
        probe_slots = PROBE_SLOTS_PER_TUPLE[self.scheme]
        build_rows = workload.build.nominal_rows
        probe_rows = workload.probe.nominal_rows
        total_tuples = workload.total_nominal_tuples

        previous_ps2: Optional[Task] = None
        previous_part2: Optional[Task] = None
        previous_join: Optional[Task] = None
        for c in range(DEFAULT_PIPELINE_CHUNKS):
            chunk_tuples = tuples * weights[c]
            state_bytes = chunk_tuples * tuple_bytes
            gpu_bytes, spilled_bytes = base.split_gpu_cpu(
                state_bytes, cache.gpu_fraction
            )
            ps2 = self.gpu_builder.build(
                f"ps2[{c}]",
                ps2_requests,
                request_bytes=(
                    spilled_bytes, spilled_bytes, gpu_bytes * 8 / tuple_bytes
                ),
                instructions=chunk_tuples * GPU_SLOTS_PER_TUPLE,
                phase="PS 2",
                tuples=chunk_tuples,
                sm_fraction=ps2_fraction,
            )
            part2_instructions = 0.0
            for per_tuple in part2_slots:
                part2_instructions += chunk_tuples * per_tuple
            part2 = self.gpu_builder.build(
                f"part2[{c}]",
                part2_requests,
                request_bytes=[state_bytes] * len(part2_requests),
                instructions=part2_instructions,
                phase="Part 2",
                tuples=chunk_tuples,
                sm_fraction=sm_fraction,
            )
            # The join task scheduler kernel (one of the four join-phase
            # kernels in Fig. 15).
            sched = self.gpu_builder.build(
                f"sched[{c}]",
                [],
                instructions=chunk_tuples * SCHED_SLOTS_PER_TUPLE,
                phase="Sched",
                sm_fraction=sm_fraction,
            )
            share = chunk_tuples / total_tuples
            join = self.gpu_builder.build(
                f"join[{c}]",
                join_requests,
                request_bytes=(
                    state_bytes,
                    0.0 if self.aggregate
                    else base.result_bytes(matches * share),
                ),
                instructions=(
                    build_rows * share * build_slots
                    + probe_rows * share * probe_slots
                ),
                phase="Join",
                tuples=chunk_tuples,
                sm_fraction=sm_fraction,
            )
            ps2.depends_on(part1)
            part2.depends_on(ps2)
            sched.depends_on(part2)
            join.depends_on(sched)
            if self.overlap:
                # Each kernel kind forms its own pipelined stream: the
                # copy of chunk c+1 overlaps the partitioning of chunk c,
                # which overlaps the join of chunk c-1.
                if previous_ps2 is not None:
                    ps2.depends_on(previous_ps2)
                if previous_part2 is not None:
                    part2.depends_on(previous_part2)
                if previous_join is not None:
                    join.depends_on(previous_join)
            elif previous_join is not None:
                # Without overlap the whole pipeline serializes.
                ps2.depends_on(previous_join)
            previous_ps2, previous_part2, previous_join = ps2, part2, join
            graph.extend([ps2, part2, sched, join])
        return graph

    def annotate(
        self, run: JoinRun, plan: RadixPlan, cache: CachePlan, **_
    ) -> None:
        # The hybrid-hash-R0 ablation policy loses transfer/compute
        # overlap: the spilled transfer time no longer hides behind the
        # cached partitions' processing (section 5.3's hypothetical).
        if cache.policy is CachePolicy.HYBRID_HASH_R0 and cache.spilled_fraction > 0:
            spill_bytes = cache.state_bytes * cache.spilled_fraction
            lost_overlap = spill_bytes / self.system.interconnect.effective_bytes_per_s
            run.seconds += 0.5 * lost_overlap
        run.notes["plan_bits"] = plan.bits_per_pass
        run.notes["gpu_fraction"] = cache.gpu_fraction
        run.notes["state_bytes"] = cache.state_bytes
