"""Hierarchical software write-combining (the paper's algorithm, §4.3).

Extends Shared with a second buffer level in GPU memory: a full L1
(scratchpad) buffer is evicted into its partition's L2 buffer; a full L2
buffer is swapped against a spare from a per-warp pool (double
buffering), unlocked, and flushed to CPU memory *asynchronously*. The
flush granularity to CPU memory is therefore the L2 buffer size — large
and constant — regardless of fanout, which keeps writes perfectly
coalesced and slashes GPU TLB misses at high fanouts (Fig. 18d: 771x
fewer than Shared at fanout 2048).

Costs relative to Shared: every tuple moves through GPU memory twice
(L2-buffer write + flush read-back), the flush pipeline loses efficiency
when tiny L1 buffers cannot hide the flush latency behind fills, and the
fill/evict path issues more instructions (the Fig. 18e compute-utilization
rise).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.gpu import MemoryRequest
from repro.hw.interconnect import AccessPattern, Op
from repro.hw.tlb import MemSpace
from repro.partition.base import (
    BASE_ISSUE_SLOTS_PER_TUPLE,
    DesignGoals,
    GpuPartitioner,
    WriteProfile,
    buffer_tuples_per_partition,
    flush_underutilization,
)
from repro.units import KIB


@dataclass(frozen=True)
class HierarchicalPartitioner(GpuPartitioner):
    """Two-level SWWC with asynchronous double-buffered L2 flushes."""

    name = "Hierarchical"
    design_goals = DesignGoals(
        space_efficient=True,
        perfect_coalescing=True,
        high_fanout=True,
    )

    #: Issue slots per tuple for evict + flush handling, per
    #: warp-underutilization unit (higher than Shared: two buffer levels
    #: plus spare-pool management). Calibrated against Fig. 18e (up to
    #: ~43% issue-slot utilization at fanout 2048) and Fig. 24 (the
    #: first pass turns compute-bound below ~25 SMs).
    FLUSH_SLOTS_PER_TUPLE = 6.0
    #: L1 buffer sizes below this many tuples cannot keep the spare-pool
    #: double buffering ahead of the link; flush efficiency drops.
    #: (4 tuples = fanout 1024 with the default 64 KiB scratchpad — the
    #: Triton join's largest first-pass fanout still pipelines fully,
    #: matching Fig. 16b, while the fanout-2048 point of Fig. 18a drops
    #: to the measured 38.3 GiB/s.)
    MIN_PIPELINED_BUFFER_TUPLES = 4
    REDUCED_PIPELINE_EFFICIENCY = 0.7

    #: Size of one L2 (GPU-memory) buffer: the flush granularity to CPU
    #: memory.
    l2_buffer_bytes: int = 16 * KIB

    def buffer_tuples(
        self, fanout: int, tuple_bytes: int, scratchpad_bytes: int
    ) -> int:
        """L1 (scratchpad) buffer slots per partition."""
        return buffer_tuples_per_partition(fanout, tuple_bytes, scratchpad_bytes)

    def write_profile(
        self, fanout: int, tuple_bytes: int, scratchpad_bytes: int, dst: MemSpace
    ) -> WriteProfile:
        l1_tuples = self.buffer_tuples(fanout, tuple_bytes, scratchpad_bytes)
        l1_bytes = l1_tuples * tuple_bytes
        total_per_tuple_slots = (
            BASE_ISSUE_SLOTS_PER_TUPLE
            + self.FLUSH_SLOTS_PER_TUPLE * flush_underutilization(l1_tuples)
        )
        efficiency = (
            self.REDUCED_PIPELINE_EFFICIENCY
            if l1_tuples < self.MIN_PIPELINED_BUFFER_TUPLES
            else 1.0
        )
        if dst is MemSpace.GPU:
            # In-GPU passes behave like Shared: no reason for the L2
            # detour when the destination is already GPU memory.
            return WriteProfile(
                flush_bytes=l1_bytes,
                aligned=True,
                issue_slots_per_tuple=total_per_tuple_slots,
                write_efficiency=efficiency,
            )
        return WriteProfile(
            flush_bytes=self.l2_buffer_bytes,
            aligned=True,
            issue_slots_per_tuple=total_per_tuple_slots,
            extra_requests=[
                # L1 -> L2 evictions: scattered writes into GPU memory at
                # L1-buffer granularity. Total volume is attached by
                # gpu_work below.
            ],
            write_efficiency=efficiency,
        )

    def gpu_work(self, tuples, tuple_bytes, fanout, src, dst, scratchpad_bytes,
                 dst_footprint_bytes=None):
        """Assemble work, adding the GPU-memory L2 detour for spills."""
        work = super().gpu_work(
            tuples, tuple_bytes, fanout, src, dst, scratchpad_bytes,
            dst_footprint_bytes=dst_footprint_bytes,
        )
        if dst is MemSpace.GPU:
            return work
        total_bytes = tuples * tuple_bytes
        l1_tuples = self.buffer_tuples(fanout, tuple_bytes, scratchpad_bytes)
        l1_bytes = max(l1_tuples * tuple_bytes, 1)
        requests = list(work.requests)
        requests.extend(
            [
                # L1 -> L2 evictions (scattered GPU-memory writes).
                MemoryRequest(
                    total_bytes=total_bytes,
                    access_bytes=l1_bytes,
                    op=Op.WRITE,
                    space=MemSpace.GPU,
                    pattern=AccessPattern.RANDOM,
                ),
                # L2 flush read-back (sequential GPU-memory reads).
                MemoryRequest(
                    total_bytes=total_bytes,
                    access_bytes=self.l2_buffer_bytes,
                    op=Op.READ,
                    space=MemSpace.GPU,
                    pattern=AccessPattern.SEQUENTIAL,
                ),
            ]
        )
        return type(work)(
            requests=requests,
            issue_slots=work.issue_slots,
            tuples=work.tuples,
            fanout=work.fanout,
            flush_bytes=work.flush_bytes,
        )
