"""Shared software write-combining (the paper's Shared algorithm, §4.2).

One buffer per partition, shared by the whole thread block. Threads
acquire slots atomically (lock-free fill); a full buffer is locked by its
fill-state counter and flushed by an elected warp leader while other
warps keep filling other buffers. Every flush is a full buffer —
a multiple of the 128-byte transaction size and aligned to it — so writes
are *perfectly coalesced* by design.

The limitation the paper demonstrates (Figs. 17 and 18): the scratchpad
is split over ``fanout`` buffers, so high fanouts shrink the buffers.
Below 128 bytes the flushes lose perfect coalescing (the 1280 M-tuple
drop in Fig. 17), and with many open cursors the GPU TLB starts missing
on flushes (33x jump between fanout 64 and 128, Fig. 18d).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.tlb import MemSpace
from repro.partition.base import (
    BASE_ISSUE_SLOTS_PER_TUPLE,
    DesignGoals,
    GpuPartitioner,
    WriteProfile,
    buffer_tuples_per_partition,
    flush_underutilization,
)


@dataclass(frozen=True)
class SharedPartitioner(GpuPartitioner):
    """Block-shared SWWC buffers with perfectly coalesced flushes."""

    name = "Shared"
    design_goals = DesignGoals(
        space_efficient=True,
        perfect_coalescing=True,
        high_fanout=False,
    )

    #: Issue slots per tuple spent in the flush phase (leader ballot,
    #: lock handling, coalesced stores), per warp-underutilization unit.
    FLUSH_SLOTS_PER_TUPLE = 0.5

    def buffer_tuples(
        self, fanout: int, tuple_bytes: int, scratchpad_bytes: int
    ) -> int:
        """Buffer slots per partition (the flush granularity in tuples)."""
        return buffer_tuples_per_partition(fanout, tuple_bytes, scratchpad_bytes)

    def write_profile(
        self, fanout: int, tuple_bytes: int, scratchpad_bytes: int, dst: MemSpace
    ) -> WriteProfile:
        buffer = self.buffer_tuples(fanout, tuple_bytes, scratchpad_bytes)
        flush_bytes = buffer * tuple_bytes
        return WriteProfile(
            flush_bytes=flush_bytes,
            # Buffers start at partition offsets produced by the prefix
            # sum; the paper pads offsets to the transaction size, so
            # full-size flushes stay aligned.
            aligned=True,
            issue_slots_per_tuple=(
                BASE_ISSUE_SLOTS_PER_TUPLE
                + self.FLUSH_SLOTS_PER_TUPLE * flush_underutilization(buffer)
            ),
        )
