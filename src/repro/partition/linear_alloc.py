"""Linear-allocator software write-combining (the "Linear" baseline).

Prior work for in-GPU partitioning (Stehle & Jacobsen; Rui & Tu): a
thread block loads a batch of tuples, sorts them by partition inside the
scratchpad using an atomically incremented linear allocator, then flushes
all partitions' runs at once. Writes are only *opportunistically*
coalesced: a batch of B tuples spread over F partitions yields runs of
~B/F tuples that start at arbitrary offsets, so runs rarely fill exactly
128 bytes and misalignment splits transactions (section 4, Table 1,
Fig. 18b/c).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.tlb import MemSpace
from repro.partition.base import (
    BASE_ISSUE_SLOTS_PER_TUPLE,
    DesignGoals,
    GpuPartitioner,
    WriteProfile,
)


@dataclass(frozen=True)
class LinearPartitioner(GpuPartitioner):
    """Scratchpad batch sorting with a linear allocator."""

    name = "Linear"
    design_goals = DesignGoals(
        space_efficient=True,
        perfect_coalescing=False,
        high_fanout=False,
    )

    #: Extra issue slots per tuple for the in-scratchpad sort: allocator
    #: atomics (with replays), position scatter, and block-wide barriers.
    SORT_SLOTS_PER_TUPLE = 4.0

    def max_fanout(self, tuple_bytes: int, scratchpad_bytes: int) -> int:
        # The batch must hold at least one tuple per partition on average
        # for flushes to make progress.
        return scratchpad_bytes // tuple_bytes

    def batch_tuples(self, tuple_bytes: int, scratchpad_bytes: int) -> int:
        """Tuples a thread block stages per batch (fills the scratchpad)."""
        return max(1, scratchpad_bytes // tuple_bytes)

    def write_profile(
        self, fanout: int, tuple_bytes: int, scratchpad_bytes: int, dst: MemSpace
    ) -> WriteProfile:
        batch = self.batch_tuples(tuple_bytes, scratchpad_bytes)
        run_tuples = max(1, batch // fanout)
        return WriteProfile(
            flush_bytes=run_tuples * tuple_bytes,
            # Runs start wherever the previous batch's run ended: flushes
            # are misaligned, splitting transactions (Fig. 6b penalty).
            aligned=False,
            issue_slots_per_tuple=(
                BASE_ISSUE_SLOTS_PER_TUPLE + self.SORT_SLOTS_PER_TUPLE
            ),
        )
