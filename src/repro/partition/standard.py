"""Standard radix partitioning: direct scatter without write combining.

Each thread hashes its tuple and writes it straight to the tuple's final
position in the destination partition. Every write is tuple-granular
(16 bytes by default), so over NVLink each write occupies a padded
partial transaction with a byte-enable header, and every write visits one
of ``fanout`` cursor pages — the worst case for the GPU TLB. The paper
measures this algorithm taking ~10 minutes for 60 GiB at high fanouts
(section 6.2.6), which in our model emerges from the IOMMU walker
ceiling.
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
class StandardPartitioner(GpuPartitioner):
    """Direct-scatter radix partitioning (no buffering)."""

    name = "Standard"
    design_goals = DesignGoals(
        space_efficient=False,
        perfect_coalescing=False,
        high_fanout=False,
    )

    def max_fanout(self, tuple_bytes: int, scratchpad_bytes: int) -> int:
        # No buffers: the fanout is bounded only by the radix width.
        return 1 << 30

    def write_profile(
        self, fanout: int, tuple_bytes: int, scratchpad_bytes: int, dst: MemSpace
    ) -> WriteProfile:
        return WriteProfile(
            flush_bytes=tuple_bytes,
            aligned=True,
            # Scatter is cheap to compute: hash + one atomic offset fetch
            # + the store itself.
            issue_slots_per_tuple=BASE_ISSUE_SLOTS_PER_TUPLE,
        )
