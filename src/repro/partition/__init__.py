"""Radix partitioning: the paper's core contribution.

Implements the four GPU radix-partitioning algorithms the paper compares
(section 4 and Figure 18) plus the CPU baseline:

- ``Standard`` — direct scatter, no write combining.
- ``Linear`` — linear-allocator software write-combining: thread blocks
  sort batches in scratchpad and flush opportunistically (prior work).
- ``Shared`` — the paper's shared software write-combining: thread-block-
  shared buffers with perfectly coalesced, aligned flushes (section 4.2).
- ``Hierarchical`` — the paper's two-level SWWC with GPU-memory second-
  level buffers and asynchronous double-buffered flushes (section 4.3).
- ``CpuSwwc`` — the CPU-side SWWC partitioner used by the CPU radix join
  and the CPU-partitioned strategy.

All algorithms compute the same output — a stable radix bucket sort
over hashed key bits, :func:`partition_relation` — so each class is only
the *work profile* it presents to the hardware model: write granularity,
alignment, stream-cursor TLB behaviour, buffer hierarchies, and
instruction footprints.
"""

from repro.partition.radix import (
    PartitionedRelation,
    count_flushes,
    partition_relation,
    radix_histogram,
)
from repro.partition.base import GpuPartitioner, PartitionWork, DesignGoals
from repro.partition.standard import StandardPartitioner
from repro.partition.linear_alloc import LinearPartitioner
from repro.partition.shared import SharedPartitioner
from repro.partition.hierarchical import HierarchicalPartitioner
from repro.partition.swwc import CpuSwwcPartitioner
from repro.partition.prefix_sum import (
    PrefixSumLocation,
    exclusive_scan,
    prefix_sum_task,
)
from repro.partition.planner import RadixPlan, plan_radix_join

__all__ = [
    "CpuSwwcPartitioner",
    "DesignGoals",
    "GpuPartitioner",
    "HierarchicalPartitioner",
    "LinearPartitioner",
    "PartitionWork",
    "PartitionedRelation",
    "PrefixSumLocation",
    "RadixPlan",
    "SharedPartitioner",
    "StandardPartitioner",
    "count_flushes",
    "exclusive_scan",
    "partition_relation",
    "plan_radix_join",
    "prefix_sum_task",
]
