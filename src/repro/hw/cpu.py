"""The CPU processor model.

Used for the CPU radix join baselines (POWER9 and Xeon Gold 6126 in
Fig. 13), the CPU side of the CPU-partitioned join strategy (Fig. 16),
and the CPU prefix sum (Fig. 20). The model charges memory traffic
against the socket's achievable bandwidth and instructions against the
core pool; software write-combining behaviour (buffer capacity vs. cache
size) decides whether a partitioning pass stays single-pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hw.counters import PerfCounters
from repro.hw.interconnect import AccessPattern, Op
from repro.hw.specs import CpuSpec

# A SWWC buffer needs enough slots per partition to amortize TLB misses; the
# paper's CPU baselines flush 128-byte cachelines with SIMD stores.
SWWC_BUFFER_BYTES_PER_PARTITION = 128
# Micro-row layout bookkeeping per partition (offset + fill state).
SWWC_STATE_BYTES_PER_PARTITION = 16


@dataclass(frozen=True)
class CpuAccessCost:
    """Result of costing a CPU memory access stream."""

    seconds: float
    bandwidth_bytes_per_s: float
    counters: PerfCounters


class CpuModel:
    """Cost model of one CPU socket."""

    def __init__(self, spec: CpuSpec) -> None:
        self.spec = spec

    # -- compute --------------------------------------------------------------

    def compute_time(self, operations: float, core_fraction: float = 1.0) -> float:
        """Seconds for ``operations`` simple ops on a share of the cores."""
        if not 0 < core_fraction <= 1.0:
            raise ConfigurationError("core_fraction must be in (0, 1]")
        return operations / (self.spec.total_ops_per_s * core_fraction)

    # -- memory ---------------------------------------------------------------

    def access_cost(
        self,
        total_bytes: float,
        op: Op,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> CpuAccessCost:
        """Time to move ``total_bytes`` through the socket's memory."""
        counters = PerfCounters()
        if op is Op.READ:
            counters.cpu_mem_read_bytes += total_bytes
        else:
            counters.cpu_mem_write_bytes += total_bytes
        return CpuAccessCost(
            self.access_seconds(total_bytes, op, pattern),
            self.bandwidth(op, pattern),
            counters,
        )

    def access_seconds(
        self,
        total_bytes: float,
        op: Op,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> float:
        """Seconds to move ``total_bytes`` through the socket's memory."""
        if total_bytes < 0:
            raise ConfigurationError("total_bytes cannot be negative")
        if not total_bytes:
            return 0.0
        return total_bytes / self.bandwidth(op, pattern)

    def bandwidth(self, op: Op, pattern: AccessPattern) -> float:
        """Achievable bytes/s of an access stream through the memory."""
        mem = self.spec.memory
        if pattern is AccessPattern.SEQUENTIAL:
            return mem.bandwidth_bytes_per_s
        factor = (
            mem.random_read_factor if op is Op.READ else mem.random_write_factor
        )
        return mem.bandwidth_bytes_per_s * factor

    # -- software write-combining ----------------------------------------------

    def swwc_buffer_bytes(self, fanout: int) -> int:
        """Cache bytes the SWWC buffers of a partitioning pass occupy."""
        if fanout <= 0:
            raise ConfigurationError("fanout must be positive")
        per_partition = (
            SWWC_BUFFER_BYTES_PER_PARTITION + SWWC_STATE_BYTES_PER_PARTITION
        )
        return fanout * per_partition

    def swwc_fits_in_cache(self, fanout: int) -> bool:
        """Whether a single-pass SWWC partitioning with ``fanout`` fits.

        The paper observes that the Xeon (1.25 MiB L3/core) must switch to
        two-pass partitioning above 1408 M tuples because its SWWC buffers
        outgrow the cache, while the POWER9 (5 MiB/core) does not
        (section 6.2.1).
        """
        return self.swwc_buffer_bytes(fanout) <= self.spec.cache.swwc_budget_per_core
