"""Hardware performance counters.

The paper's analysis relies on a handful of counters: bytes moved per
memory space, physical NVLink transfer volume (payload plus protocol
overhead, Fig. 18c), memory transactions (for tuples-per-transaction,
Fig. 18b), IOMMU address-translation requests (the proxy for GPU TLB
misses, Figs. 14b and 18d), and instruction/stall attribution (Figs. 15
and 18e-f). :class:`PerfCounters` accumulates all of them; algorithms and
the simulator add to one shared instance per experiment run.

NVLink wire bytes are tracked per direction because the paper's
interconnect-utilization metric (Fig. 14a) measures "CPU to GPU transfers
including protocol overhead" against the 75 GB/s per-direction limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class PerfCounters:
    """Accumulated hardware event counts for one measured run."""

    # Bytes moved, by memory space and direction (useful payload only).
    cpu_mem_read_bytes: float = 0.0
    cpu_mem_write_bytes: float = 0.0
    gpu_mem_read_bytes: float = 0.0
    gpu_mem_write_bytes: float = 0.0

    # NVLink physical accounting. ``to_gpu`` carries read responses,
    # ``to_cpu`` carries write packets and read requests.
    nvlink_payload_bytes: float = 0.0
    nvlink_wire_to_gpu_bytes: float = 0.0
    nvlink_wire_to_cpu_bytes: float = 0.0
    nvlink_transactions: float = 0.0

    # Address translation.
    iommu_requests: float = 0.0
    gpu_tlb_misses: float = 0.0

    # Execution.
    instructions: float = 0.0
    tuples_processed: float = 0.0

    # Seconds of GPU time attributed to each stall/issue category
    # (categories follow Fig. 15(b): instr_issued, memory_dep,
    # execution_dep, sync, pipe_busy, not_selected, scheduling, ...).
    stall_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def nvlink_wire_bytes(self) -> float:
        """Total physical bytes on the link, both directions."""
        return self.nvlink_wire_to_gpu_bytes + self.nvlink_wire_to_cpu_bytes

    def add_stall(self, category: str, seconds: float) -> None:
        """Attribute ``seconds`` of GPU time to a stall/issue category."""
        self.stall_seconds[category] = self.stall_seconds.get(category, 0.0) + seconds

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Accumulate ``other`` into this instance and return self."""
        self.cpu_mem_read_bytes += other.cpu_mem_read_bytes
        self.cpu_mem_write_bytes += other.cpu_mem_write_bytes
        self.gpu_mem_read_bytes += other.gpu_mem_read_bytes
        self.gpu_mem_write_bytes += other.gpu_mem_write_bytes
        self.nvlink_payload_bytes += other.nvlink_payload_bytes
        self.nvlink_wire_to_gpu_bytes += other.nvlink_wire_to_gpu_bytes
        self.nvlink_wire_to_cpu_bytes += other.nvlink_wire_to_cpu_bytes
        self.nvlink_transactions += other.nvlink_transactions
        self.iommu_requests += other.iommu_requests
        self.gpu_tlb_misses += other.gpu_tlb_misses
        self.instructions += other.instructions
        self.tuples_processed += other.tuples_processed
        for category, seconds in other.stall_seconds.items():
            self.add_stall(category, seconds)
        return self

    def __add__(self, other: "PerfCounters") -> "PerfCounters":
        result = PerfCounters()
        result.merge(self)
        result.merge(other)
        return result

    # -- derived metrics ----------------------------------------------------

    @property
    def iommu_requests_per_tuple(self) -> float:
        """IOMMU translation requests per input tuple (Figs. 14b, 18d)."""
        if self.tuples_processed == 0:
            return 0.0
        return self.iommu_requests / self.tuples_processed

    def interconnect_utilization(self, raw_bytes_per_s: float, seconds: float) -> float:
        """CPU-to-GPU wire bandwidth over the electrical limit (Fig. 14a).

        The paper measures "the bandwidth of CPU to GPU transfers including
        protocol overhead, for which the theoretical limit is 75 GB/s".
        """
        if seconds <= 0:
            return 0.0
        return self.nvlink_wire_to_gpu_bytes / seconds / raw_bytes_per_s

    def snapshot(self) -> "PerfCounters":
        """An independent copy of the current counter values."""
        copy = PerfCounters()
        copy.merge(self)
        return copy
