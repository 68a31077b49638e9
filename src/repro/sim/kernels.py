"""Builders that turn hardware access costs into simulator tasks.

A GPU kernel is described by the memory-request streams it issues plus an
instruction count; :class:`GpuKernelBuilder` costs each stream with the
hardware model and produces a :class:`Task` whose resource demands and
rate caps make it behave correctly both standalone (duration = max of
memory time and compute time) and under contention (proportional sharing
of the link, memory systems, SM pool, and IOMMU walkers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.hw.counters import PerfCounters
from repro.hw.cpu import CpuModel
from repro.hw.gpu import AccessShape, GpuModel, MemoryRequest
from repro.hw.interconnect import AccessPattern, Op
from repro.hw.tlb import MemSpace
from repro.sim import resources as res
from repro.sim.tasks import Task

# Fixed launch overhead per GPU kernel (CUDA launch + TLB flush by the
# runtime, section 3.4.2 notes the GPU TLBs are flushed per launch).
KERNEL_LAUNCH_SECONDS = 10e-6


@dataclass(eq=False)
class GpuKernelBuilder:
    """Builds simulator tasks for GPU kernels.

    Each request's :class:`~repro.hw.gpu.AccessShape` (bandwidth, wire
    and translation profile) is memoized on the builder, keyed by the
    request's fields other than ``total_bytes``, wherever the byte count
    cannot change it. A CPU-memory random request with the default
    footprint spreads over the bytes it moves, so it is shaped afresh
    each time. Operators derive their builders from their configuration
    (the builder is not an operator field), so the memo never reaches a
    run-cache key.
    """

    gpu: GpuModel

    def __post_init__(self) -> None:
        self._shapes: Dict[tuple, Tuple[AccessShape, str]] = {}
        cpu = self.gpu.system.cpu
        self._cpu_mem_capacity = cpu.memory.bandwidth_bytes_per_s
        self._walk_capacity = (
            cpu.iommu.page_table_walkers / cpu.iommu.walk_latency_s
        )
        self._ops_per_s = self.gpu.spec.total_ops_per_s

    def _shape(
        self, key: tuple, request: MemoryRequest, total_bytes: float
    ) -> Tuple[AccessShape, str]:
        """A request's shape and the link (or GPU memory) it draws from.

        Memoized under ``key`` unless the request is a CPU-memory random
        one with the default footprint, whose shape depends on its bytes.
        """
        if request.space is MemSpace.GPU:
            link = res.GPU_MEM_BW
        elif request.op is Op.READ:
            link = res.NVLINK_TO_GPU
        else:
            link = res.NVLINK_TO_CPU
        entry = (self.gpu.access_shape(request, total_bytes), link)
        if not (
            request.space is MemSpace.CPU
            and request.pattern is AccessPattern.RANDOM
            and request.stream_count is None
            and request.footprint_bytes is None
        ):
            self._shapes[key] = entry
        return entry

    def build(
        self,
        name: str,
        requests: Iterable[MemoryRequest],
        instructions: float = 0.0,
        phase: str = "",
        sm_fraction: float = 1.0,
        tuples: float = 0.0,
        min_seconds: float = KERNEL_LAUNCH_SECONDS,
        request_bytes: Optional[Iterable[float]] = None,
    ) -> Task:
        """Create a task for one GPU kernel.

        Demands aggregate payload bytes per resource. Rate caps encode the
        achievable standalone bandwidth per resource (requests on the same
        resource serialize, so caps combine harmonically), making the
        task's standalone duration ``max(memory time, compute time)``.

        ``request_bytes``, when given, is each request's byte count in
        place of its ``total_bytes``: a graph builder makes a kernel's
        requests once and passes only the bytes of each chunk.
        """
        demands: Dict[str, float] = {}
        alone_seconds: Dict[str, float] = {}
        counters = PerfCounters()
        memory_seconds = 0.0
        if request_bytes is None:
            pairs = ((request, request.total_bytes) for request in requests)
        else:
            pairs = zip(requests, request_bytes)

        shapes = self._shapes
        for request, total_bytes in pairs:
            if total_bytes <= 0:
                if total_bytes < 0:
                    raise ConfigurationError("request bytes cannot be negative")
                continue
            # Each of the three enums has two members, so a flag names
            # it (and hashes faster than the member).
            key = (
                request.access_bytes, request.op is Op.READ,
                request.space is MemSpace.GPU,
                request.pattern is AccessPattern.SEQUENTIAL,
                request.footprint_bytes, request.aligned, request.duplex,
                request.stream_count, request.efficiency,
            )
            entry = shapes.get(key)
            if entry is None:
                entry = self._shape(key, request, total_bytes)
            shape, link = entry
            seconds = total_bytes / shape.bandwidth_bytes_per_s
            walks = self.gpu.charge(request, total_bytes, shape, counters)
            if seconds > memory_seconds:
                memory_seconds = seconds
            # The standalone time charged to a resource is what this
            # request needs from *that* resource: the link (or GPU
            # memory) time reflects the stream's achievable bandwidth
            # with all its degradations, while the DRAM behind the link
            # only sees well-formed 128-byte transactions.
            demands[link] = demands.get(link, 0.0) + total_bytes
            alone_seconds[link] = alone_seconds.get(link, 0.0) + seconds
            if link != res.GPU_MEM_BW:
                demands[res.CPU_MEM_BW] = (
                    demands.get(res.CPU_MEM_BW, 0.0) + total_bytes
                )
                alone_seconds[res.CPU_MEM_BW] = (
                    alone_seconds.get(res.CPU_MEM_BW, 0.0)
                    + total_bytes / self._cpu_mem_capacity
                )
            if walks > 0:
                demands[res.IOMMU_WALKS] = (
                    demands.get(res.IOMMU_WALKS, 0.0) + walks
                )
                alone_seconds[res.IOMMU_WALKS] = (
                    alone_seconds.get(res.IOMMU_WALKS, 0.0)
                    + walks / self._walk_capacity
                )

        rate_caps = {
            resource: demands[resource] / alone_seconds[resource]
            for resource in demands
            if alone_seconds.get(resource, 0.0) > 0
        }

        compute_seconds = 0.0
        if instructions > 0:
            if not 0 < sm_fraction <= 1.0:
                raise ConfigurationError("sm_fraction must be in (0, 1]")
            demands[res.GPU_SM] = instructions
            rate_caps[res.GPU_SM] = self._ops_per_s * sm_fraction
            compute_seconds = self.gpu.compute_time(instructions, sm_fraction)
            counters.instructions += instructions

        counters.tuples_processed += tuples
        task = Task(
            name=name,
            phase=phase or name,
            demands=demands,
            rate_caps=rate_caps,
            min_seconds=min_seconds,
            counters=counters,
        )
        task.meta["memory_seconds"] = memory_seconds
        task.meta["compute_seconds"] = compute_seconds
        return task


class CpuTaskBuilder:
    """Builds simulator tasks for CPU-side work (prefix sums, partitioning)."""

    def __init__(self, cpu: CpuModel) -> None:
        self.cpu = cpu

    def build(
        self,
        name: str,
        read_bytes: float = 0.0,
        write_bytes: float = 0.0,
        operations: float = 0.0,
        phase: str = "",
        core_fraction: float = 1.0,
        tuples: float = 0.0,
        random_writes: bool = False,
    ) -> Task:
        """Create a task for CPU work that streams through CPU memory."""
        demands: Dict[str, float] = {}
        rate_caps: Dict[str, float] = {}
        counters = PerfCounters()
        mem_bytes = read_bytes + write_bytes
        memory_seconds = 0.0
        if mem_bytes > 0:
            write_pattern = (
                AccessPattern.RANDOM if random_writes else AccessPattern.SEQUENTIAL
            )
            memory_seconds = self.cpu.access_seconds(
                read_bytes, Op.READ
            ) + self.cpu.access_seconds(write_bytes, Op.WRITE, write_pattern)
            counters.cpu_mem_read_bytes += read_bytes
            counters.cpu_mem_write_bytes += write_bytes
            demands[res.CPU_MEM_BW] = mem_bytes
            rate_caps[res.CPU_MEM_BW] = mem_bytes / memory_seconds
        compute_seconds = 0.0
        if operations > 0:
            demands[res.CPU_CORES] = operations
            rate_caps[res.CPU_CORES] = self.cpu.spec.total_ops_per_s * core_fraction
            compute_seconds = self.cpu.compute_time(operations, core_fraction)
            counters.instructions += operations
        counters.tuples_processed += tuples
        task = Task(
            name=name,
            phase=phase or name,
            demands=demands,
            rate_caps=rate_caps,
            counters=counters,
        )
        task.meta["memory_seconds"] = memory_seconds
        task.meta["compute_seconds"] = compute_seconds
        return task
