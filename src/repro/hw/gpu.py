"""The GPU processor model.

Combines the interconnect packet model and the translation model into a
single access-cost primitive that every GPU kernel in the library uses:
given a stream of memory accesses (how many bytes, at what granularity,
in which direction, against which memory, over what footprint), it
returns achievable bandwidth, time, and the hardware counter deltas.

The model captures the paper's three GPU-memory-path regimes:

- **GPU memory**: 900 GB/s sequential; random accesses pay the measured
  read/write asymmetry (random reads are 3.2-6x faster than writes,
  section 6.2.9) and sub-transaction granularity waste.
- **CPU memory, sequential**: the full effective NVLink bandwidth
  (63.5 GiB/s), with one coalesced IOMMU walk per 32 MiB.
- **CPU memory, random**: granularity-limited bandwidth (Fig. 6), latency
  degradation when the footprint outgrows the TLB layers (Fig. 7), and a
  hard access-rate ceiling from the IOMMU's 12 page walkers once full
  walks dominate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import ConfigurationError
from repro.hw.counters import PerfCounters
from repro.hw.interconnect import (
    AccessPattern,
    InterconnectModel,
    Op,
    WireCost,
)
from repro.hw.specs import SystemSpec
from repro.hw.tlb import (
    MemSpace,
    StreamTranslationProfile,
    TranslationModel,
    TranslationProfile,
)

# GPU-memory transactions are 32 bytes (section 3.4.1: coalescing widens
# them to 128 bytes only on the NVLink path).
GPU_MEM_TRANSACTION_BYTES = 32


@dataclass(frozen=True)
class MemoryRequest:
    """A homogeneous stream of memory accesses issued by a GPU kernel.

    Attributes:
        total_bytes: useful bytes to move.
        access_bytes: granularity of each access (e.g. the flush size of a
            partitioner, or the tuple size of a hash probe).
        op: read or write, from the GPU's perspective.
        space: which physical memory is targeted.
        pattern: sequential or random.
        footprint_bytes: address range the random accesses spread over
            (defaults to ``total_bytes``); drives TLB behaviour.
        aligned: whether accesses are aligned to their granularity.
        duplex: True when the opposite link direction is simultaneously
            saturated (e.g. out-of-core partitioning reads and writes CPU
            memory at once), capping per-direction bandwidth at the
            measured 55.9 GiB/s.
        stream_count: when set, the accesses follow a *stream-cursor*
            pattern over this many destinations (one write cursor per
            partition) instead of uniform random addresses; translation
            behaviour then comes from the stream model (Fig. 18d) rather
            than the footprint model (Fig. 7).
        efficiency: pipeline efficiency multiplier on the achievable
            bandwidth (< 1 when, e.g., a double-buffered flush pipeline
            stalls because buffers are too small to hide flush latency).
    """

    total_bytes: float
    access_bytes: int
    op: Op
    space: MemSpace
    pattern: AccessPattern = AccessPattern.SEQUENTIAL
    footprint_bytes: Optional[float] = None
    aligned: bool = True
    duplex: bool = False
    stream_count: Optional[int] = None
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.total_bytes < 0:
            raise ConfigurationError("total_bytes cannot be negative")
        if self.access_bytes <= 0:
            raise ConfigurationError("access_bytes must be positive")
        if not 0 < self.efficiency <= 1.0:
            raise ConfigurationError("efficiency must be in (0, 1]")

    @property
    def footprint(self) -> float:
        if self.footprint_bytes is not None:
            return self.footprint_bytes
        return max(self.total_bytes, float(self.access_bytes))

    @property
    def accesses(self) -> float:
        if self.total_bytes == 0:
            return 0.0
        return math.ceil(self.total_bytes / self.access_bytes)


@dataclass(frozen=True)
class AccessCost:
    """Result of costing a :class:`MemoryRequest`.

    ``walks`` counts full IOMMU page walks (a subset of the IOMMU request
    counter: requests served by the IOTLB do not occupy a walker).
    """

    seconds: float
    bandwidth_bytes_per_s: float
    counters: PerfCounters
    walks: float = 0.0


@dataclass(frozen=True)
class AccessShape:
    """The part of a request's cost that its byte count does not change.

    ``wire`` is one access's packet cost on the link and ``translation``
    the random or stream-cursor translation profile; both are ``None``
    where the request has none (GPU memory; sequential streams have no
    profile). Only a CPU-memory random request with the default
    footprint has a shape that depends on its byte count.
    """

    bandwidth_bytes_per_s: float
    wire: Optional[WireCost] = None
    translation: Optional[
        Union[TranslationProfile, StreamTranslationProfile]
    ] = None


class GpuModel:
    """Cost model of the V100 GPU inside a fast-interconnect system."""

    def __init__(self, system: SystemSpec) -> None:
        self.system = system
        self.spec = system.gpu
        self.interconnect = InterconnectModel(system.interconnect)
        self.translation = TranslationModel(system.gpu.tlb, system.cpu.iommu)

    # -- compute --------------------------------------------------------------

    def compute_time(self, instructions: float, sm_fraction: float = 1.0) -> float:
        """Seconds to issue ``instructions`` simple operations.

        ``sm_fraction`` models concurrent kernel execution (section 5.2):
        a kernel restricted to half the SMs gets half the issue rate.
        """
        if not 0 < sm_fraction <= 1.0:
            raise ConfigurationError("sm_fraction must be in (0, 1]")
        return instructions / (self.spec.total_ops_per_s * sm_fraction)

    def scratchpad_bytes(self) -> int:
        """Usable scratchpad per thread block (one SM's share)."""
        return self.spec.usable_scratchpad_bytes

    # -- memory ---------------------------------------------------------------

    def access_cost(self, request: MemoryRequest) -> AccessCost:
        """Bandwidth, time, and counters for one access stream."""
        total_bytes = request.total_bytes
        if total_bytes == 0:
            return AccessCost(0.0, float("inf"), PerfCounters())
        shape = self.access_shape(request, total_bytes)
        counters = PerfCounters()
        walks = self.charge(request, total_bytes, shape, counters)
        bandwidth = shape.bandwidth_bytes_per_s
        return AccessCost(total_bytes / bandwidth, bandwidth, counters, walks)

    def access_shape(
        self, request: MemoryRequest, total_bytes: float
    ) -> AccessShape:
        """Achievable bandwidth, wire and translation profile of a stream.

        ``total_bytes`` only matters for a CPU-memory random request with
        the default footprint, which spreads over the bytes it moves.
        """
        if request.space is MemSpace.GPU:
            mem = self.spec.memory
            if request.pattern is AccessPattern.SEQUENTIAL:
                bandwidth = mem.bandwidth_bytes_per_s
            else:
                factor = (
                    mem.random_read_factor
                    if request.op is Op.READ
                    else mem.random_write_factor
                )
                # Large scattered bursts regain row-buffer locality: the
                # random penalty interpolates away as the access
                # granularity approaches a DRAM row (4 KiB).
                locality = min(1.0, request.access_bytes / 4096)
                factor = factor + (1.0 - factor) * locality
                # Sub-transaction random accesses waste transaction
                # bandwidth.
                waste = min(
                    1.0, request.access_bytes / GPU_MEM_TRANSACTION_BYTES
                )
                bandwidth = mem.bandwidth_bytes_per_s * factor * waste
            return AccessShape(bandwidth * request.efficiency)

        wire = self.interconnect.wire_cost(
            request.access_bytes, request.op, aligned=request.aligned
        )
        link_bw = self.interconnect.effective_bandwidth(
            request.access_bytes,
            request.op,
            request.pattern,
            aligned=request.aligned,
            duplex=request.duplex,
        )
        translation = None
        if request.pattern is AccessPattern.SEQUENTIAL:
            # Streaming accesses prefetch well: translation latency hides
            # behind the deep pipeline.
            bandwidth = link_bw
        elif request.stream_count is not None:
            # Stream-cursor pattern (partitioning writes): flushes are
            # asynchronous, so only the walker-pool ceiling throttles.
            translation = self.translation.stream_profile(request.stream_count)
            ceiling = translation.access_rate_ceiling_per_s * request.access_bytes
            bandwidth = min(link_bw, ceiling)
        else:
            footprint = request.footprint_bytes
            if footprint is None:
                footprint = max(total_bytes, float(request.access_bytes))
            translation = self.translation.random_profile(
                footprint, MemSpace.CPU
            )
            # Latency degradation: the random-access rate constants were
            # calibrated in-TLB (449.7 ns base); higher average latency
            # shrinks the sustainable in-flight window proportionally.
            base = self.spec.tlb.l2_hit_cpu_mem_s
            latency_scale = min(1.0, base / translation.avg_latency_s)
            ceiling = translation.access_rate_ceiling_per_s * request.access_bytes
            bandwidth = min(link_bw * latency_scale, ceiling)
        return AccessShape(bandwidth * request.efficiency, wire, translation)

    def charge(
        self,
        request: MemoryRequest,
        total_bytes: float,
        shape: AccessShape,
        counters: PerfCounters,
    ) -> float:
        """Add a stream of ``total_bytes`` to ``counters``; return its walks.

        ``shape`` is the request's :meth:`access_shape`. Walks are full
        IOMMU page walks, the walker pool's load.
        """
        if request.space is MemSpace.GPU:
            if request.op is Op.READ:
                counters.gpu_mem_read_bytes += total_bytes
            else:
                counters.gpu_mem_write_bytes += total_bytes
            return 0.0

        if request.op is Op.READ:
            counters.cpu_mem_read_bytes += total_bytes
        else:
            counters.cpu_mem_write_bytes += total_bytes
        wire = shape.wire.repeated(int(math.ceil(total_bytes)))
        counters.nvlink_payload_bytes += wire.payload_bytes
        counters.nvlink_wire_to_gpu_bytes += wire.to_gpu_bytes
        counters.nvlink_wire_to_cpu_bytes += wire.to_cpu_bytes
        counters.nvlink_transactions += wire.transactions

        if request.pattern is AccessPattern.SEQUENTIAL:
            # Walks coalesce 16 translations on a streaming pass.
            requests = self.translation.sequential_iommu_requests(
                total_bytes, self.system.cpu.memory.page_bytes
            )
            counters.iommu_requests += requests
            return requests
        accesses = math.ceil(total_bytes / request.access_bytes)
        profile = shape.translation
        if request.stream_count is not None:
            # Miss behaviour depends on the number of open cursors.
            misses = accesses * profile.gpu_miss_fraction
            counters.iommu_requests += misses
            counters.gpu_tlb_misses += misses
        else:
            counters.iommu_requests += (
                accesses * profile.iommu_requests_per_access
            )
            counters.gpu_tlb_misses += accesses * profile.l2_miss_fraction
        return accesses * profile.walk_fraction
