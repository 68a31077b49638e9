"""Hardware specifications and system presets.

All constants are taken from the paper (sections 2.1, 3.4, 6.1, 6.2.11) or
from the vendor documents it cites. Specs are frozen dataclasses: a spec
describes hardware, a *model* (``repro.hw.gpu`` etc.) interprets it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.units import GIB, KIB, MIB, GB, NS, gib_per_s


@dataclass(frozen=True)
class MemorySpec:
    """A physical memory attached to a processor.

    Attributes:
        capacity_bytes: installed capacity.
        bandwidth_bytes_per_s: peak *achievable* bandwidth for sequential
            streams (the paper measures ~130 GiB/s of the POWER9's
            170 GB/s electrical rate; we store the achievable figure and
            keep the electrical rate for documentation).
        electrical_bytes_per_s: electrical (advertised) rate.
        random_read_factor / random_write_factor: fraction of peak
            bandwidth achievable for fully random cacheline-granular reads
            and writes. The paper measures that random GPU-memory reads are
            3.2-6x faster than writes (section 6.2.9).
        page_bytes: default (huge) page size used by allocations.
    """

    capacity_bytes: int
    bandwidth_bytes_per_s: float
    electrical_bytes_per_s: float
    random_read_factor: float = 1.0
    random_write_factor: float = 1.0
    page_bytes: int = 2 * MIB

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("memory capacity must be positive")
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("memory bandwidth must be positive")
        if not 0 < self.random_read_factor <= 1.0:
            raise ConfigurationError("random_read_factor must be in (0, 1]")
        if not 0 < self.random_write_factor <= 1.0:
            raise ConfigurationError("random_write_factor must be in (0, 1]")


@dataclass(frozen=True)
class GpuTlbSpec:
    """The GPU-side translation hierarchy, per section 3.4.2.

    The V100's L2 TLB covers 8 GiB with 32 MiB reach per entry (16
    coalesced 2 MiB pages). Accesses to CPU memory that miss the GPU L2
    TLB hit either a speculative extra layer ("L3 TLB*", reach ~32 GiB) or
    walk the IOMMU ("Miss*"). All latencies are the paper's measurements.
    """

    l2_reach_bytes: int = 8 * GIB
    entry_reach_bytes: int = 32 * MIB
    l2_hit_gpu_mem_s: float = 151.9 * NS
    l2_miss_gpu_mem_s: float = 226.7 * NS
    l2_hit_cpu_mem_s: float = 449.7 * NS
    l3_star_reach_bytes: int = 32 * GIB
    l3_star_latency_s: float = 532.9 * NS
    full_miss_latency_s: float = 3186.4 * NS


@dataclass(frozen=True)
class IommuSpec:
    """The CPU-side I/O memory management unit (sections 2.1, 3.4.2).

    The POWER9 IOMMU contains an IOTLB and 12 parallel page table walkers;
    a single walk returns up to 16 coalesced translations. The walk time is
    derived from the measured full-miss latency: a thrashing access stream
    pays ~3.2 us per uncoalesced translation, so walker throughput bounds
    out-of-TLB-range bandwidth.
    """

    page_table_walkers: int = 12
    walk_coalescing: int = 16
    walk_latency_s: float = 3186.4 * NS


@dataclass(frozen=True)
class GpuSpec:
    """An Nvidia "Volta" V100-SXM2 GPU (sections 2.1 and 6.1)."""

    name: str = "Tesla V100-SXM2"
    sm_count: int = 80
    clock_hz: float = 1.53e9
    warp_size: int = 32
    max_warps_per_sm: int = 64
    scratchpad_bytes_per_sm: int = 96 * KIB
    usable_scratchpad_bytes: int = 64 * KIB
    registers_per_sm: int = 65536
    l1_cacheline_bytes: int = 128
    l2_cache_bytes: int = 6 * MIB
    memory: MemorySpec = field(
        default_factory=lambda: MemorySpec(
            capacity_bytes=16 * GIB,
            bandwidth_bytes_per_s=900 * GB,
            electrical_bytes_per_s=900 * GB,
            # Random GPU-memory reads are 3.2-6x faster than writes
            # (section 6.2.9); calibrated mid-range.
            random_read_factor=0.55,
            random_write_factor=0.13,
        )
    )
    tlb: GpuTlbSpec = field(default_factory=GpuTlbSpec)
    # Instruction issue capacity per SM, in warp-instruction issue slots
    # per second: a V100 SM has 4 warp schedulers at 1.53 GHz. Kernel
    # instruction counts are expressed in issue slots, which is also what
    # the paper's "percentage of issue slots that issued at least one
    # instruction" metric (Fig. 18e) measures.
    ops_per_sm_per_s: float = 4 * 1.53e9

    def __post_init__(self) -> None:
        if self.sm_count <= 0:
            raise ConfigurationError("sm_count must be positive")
        if self.usable_scratchpad_bytes > self.scratchpad_bytes_per_sm:
            raise ConfigurationError(
                "usable scratchpad cannot exceed physical scratchpad"
            )

    @property
    def total_ops_per_s(self) -> float:
        """Aggregate simple-instruction throughput of all SMs."""
        return self.sm_count * self.ops_per_sm_per_s

    def with_sm_count(self, sm_count: int) -> "GpuSpec":
        """A copy of this spec with a different number of SMs (Fig. 24)."""
        return replace(self, sm_count=sm_count)


@dataclass(frozen=True)
class CpuCacheSpec:
    """Per-core cache capacities relevant to SWWC buffer sizing."""

    l2_bytes_per_core: int
    l3_bytes_per_core: int

    @property
    def swwc_budget_per_core(self) -> int:
        """Cache bytes available for software write-combining buffers.

        The paper attributes the Xeon's two-pass switch to its SWWC
        buffers exceeding the 1.25 MiB per-core L3 slice, while the
        POWER9's 5 MiB/core keeps single-pass viable (section 6.2.1).
        """
        return self.l3_bytes_per_core


@dataclass(frozen=True)
class CpuSpec:
    """A multi-core CPU socket (sections 2.1 and 6.1)."""

    name: str
    core_count: int
    clock_hz: float
    smt: int
    simd_bytes: int
    cache: CpuCacheSpec
    memory: MemorySpec
    iommu: IommuSpec = field(default_factory=IommuSpec)
    # Sustained per-core rate for simple streaming operations (hash +
    # bucket bookkeeping), operations/s. Roughly 2 scalar ops/cycle
    # sustained including SMT benefits.
    ops_per_core_per_s: float = 2.0e9

    def __post_init__(self) -> None:
        if self.core_count <= 0:
            raise ConfigurationError("core_count must be positive")
        if self.smt < 1:
            raise ConfigurationError("smt must be >= 1")

    @property
    def total_ops_per_s(self) -> float:
        """Aggregate simple-operation throughput of the socket."""
        return self.core_count * self.ops_per_core_per_s


@dataclass(frozen=True)
class InterconnectSpec:
    """A CPU<->GPU interconnect (sections 2.1 and 3.4.1).

    ``effective_bytes_per_s`` is the achievable unidirectional payload
    bandwidth (the paper calculates 62-65.7 GiB/s for NVLink 2.0 and
    measures 63.5 GiB/s); ``duplex_bytes_per_s`` is the per-direction cap
    when both directions are saturated (the paper reports 55.9 GiB/s
    bidirectional for partitioning, Fig. 18a).
    """

    name: str
    raw_bytes_per_s: float
    effective_bytes_per_s: float
    duplex_bytes_per_s: float
    packet_header_bytes: int = 16
    max_payload_bytes: int = 256
    sm_max_payload_bytes: int = 128
    min_read_payload_bytes: int = 32
    write_byte_enable_bytes: int = 16
    transaction_bytes: int = 128
    latency_s: float = 449.7 * NS

    def __post_init__(self) -> None:
        if self.effective_bytes_per_s > self.raw_bytes_per_s:
            raise ConfigurationError(
                "effective bandwidth cannot exceed the raw link rate"
            )
        if self.duplex_bytes_per_s > self.effective_bytes_per_s:
            raise ConfigurationError(
                "duplex per-direction bandwidth cannot exceed unidirectional"
            )


@dataclass(frozen=True)
class SystemSpec:
    """A complete CPU+GPU system with one interconnect.

    The AC922 has two sockets and two GPUs; following the paper's
    single-GPU experiments we model one GPU attached to its nearest NUMA
    node and expose the socket count only for capacity accounting.
    """

    name: str
    cpu: CpuSpec
    gpu: GpuSpec
    interconnect: InterconnectSpec
    sockets: int = 2
    idle_watts: float = 290.0
    gpu_idle_watts: float = 32.0
    gpu_load_watts: float = 71.0
    cpu_load_watts: float = 192.0
    io_watts: float = 10.5

    @property
    def cpu_memory_capacity(self) -> int:
        """CPU memory on the NUMA node closest to the GPU (one socket)."""
        return self.cpu.memory.capacity_bytes

    @property
    def gpu_memory_capacity(self) -> int:
        return self.gpu.memory.capacity_bytes

    def with_gpu(self, gpu: GpuSpec) -> "SystemSpec":
        return replace(self, gpu=gpu)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _power9_monza() -> CpuSpec:
    """IBM POWER9 "Monza": 16 cores @ 3.8 GHz, SMT4, 128-bit VSX."""
    return CpuSpec(
        name="IBM POWER9 Monza",
        core_count=16,
        clock_hz=3.8e9,
        smt=4,
        simd_bytes=16,
        cache=CpuCacheSpec(
            l2_bytes_per_core=512 * KIB,
            l3_bytes_per_core=5 * MIB,
        ),
        memory=MemorySpec(
            capacity_bytes=128 * GIB,
            # The paper's CPU prefix sum sustains ~130 GiB/s of the
            # 170 GB/s electrical rate (Fig. 20b).
            bandwidth_bytes_per_s=gib_per_s(130),
            electrical_bytes_per_s=170 * GB,
            random_read_factor=0.35,
            random_write_factor=0.25,
        ),
    )


def _xeon_gold_6126() -> CpuSpec:
    """Intel Xeon Gold 6126 "Skylake-SP": 12 cores @ 2.6 GHz."""
    return CpuSpec(
        name="Intel Xeon Gold 6126",
        core_count=12,
        clock_hz=2.6e9,
        smt=2,
        simd_bytes=64,
        cache=CpuCacheSpec(
            l2_bytes_per_core=1 * MIB,
            l3_bytes_per_core=int(1.25 * MIB),
        ),
        memory=MemorySpec(
            capacity_bytes=96 * GIB,
            bandwidth_bytes_per_s=gib_per_s(95),
            electrical_bytes_per_s=128 * GB,
            random_read_factor=0.35,
            random_write_factor=0.25,
        ),
    )


def nvlink2() -> InterconnectSpec:
    """NVLink 2.0 as measured in section 3.4.1 (63.5 GiB/s effective)."""
    return InterconnectSpec(
        name="NVLink 2.0",
        raw_bytes_per_s=75 * GB,
        effective_bytes_per_s=gib_per_s(63.5),
        duplex_bytes_per_s=gib_per_s(55.9),
    )


def pcie3_x16() -> InterconnectSpec:
    """PCI-e 3.0 x16 for the V100-PCIE comparison point."""
    return InterconnectSpec(
        name="PCI-e 3.0 x16",
        raw_bytes_per_s=16 * GB,
        effective_bytes_per_s=gib_per_s(12.3),
        duplex_bytes_per_s=gib_per_s(10.5),
        latency_s=1300 * NS,
    )


def ac922() -> SystemSpec:
    """The paper's evaluation machine: IBM AC922 8335-GTH (section 6.1)."""
    return SystemSpec(
        name="IBM AC922 (POWER9 + V100 + NVLink 2.0)",
        cpu=_power9_monza(),
        gpu=GpuSpec(),
        interconnect=nvlink2(),
    )


def xeon_system() -> SystemSpec:
    """The Xeon Gold 6126 comparison host (CPU-only baseline in Fig. 13)."""
    return SystemSpec(
        name="Xeon Gold 6126 host",
        cpu=_xeon_gold_6126(),
        gpu=GpuSpec(),
        interconnect=pcie3_x16(),
        idle_watts=180.0,
        cpu_load_watts=125.0,
    )


def v100_pcie() -> SystemSpec:
    """A V100-PCIE attached over PCI-e 3.0 (used for PCI-e measurements)."""
    return SystemSpec(
        name="V100-PCIE over PCI-e 3.0",
        cpu=_power9_monza(),
        gpu=GpuSpec(name="Tesla V100-PCIE"),
        interconnect=pcie3_x16(),
    )
