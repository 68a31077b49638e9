"""Unit tests for the hardware specs and presets (repro.hw.specs)."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.hw.specs import (
    CpuSpec,
    GpuSpec,
    InterconnectSpec,
    MemorySpec,
    ac922,
    nvlink2,
    pcie3_x16,
    v100_pcie,
    xeon_system,
)
from repro.units import GIB, GB, gib_per_s


class TestAc922Preset:
    """The AC922 preset must carry the paper's section 2.1/6.1 constants."""

    def test_gpu_memory(self):
        system = ac922()
        assert system.gpu.memory.capacity_bytes == 16 * GIB
        assert system.gpu.memory.bandwidth_bytes_per_s == 900 * GB

    def test_cpu_memory(self):
        system = ac922()
        assert system.cpu.memory.capacity_bytes == 128 * GIB
        assert system.cpu.memory.electrical_bytes_per_s == 170 * GB

    def test_gpu_configuration(self):
        gpu = ac922().gpu
        assert gpu.sm_count == 80
        assert gpu.clock_hz == pytest.approx(1.53e9)
        assert gpu.warp_size == 32
        assert gpu.usable_scratchpad_bytes == 64 * 1024

    def test_cpu_configuration(self):
        cpu = ac922().cpu
        assert cpu.core_count == 16
        assert cpu.clock_hz == pytest.approx(3.8e9)
        assert cpu.smt == 4
        assert cpu.simd_bytes == 16  # 128-bit VSX

    def test_nvlink_raw_rate(self):
        link = ac922().interconnect
        assert link.raw_bytes_per_s == 75 * GB
        assert link.effective_bytes_per_s == pytest.approx(gib_per_s(63.5))
        assert link.packet_header_bytes == 16
        assert link.max_payload_bytes == 256
        assert link.transaction_bytes == 128

    def test_idle_power(self):
        assert ac922().idle_watts == 290.0

    def test_huge_pages(self):
        assert ac922().cpu.memory.page_bytes == 2 * 1024 * 1024


class TestTlbSpec:
    def test_l2_reach_is_8_gib(self):
        assert ac922().gpu.tlb.l2_reach_bytes == 8 * GIB

    def test_entry_reach_is_32_mib(self):
        assert ac922().gpu.tlb.entry_reach_bytes == 32 * 1024 * 1024

    def test_measured_latencies(self):
        tlb = ac922().gpu.tlb
        assert tlb.l2_hit_gpu_mem_s == pytest.approx(151.9e-9)
        assert tlb.l2_miss_gpu_mem_s == pytest.approx(226.7e-9)
        assert tlb.l2_hit_cpu_mem_s == pytest.approx(449.7e-9)
        assert tlb.full_miss_latency_s == pytest.approx(3186.4e-9)


class TestIommuSpec:
    def test_walker_pool(self):
        iommu = ac922().cpu.iommu
        assert iommu.page_table_walkers == 12
        assert iommu.walk_coalescing == 16


class TestXeonPreset:
    def test_core_count(self):
        assert xeon_system().cpu.core_count == 12

    def test_small_l3_slice(self):
        # The 1.25 MiB/core L3 budget drives the two-pass switch.
        assert xeon_system().cpu.cache.swwc_budget_per_core < ac922().cpu.cache.swwc_budget_per_core


class TestPciePreset:
    def test_pcie_is_slower_than_nvlink(self):
        assert (
            pcie3_x16().effective_bytes_per_s < nvlink2().effective_bytes_per_s
        )

    def test_v100_pcie_system(self):
        assert v100_pcie().interconnect.name.startswith("PCI-e")


class TestValidation:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            MemorySpec(capacity_bytes=-1, bandwidth_bytes_per_s=1.0,
                       electrical_bytes_per_s=1.0)

    def test_random_factor_range(self):
        with pytest.raises(ConfigurationError):
            MemorySpec(capacity_bytes=1, bandwidth_bytes_per_s=1.0,
                       electrical_bytes_per_s=1.0, random_read_factor=1.5)

    def test_effective_cannot_exceed_raw(self):
        with pytest.raises(ConfigurationError):
            InterconnectSpec(
                name="bogus",
                raw_bytes_per_s=10.0,
                effective_bytes_per_s=20.0,
                duplex_bytes_per_s=5.0,
            )

    def test_duplex_cannot_exceed_effective(self):
        with pytest.raises(ConfigurationError):
            InterconnectSpec(
                name="bogus",
                raw_bytes_per_s=30.0,
                effective_bytes_per_s=20.0,
                duplex_bytes_per_s=25.0,
            )

    def test_gpu_scratchpad_bound(self):
        with pytest.raises(ConfigurationError):
            GpuSpec(usable_scratchpad_bytes=200 * 1024)

    def test_cpu_smt_positive(self):
        spec = ac922().cpu
        with pytest.raises(ConfigurationError):
            dataclasses.replace(spec, smt=0)


class TestDerivedProperties:
    def test_with_sm_count(self):
        gpu = ac922().gpu.with_sm_count(40)
        assert gpu.sm_count == 40
        assert gpu.total_ops_per_s == pytest.approx(40 * gpu.ops_per_sm_per_s)

    def test_with_gpu(self):
        system = ac922()
        modified = system.with_gpu(system.gpu.with_sm_count(8))
        assert modified.gpu.sm_count == 8
        assert system.gpu.sm_count == 80  # original untouched

    def test_memory_capacities(self):
        system = ac922()
        assert system.gpu_memory_capacity == 16 * GIB
        assert system.cpu_memory_capacity == 128 * GIB
