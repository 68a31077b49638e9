"""Unit tests for hardware performance counters (repro.hw.counters)."""

import pytest

from repro.hw.counters import PerfCounters


class TestAccumulation:
    def test_merge_sums_fields(self):
        a = PerfCounters(cpu_mem_read_bytes=10, iommu_requests=3)
        b = PerfCounters(cpu_mem_read_bytes=5, iommu_requests=1)
        a.merge(b)
        assert a.cpu_mem_read_bytes == 15
        assert a.iommu_requests == 4

    def test_merge_returns_self(self):
        a = PerfCounters()
        assert a.merge(PerfCounters()) is a

    def test_add_creates_new(self):
        a = PerfCounters(instructions=1)
        b = PerfCounters(instructions=2)
        total = a + b
        assert total.instructions == 3
        assert a.instructions == 1

    def test_stall_accounting(self):
        counters = PerfCounters()
        counters.add_stall("memory_dep", 0.5)
        counters.add_stall("memory_dep", 0.25)
        counters.add_stall("sync", 0.1)
        assert counters.stall_seconds == {"memory_dep": 0.75, "sync": 0.1}

    def test_merge_combines_stalls(self):
        a = PerfCounters()
        a.add_stall("sync", 1.0)
        b = PerfCounters()
        b.add_stall("sync", 2.0)
        b.add_stall("pipe_busy", 3.0)
        a.merge(b)
        assert a.stall_seconds == {"sync": 3.0, "pipe_busy": 3.0}

    def test_snapshot_is_independent(self):
        a = PerfCounters(tuples_processed=7)
        snap = a.snapshot()
        a.tuples_processed = 100
        assert snap.tuples_processed == 7


class TestDerivedMetrics:
    def test_wire_bytes_sums_directions(self):
        c = PerfCounters(
            nvlink_wire_to_gpu_bytes=100, nvlink_wire_to_cpu_bytes=50
        )
        assert c.nvlink_wire_bytes == 150

    def test_iommu_per_tuple(self):
        c = PerfCounters(tuples_processed=1000, iommu_requests=5)
        assert c.iommu_requests_per_tuple == pytest.approx(0.005)

    def test_iommu_per_tuple_no_tuples(self):
        assert PerfCounters(iommu_requests=5).iommu_requests_per_tuple == 0.0

    def test_utilization_uses_to_gpu_direction(self):
        # The paper measures CPU->GPU wire bandwidth against 75 GB/s.
        c = PerfCounters(
            nvlink_wire_to_gpu_bytes=37.5e9, nvlink_wire_to_cpu_bytes=1e12
        )
        assert c.interconnect_utilization(75e9, 1.0) == pytest.approx(0.5)

    def test_utilization_zero_time(self):
        assert PerfCounters().interconnect_utilization(75e9, 0.0) == 0.0
