"""Unit tests for the CPU SWWC partitioner, the radix planner, and
prefix sums."""

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.errors import ConfigurationError, PlanError
from repro.hw.cpu import CpuModel
from repro.hw.gpu import GpuModel
from repro.partition.planner import RadixPlan, plan_radix_join
from repro.partition.radix import partition_relation
from repro.partition.prefix_sum import (
    PrefixSumLocation,
    exclusive_scan,
    prefix_sum_task,
)
from repro.partition.swwc import CpuSwwcPartitioner
from repro.sim.kernels import CpuTaskBuilder, GpuKernelBuilder
from repro.units import GIB, M_TUPLES


@pytest.fixture
def p9(cpu_model):
    return CpuSwwcPartitioner(cpu_model)


@pytest.fixture
def xeon_swwc(xeon):
    return CpuSwwcPartitioner(CpuModel(xeon.cpu))


class TestCpuSwwc:
    def test_functional_partitioning(self):
        keys = np.random.default_rng(2).permutation(5000).astype(np.int64) + 1
        parts = partition_relation(Relation(keys), bits=4)
        assert parts.offsets[-1] == 5000

    def test_power9_single_pass_at_14_bits(self, p9):
        assert p9.passes_needed(1 << 14) == 1

    def test_xeon_two_passes_at_14_bits(self, xeon_swwc):
        assert xeon_swwc.passes_needed(1 << 14) == 2

    def test_pass_fanouts_cover_total(self, xeon_swwc):
        fanouts = xeon_swwc.pass_fanouts(1 << 14)
        assert len(fanouts) == 2
        assert fanouts[0] * fanouts[1] >= 1 << 14

    def test_two_passes_double_memory_traffic(self, xeon_swwc):
        one = xeon_swwc.work(1e9, 16, 1 << 13)
        two = xeon_swwc.work(1e9, 16, 1 << 14)
        assert two.read_bytes == pytest.approx(2 * one.read_bytes)

    def test_rfo_write_amplification(self, p9, cpu_model):
        # POWER lacks non-temporal stores: writes cost 2x (read for
        # ownership + write back).
        without_nt = p9.work(1e6, 16, 1024)
        with_nt = CpuSwwcPartitioner(cpu_model, non_temporal_stores=True).work(
            1e6, 16, 1024
        )
        assert without_nt.write_bytes == pytest.approx(2 * with_nt.write_bytes)

    def test_tlb_term_raises_ops_at_high_fanout(self, p9):
        low = p9.ops_per_tuple(1 << 12, 16)
        high = p9.ops_per_tuple(1 << 14, 16)
        assert high > low

    def test_throughput_near_2_g_tuples(self, p9):
        # Calibration target: one POWER9 socket partitions ~2 G tuples/s
        # (Fig. 4 / section 3.1's rate argument).
        rate = p9.throughput_tuples_per_s(1e9, 16, 512)
        assert 1.5e9 < rate < 2.5e9

    def test_rejects_negative_tuples(self, p9):
        with pytest.raises(ConfigurationError):
            p9.work(-1, 16, 64)


class TestPlanner:
    def test_paper_plans(self, system):
        # The paper's configuration: 6-10 bits pass 1, 9 bits pass 2.
        for m_tuples, expected_b1 in ((128, 6), (512, 8), (2048, 10)):
            plan = plan_radix_join(
                m_tuples * M_TUPLES, m_tuples * M_TUPLES, 16, system
            )
            assert plan.bits1 == expected_b1
            assert plan.bits2 == 9
            assert plan.passes == 2

    def test_final_partitions_fit_scratchpad(self, system):
        plan = plan_radix_join(2048 * M_TUPLES, 2048 * M_TUPLES, 16, system)
        per_partition = 2048 * M_TUPLES * 16 / (1 << plan.total_bits)
        assert per_partition <= system.gpu.usable_scratchpad_bytes

    def test_single_pass_mode(self, system):
        plan = plan_radix_join(
            2048 * M_TUPLES, 2048 * M_TUPLES, 16, system, single_pass=True
        )
        assert plan.passes == 1

    def test_small_workload_min_bits(self, system):
        plan = plan_radix_join(1 * M_TUPLES, 1 * M_TUPLES, 16, system)
        assert plan.bits1 >= 6 or plan.passes == 1

    def test_wide_tuples_need_more_partitions(self, system):
        narrow = plan_radix_join(512 * M_TUPLES, 512 * M_TUPLES, 16, system)
        wide = plan_radix_join(512 * M_TUPLES, 512 * M_TUPLES, 136, system)
        assert wide.total_bits > narrow.total_bits

    def test_plan_properties(self):
        plan = RadixPlan(bits_per_pass=[8, 9])
        assert plan.fanout1 == 256
        assert plan.total_bits == 17

    def test_rejects_bad_cardinality(self, system):
        with pytest.raises(PlanError):
            plan_radix_join(0, 1, 16, system)


class TestPrefixSum:
    def test_exclusive_scan(self):
        offsets = exclusive_scan(np.array([3, 0, 5]))
        assert list(offsets) == [0, 3, 3, 8]

    def test_scan_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            exclusive_scan(np.zeros((2, 2)))

    def test_cpu_task_memory_bound(self, system):
        # The CPU prefix sum must stream at ~130 GiB/s (Fig. 20b).
        builder = CpuTaskBuilder(CpuModel(system.cpu))
        tuples = 4096e6
        task = prefix_sum_task(tuples, PrefixSumLocation.CPU, builder)
        rate = tuples * 8 / task.standalone_seconds() / GIB
        assert 120 < rate < 135

    def test_gpu_task_link_bound(self, system):
        builder = GpuKernelBuilder(GpuModel(system))
        tuples = 4096e6
        task = prefix_sum_task(tuples, PrefixSumLocation.GPU, builder)
        rate = tuples * 8 / task.standalone_seconds() / GIB
        assert 60 < rate < 65

    def test_builder_type_checked(self, system):
        builder = CpuTaskBuilder(CpuModel(system.cpu))
        with pytest.raises(ConfigurationError):
            prefix_sum_task(1e6, PrefixSumLocation.GPU, builder)
