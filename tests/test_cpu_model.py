"""Unit tests for the CPU model (repro.hw.cpu) and power (repro.hw.power)."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.cpu import CpuModel
from repro.hw.interconnect import AccessPattern, Op
from repro.hw.power import PowerModel
from repro.units import GIB


class TestCpuMemory:
    def test_sequential_at_achievable_rate(self, cpu_model):
        cost = cpu_model.access_cost(130 * GIB, Op.READ)
        assert cost.seconds == pytest.approx(1.0)

    def test_random_writes_slower(self, cpu_model):
        seq = cpu_model.access_cost(GIB, Op.WRITE)
        rand = cpu_model.access_cost(GIB, Op.WRITE, AccessPattern.RANDOM)
        assert rand.seconds > seq.seconds

    def test_counters(self, cpu_model):
        cost = cpu_model.access_cost(GIB, Op.READ)
        assert cost.counters.cpu_mem_read_bytes == GIB

    def test_zero_bytes(self, cpu_model):
        assert cpu_model.access_cost(0, Op.READ).seconds == 0.0

    def test_rejects_negative(self, cpu_model):
        with pytest.raises(ConfigurationError):
            cpu_model.access_cost(-1, Op.READ)


class TestCpuCompute:
    def test_total_rate(self, cpu_model):
        spec = cpu_model.spec
        assert cpu_model.compute_time(spec.total_ops_per_s) == pytest.approx(1.0)

    def test_core_fraction(self, cpu_model):
        assert cpu_model.compute_time(1e9, 0.5) == pytest.approx(
            2 * cpu_model.compute_time(1e9)
        )

    def test_rejects_bad_fraction(self, cpu_model):
        with pytest.raises(ConfigurationError):
            cpu_model.compute_time(1.0, core_fraction=2.0)


class TestSwwcCacheBudget:
    def test_power9_fits_large_fanout(self, cpu_model):
        # 5 MiB/core holds SWWC buffers for 2^14 partitions.
        assert cpu_model.swwc_fits_in_cache(1 << 14)

    def test_xeon_switches_to_two_passes(self, xeon):
        model = CpuModel(xeon.cpu)
        # 1.25 MiB/core does not hold 2^14 partitions' buffers.
        assert not model.swwc_fits_in_cache(1 << 14)
        assert model.swwc_fits_in_cache(1 << 13)

    def test_buffer_bytes_scale_with_fanout(self, cpu_model):
        assert cpu_model.swwc_buffer_bytes(512) == 512 * 144

    def test_rejects_bad_fanout(self, cpu_model):
        with pytest.raises(ConfigurationError):
            cpu_model.swwc_buffer_bytes(0)


class TestPowerModel:
    def test_cpu_join_power_is_load_delta(self, system):
        model = PowerModel(system)
        assert model.cpu_join_power() == pytest.approx(
            system.cpu_load_watts - 60.0
        )

    def test_gpu_join_charged_system_idle(self, system):
        model = PowerModel(system)
        expected = (
            system.idle_watts
            - 2 * system.gpu_idle_watts
            + system.gpu_load_watts
            + system.io_watts
        )
        assert model.gpu_join_power() == pytest.approx(expected)

    def test_gpu_join_draws_more_than_cpu_join(self, system):
        # This asymmetry is why the CPU wins Fig. 23 despite being slower.
        model = PowerModel(system)
        assert model.gpu_join_power() > 2 * model.cpu_join_power()

    def test_efficiency_metric(self, system):
        model = PowerModel(system)
        eff = model.efficiency(1e9, 1.0, uses_gpu=False)
        assert eff == pytest.approx(1000.0 / model.cpu_join_power())

    def test_rejects_nonpositive_runtime(self, system):
        with pytest.raises(ConfigurationError):
            PowerModel(system).reading(0.0, uses_gpu=True)
