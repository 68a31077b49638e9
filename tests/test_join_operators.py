"""Unit tests for the four join operators: correctness + cost structure."""

import pytest

from repro.data.generator import generate_workload
from repro.hashing import HashScheme
from repro.join import (
    CachePolicy,
    CpuPartitionedJoin,
    CpuRadixJoin,
    NoPartitioningJoin,
    TritonJoin,
    reference_join,
)
from repro.join.cpu_radix import radix_bits_for
from repro.partition.prefix_sum import PrefixSumLocation
from repro.units import M_TUPLES


@pytest.fixture(scope="module")
def workload():
    return generate_workload(0.1, 0.2, scale_divisor=1, seed=3)


@pytest.fixture(scope="module")
def reference(workload):
    return reference_join(workload.build, workload.probe)


class TestCorrectness:
    """Every operator must reproduce the reference join exactly."""

    def test_no_partitioning_all_schemes(self, system, workload, reference):
        for scheme in HashScheme:
            run = NoPartitioningJoin(system, scheme).run(workload)
            assert run.match == reference, scheme

    def test_cpu_radix(self, system, xeon, workload, reference):
        assert CpuRadixJoin(system).run(workload).match == reference
        assert CpuRadixJoin(xeon).run(workload).match == reference

    def test_cpu_partitioned(self, system, workload, reference):
        assert CpuPartitionedJoin(system).run(workload).match == reference

    def test_triton_default(self, system, workload, reference):
        assert TritonJoin(system).run(workload).match == reference

    def test_triton_variants(self, system, workload, reference):
        variants = [
            TritonJoin(system, cache_policy=CachePolicy.NONE),
            TritonJoin(system, overlap=False),
            TritonJoin(system, prefix_sum=PrefixSumLocation.GPU),
            TritonJoin(system, scheme=HashScheme.PERFECT),
        ]
        for op in variants:
            assert op.run(workload).match == reference

    def test_skewed_workload(self, system):
        skewed = generate_workload(0.05, 0.2, zipf_theta=0.9, seed=5)
        reference = reference_join(skewed.build, skewed.probe)
        assert TritonJoin(system).run(skewed).match == reference
        assert NoPartitioningJoin(system).run(skewed).match == reference


class TestRunMetadata:
    def test_throughput_positive(self, system, workload):
        run = TritonJoin(system).run(workload)
        assert run.throughput_g_tuples_per_s > 0
        assert run.seconds > 0

    def test_triton_notes(self, system, workload):
        run = TritonJoin(system).run(workload)
        assert "plan_bits" in run.notes
        assert 0 <= run.notes["gpu_fraction"] <= 1.0

    def test_np_notes(self, system, workload):
        run = NoPartitioningJoin(system).run(workload)
        assert run.notes["table_bytes"] > 0
        assert run.notes["gpu_fraction"] == 1.0  # small table fits

    def test_cpu_radix_uses_no_gpu(self, system, workload):
        run = CpuRadixJoin(system).run(workload)
        assert not run.uses_gpu
        assert run.counters.nvlink_wire_bytes == 0

    def test_counters_flow_through(self, system, workload):
        run = TritonJoin(system).run(workload)
        assert run.counters.cpu_mem_read_bytes > 0
        assert run.counters.tuples_processed > 0


class TestCostStructure:
    def test_np_cliff_emerges(self, system):
        small = generate_workload(512, 512, scale_divisor=8192)
        large = generate_workload(2048, 2048, scale_divisor=8192)
        op = NoPartitioningJoin(system, HashScheme.PERFECT)
        in_core = op.run(small).throughput_g_tuples_per_s
        out_core = op.run(large).throughput_g_tuples_per_s
        assert in_core / out_core > 3

    def test_triton_degrades_gracefully(self, system):
        op = TritonJoin(system)
        small = op.run(generate_workload(512, 512, scale_divisor=8192))
        large = op.run(generate_workload(2048, 2048, scale_divisor=8192))
        ratio = (
            large.throughput_g_tuples_per_s / small.throughput_g_tuples_per_s
        )
        assert ratio > 0.7  # paper: 74% of peak retained

    def test_overlap_beats_serial(self, system):
        workload = generate_workload(2048, 2048, scale_divisor=16384)
        overlapped = TritonJoin(system, overlap=True).run(workload)
        serial = TritonJoin(system, overlap=False).run(workload)
        assert overlapped.seconds < serial.seconds

    def test_caching_helps_out_of_core(self, system):
        workload = generate_workload(2048, 2048, scale_divisor=16384)
        cached = TritonJoin(system).run(workload)
        uncached = TritonJoin(system, cache_policy=CachePolicy.NONE).run(workload)
        assert cached.seconds < uncached.seconds

    def test_aggregate_cheaper_than_materialize(self, system):
        workload = generate_workload(512, 512, scale_divisor=16384)
        materialized = TritonJoin(system).run(workload)
        aggregated = TritonJoin(system, aggregate=True).run(workload)
        assert aggregated.seconds < materialized.seconds

    def test_phase_breakdown_covers_pipeline(self, system):
        workload = generate_workload(512, 512, scale_divisor=16384)
        run = TritonJoin(system).run(workload)
        phases = run.sim.phase_breakdown().seconds_by_phase
        for phase in ("PS 1", "Part 1", "Part 2", "Join"):
            assert phase in phases

    def test_xeon_slower_than_power9_at_scale(self, system, xeon):
        workload = generate_workload(2048, 2048, scale_divisor=16384)
        p9 = CpuRadixJoin(system).run(workload)
        xe = CpuRadixJoin(xeon).run(workload)
        assert xe.seconds > p9.seconds
        assert xe.notes["passes"] == 2
        assert p9.notes["passes"] == 1


class TestRadixBitsFor:
    def test_clamped_window(self):
        assert radix_bits_for(int(128 * M_TUPLES)) == 12
        assert radix_bits_for(int(2048 * M_TUPLES)) == 14

    def test_threshold_matches_paper(self):
        # The Xeon switches to two passes above 1408 M tuples because
        # that workload needs 14 bits.
        assert radix_bits_for(int(1408 * M_TUPLES)) == 14
        assert radix_bits_for(int(1024 * M_TUPLES)) == 13
