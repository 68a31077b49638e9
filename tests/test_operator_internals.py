"""White-box tests of the operators' cost structures."""

import pytest

from repro.data.generator import generate_workload
from repro.hashing import HashScheme
from repro.hw.tlb import MemSpace
from repro.join import (
    CachePolicy,
    CpuPartitionedJoin,
    MultiGpuTritonJoin,
    NoPartitioningJoin,
    TritonJoin,
)
from repro.join.triton import DEFAULT_PIPELINE_CHUNKS
from repro.sim import resources as res
from repro.units import GIB, gib


class TestNoPartitioningInternals:
    def test_all_or_nothing_placement(self, system):
        op = NoPartitioningJoin(system, HashScheme.PERFECT)
        small = generate_workload(512, 512, scale_divisor=65536)
        large = generate_workload(1024, 1024, scale_divisor=65536)
        assert op.run(small).notes["gpu_fraction"] == 1.0
        assert op.run(large).notes["gpu_fraction"] == 0.0

    def test_partial_caching_with_explicit_budget(self, system):
        op = NoPartitioningJoin(
            system, HashScheme.PERFECT, cache_bytes=gib(8)
        )
        workload = generate_workload(2048, 2048, scale_divisor=65536)
        run = op.run(workload)
        assert 0.2 < run.notes["gpu_fraction"] < 0.35  # 8 of 30.5 GiB

    def test_partial_cache_speeds_up_monotonically(self, system):
        workload = generate_workload(2048, 2048, scale_divisor=65536)
        times = []
        for cache_gib in (0.0, 7.0, 14.0):
            op = NoPartitioningJoin(
                system, HashScheme.PERFECT, cache_bytes=gib(cache_gib)
            )
            times.append(op.run(workload).seconds)
        assert times[0] > times[1] > times[2]

    def test_linear_probing_table_is_larger(self, system):
        workload = generate_workload(512, 512, scale_divisor=65536)
        perfect = NoPartitioningJoin(system, HashScheme.PERFECT).run(workload)
        linear = NoPartitioningJoin(
            system, HashScheme.LINEAR_PROBING
        ).run(workload)
        # ~2x: 1/load_factor, rounded up to a power of two (§6.2.2).
        ratio = linear.notes["table_bytes"] / perfect.notes["table_bytes"]
        assert 1.9 < ratio < 2.2


class TestTritonInternals:
    def test_graph_has_expected_task_counts(self, system):
        op = TritonJoin(system)
        workload = generate_workload(512, 512, scale_divisor=65536)
        graph = op.build_graph(workload)
        # ps1 + part1 + one (ps2, part2, sched, join) per pipeline chunk.
        assert len(graph.tasks) == 2 + 4 * DEFAULT_PIPELINE_CHUNKS
        graph.validate()

    def test_overlap_halves_sm_shares(self, system):
        workload = generate_workload(512, 512, scale_divisor=65536)
        graph = TritonJoin(system, overlap=True).build_graph(workload)
        join_tasks = [t for t in graph.tasks if t.phase == "Join"]
        full_rate = system.gpu.total_ops_per_s
        for task in join_tasks:
            assert task.rate_caps[res.GPU_SM] == pytest.approx(full_rate / 2)

    def test_serial_mode_uses_full_sms(self, system):
        workload = generate_workload(512, 512, scale_divisor=65536)
        graph = TritonJoin(system, overlap=False).build_graph(workload)
        join_tasks = [t for t in graph.tasks if t.phase == "Join"]
        full_rate = system.gpu.total_ops_per_s
        for task in join_tasks:
            assert task.rate_caps[res.GPU_SM] == pytest.approx(full_rate)

    def test_fully_cached_run_moves_no_spill_traffic(self, system):
        workload = generate_workload(128, 128, scale_divisor=65536)
        run = TritonJoin(system).run(workload)
        assert run.notes["gpu_fraction"] == 1.0
        # PS2 has no spill copy: only PS1/Part1 read CPU memory, and
        # results are the only CPU-memory writes.
        reads = run.counters.cpu_mem_read_bytes
        assert reads < 2.2 * workload.total_nominal_bytes

    def test_spill_traffic_scales_with_uncached_fraction(self, system):
        small = generate_workload(1024, 1024, scale_divisor=65536)
        large = generate_workload(2048, 2048, scale_divisor=65536)
        op = TritonJoin(system)
        small_reads = op.run(small).counters.cpu_mem_read_bytes
        large_reads = op.run(large).counters.cpu_mem_read_bytes
        # Doubling the data more than doubles the reads: the cached
        # fraction shrinks, so spill re-reads grow superlinearly.
        assert large_reads > 2.2 * small_reads

    def test_cache_policy_none_forces_spill(self, system):
        workload = generate_workload(128, 128, scale_divisor=65536)
        run = TritonJoin(system, cache_policy=CachePolicy.NONE).run(workload)
        assert run.notes["gpu_fraction"] == 0.0


class TestCpuPartitionedInternals:
    def test_cpu_partition_tasks_feed_gpu_chunks(self, system):
        op = CpuPartitionedJoin(system)
        workload = generate_workload(512, 512, scale_divisor=65536)
        run = op.run(workload)
        phases = {e.phase for e in run.sim.trace}
        assert phases == {"CPU Partition", "GPU Join"}
        cpu_tasks = [e for e in run.sim.trace if e.phase == "CPU Partition"]
        # R plus one S chunk per pipeline chunk.
        assert len(cpu_tasks) == 1 + DEFAULT_PIPELINE_CHUNKS

    def test_r_partitioning_precedes_every_gpu_chunk(self, system):
        op = CpuPartitionedJoin(system)
        workload = generate_workload(512, 512, scale_divisor=65536)
        run = op.run(workload)
        r_end = next(
            e.end for e in run.sim.trace if e.name == "cpu_part_R"
        )
        for entry in run.sim.trace:
            if entry.phase == "GPU Join":
                assert entry.start >= r_end - 1e-9

    def test_cpu_compute_is_the_bottleneck(self, system):
        workload = generate_workload(2048, 2048, scale_divisor=65536)
        run = CpuPartitionedJoin(system).run(workload)
        util = run.sim.resource_utilization(
            __import__("repro.sim.resources", fromlist=["ResourcePool"])
            .ResourcePool.for_system(system)
        )
        assert util[res.CPU_CORES] > util[res.NVLINK_TO_GPU]


class TestMultiGpuInternals:
    def test_pool_has_per_gpu_resources(self, system):
        op = MultiGpuTritonJoin(system, gpu_count=2)
        pool = op.resources()
        assert "nvlink_to_gpu[0]" in pool
        assert "nvlink_to_gpu[1]" in pool
        assert "xbus" in pool
        assert pool.capacity("gpu_sm[0]") == system.gpu.total_ops_per_s

    def test_slice_halves_nominal_rows(self, system):
        op = MultiGpuTritonJoin(system, gpu_count=2)
        workload = generate_workload(512, 512, scale_divisor=65536)
        sliced = op._slice_workload(workload)
        assert sliced.build.nominal_rows == workload.build.nominal_rows // 2
