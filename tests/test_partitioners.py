"""Unit tests for the GPU partitioning algorithms' work profiles."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.interconnect import Op
from repro.hw.tlb import MemSpace
from repro.partition import (
    HierarchicalPartitioner,
    LinearPartitioner,
    SharedPartitioner,
    StandardPartitioner,
)
from repro.units import KIB, gib

SCRATCH = 64 * KIB
TUPLE = 16
ALL = [
    StandardPartitioner(),
    LinearPartitioner(),
    SharedPartitioner(),
    HierarchicalPartitioner(),
]


def work_for(algorithm, fanout, tuples=gib(1) / TUPLE, dst=MemSpace.CPU):
    return algorithm.gpu_work(tuples, TUPLE, fanout, MemSpace.CPU, dst, SCRATCH)


class TestWorkShapes:
    def test_read_volume_equals_input(self):
        for algorithm in ALL:
            work = work_for(algorithm, 64)
            assert work.input_bytes == pytest.approx(gib(1))

    def test_write_volume_present(self):
        for algorithm in ALL:
            work = work_for(algorithm, 64)
            writes = [r for r in work.requests if r.op is Op.WRITE]
            assert sum(r.total_bytes for r in writes) >= gib(1) * 0.99

    def test_duplex_set_for_cpu_to_cpu(self):
        work = work_for(SharedPartitioner(), 64)
        assert all(
            r.duplex for r in work.requests if r.space is MemSpace.CPU
        )

    def test_duplex_unset_for_gpu_destination(self):
        work = work_for(SharedPartitioner(), 64, dst=MemSpace.GPU)
        assert not any(r.duplex for r in work.requests)

    def test_rejects_non_power_of_two_fanout(self):
        with pytest.raises(ConfigurationError):
            work_for(SharedPartitioner(), 100)

    def test_rejects_fanout_beyond_buffers(self):
        with pytest.raises(ConfigurationError):
            work_for(SharedPartitioner(), 8192)  # > 64 KiB / 16 B


class TestStandard:
    def test_tuple_granular_writes(self):
        work = work_for(StandardPartitioner(), 512)
        assert work.flush_bytes == TUPLE

    def test_unbounded_fanout(self):
        assert StandardPartitioner().max_fanout(TUPLE, SCRATCH) > 1 << 20


class TestLinear:
    def test_flush_shrinks_with_fanout(self):
        linear = LinearPartitioner()
        small = work_for(linear, 4).flush_bytes
        large = work_for(linear, 1024).flush_bytes
        assert small > large

    def test_writes_misaligned(self):
        work = work_for(LinearPartitioner(), 64)
        write = next(r for r in work.requests if r.op is Op.WRITE)
        assert not write.aligned

    def test_batch_fills_scratchpad(self):
        assert LinearPartitioner().batch_tuples(TUPLE, SCRATCH) == 4096


class TestShared:
    def test_flush_is_whole_buffer(self):
        shared = SharedPartitioner()
        work = work_for(shared, 64)
        assert work.flush_bytes == SCRATCH // 64

    def test_flushes_aligned(self):
        work = work_for(SharedPartitioner(), 64)
        write = next(
            r for r in work.requests
            if r.op is Op.WRITE and r.space is MemSpace.CPU
        )
        assert write.aligned
        assert write.stream_count == 64

    def test_perfect_coalescing_until_128_bytes(self):
        shared = SharedPartitioner()
        # 64 KiB / 512 = 128 B: the last perfectly coalesced fanout.
        assert work_for(shared, 512).flush_bytes == 128
        assert work_for(shared, 1024).flush_bytes == 64

    def test_instructions_grow_with_fanout(self):
        shared = SharedPartitioner()
        assert (
            work_for(shared, 2048).issue_slots
            > work_for(shared, 64).issue_slots
        )


class TestHierarchical:
    def test_cpu_flush_granularity_is_l2_buffer(self):
        hierarchical = HierarchicalPartitioner()
        for fanout in (64, 512, 2048):
            work = work_for(hierarchical, fanout)
            assert work.flush_bytes == hierarchical.l2_buffer_bytes

    def test_gpu_memory_detour_for_spills(self):
        work = work_for(HierarchicalPartitioner(), 512)
        gpu_requests = [r for r in work.requests if r.space is MemSpace.GPU]
        # L1->L2 eviction writes plus flush read-back.
        assert len(gpu_requests) == 2
        assert sum(r.total_bytes for r in gpu_requests) == pytest.approx(
            2 * gib(1)
        )

    def test_no_detour_for_gpu_destination(self):
        work = work_for(HierarchicalPartitioner(), 512, dst=MemSpace.GPU)
        reads = [r for r in work.requests if r.op is Op.READ]
        assert all(r.space is MemSpace.CPU for r in reads)

    def test_efficiency_drop_only_at_tiny_buffers(self):
        hierarchical = HierarchicalPartitioner()
        ok = hierarchical.write_profile(1024, TUPLE, SCRATCH, MemSpace.CPU)
        tiny = hierarchical.write_profile(2048, TUPLE, SCRATCH, MemSpace.CPU)
        assert ok.write_efficiency == 1.0
        assert tiny.write_efficiency < 1.0

    def test_more_instructions_than_shared(self):
        shared = work_for(SharedPartitioner(), 512)
        hierarchical = work_for(HierarchicalPartitioner(), 512)
        assert hierarchical.issue_slots > shared.issue_slots


class TestDesignGoalsDeclarations:
    def test_table_one(self):
        goals = {a.name: a.design_goals for a in ALL}
        assert not goals["Standard"].space_efficient
        assert goals["Linear"].space_efficient
        assert not goals["Linear"].perfect_coalescing
        assert goals["Shared"].perfect_coalescing
        assert not goals["Shared"].high_fanout
        assert goals["Hierarchical"].high_fanout
