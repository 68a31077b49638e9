"""Edge-case tests across modules: degenerate inputs, boundaries, and
failure paths that the mainline tests do not reach."""

import numpy as np
import pytest

from repro import faults
from repro.data.generator import generate_workload
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.faults import BandwidthFault, FaultPlan
from repro.hashing import BucketChainingTable, LinearProbingTable
from repro.hw.gpu import MemoryRequest
from repro.hw.interconnect import AccessPattern, Op
from repro.hw.tlb import MemSpace
from repro.join import (
    BloomFilteredTritonJoin,
    CoProcessingJoin,
    CpuPartitionedJoin,
    CpuRadixJoin,
    DegradationLadder,
    JoinOperator,
    MultiGpuTritonJoin,
    NoPartitioningJoin,
    TritonJoin,
    coprocess_rungs,
    reference_join,
)
from repro.join.base import NO_MATCH
from repro.partition import SharedPartitioner, partition_relation
from repro.sim.engine import SimEngine
from repro.sim.resources import Resource, ResourcePool
from repro.sim.tasks import Task, TaskGraph
from repro.sim.trace import PhaseBreakdown, TraceEntry


class TestDegenerateJoins:
    def test_single_tuple_each_side(self, system):
        build = Relation(np.array([1], dtype=np.int64),
                         {"attr0": np.array([42], dtype=np.int64)})
        probe = Relation(np.array([1], dtype=np.int64),
                         {"attr0": np.array([7], dtype=np.int64)})
        from repro.data.generator import Workload, WorkloadConfig

        workload = Workload(
            config=WorkloadConfig(1e-6, 1e-6), build=build, probe=probe
        )
        expected = reference_join(build, probe)
        for op in (TritonJoin(system), NoPartitioningJoin(system),
                   CpuRadixJoin(system), CpuPartitionedJoin(system)):
            run = op.run(workload)
            assert run.match == expected
            assert run.match.matches == 1

    def test_no_matches_at_all(self, system):
        build = Relation(np.arange(1, 101, dtype=np.int64),
                         {"attr0": np.arange(100, dtype=np.int64)})
        probe = Relation(np.arange(1000, 1100, dtype=np.int64),
                         {"attr0": np.arange(100, dtype=np.int64)})
        from repro.data.generator import Workload, WorkloadConfig

        workload = Workload(
            config=WorkloadConfig(1e-4, 1e-4), build=build, probe=probe
        )
        run = TritonJoin(system).run(workload)
        assert run.match.matches == 0
        assert run.seconds > 0

    def test_probe_much_smaller_than_build(self, system):
        workload = generate_workload(0.1, 0.001, scale_divisor=1, seed=2)
        expected = reference_join(workload.build, workload.probe)
        assert TritonJoin(system).run(workload).match == expected

    def test_duplicate_heavy_probe(self, system):
        # Every probe tuple hits the same build key.
        build = Relation(np.arange(1, 1001, dtype=np.int64),
                         {"attr0": np.arange(1000, dtype=np.int64)})
        probe = Relation(np.full(5000, 500, dtype=np.int64),
                         {"attr0": np.zeros(5000, dtype=np.int64)})
        from repro.data.generator import Workload, WorkloadConfig

        workload = Workload(
            config=WorkloadConfig(1e-3, 5e-3), build=build, probe=probe
        )
        run = TritonJoin(system).run(workload)
        assert run.match.matches == 5000


def _relation(keys):
    keys = np.asarray(keys, dtype=np.int64)
    return Relation(keys, {"attr0": np.arange(len(keys), dtype=np.int64)})


def _every_operator(system):
    """One instance of every concrete operator class, every ladder rung's
    operator, and both ladders."""
    operators = [
        cls(system)
        for cls in (
            BloomFilteredTritonJoin,
            CoProcessingJoin,
            CpuPartitionedJoin,
            CpuRadixJoin,
            MultiGpuTritonJoin,
            NoPartitioningJoin,
            TritonJoin,
        )
    ]
    operators += [rung.factory(system) for rung in coprocess_rungs()]
    operators += [
        DegradationLadder(system),
        DegradationLadder(system, rungs=coprocess_rungs()),
    ]
    return operators


def _shipped_operator_classes(cls=JoinOperator):
    """Every operator class the package defines (not test doubles)."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield sub
        yield from _shipped_operator_classes(sub)


class TestEmptySides:
    """A join with a side that has no rows matches nothing, whichever
    operator runs it — including one whose own bloom filter empties the
    probe side."""

    CASES = {
        "empty build": ([], [2, 2]),
        "empty probe": ([1], []),
        # No probe key is in the build: the bloom filter drops every row.
        "probe the filter empties": ([1], [2, 2]),
    }

    def test_every_operator_class_is_covered(self, system):
        covered = {type(op) for op in _every_operator(system)}
        assert set(_shipped_operator_classes()) <= covered

    @pytest.mark.parametrize("case", list(CASES))
    def test_zero_matches(self, system, case):
        from repro.data.generator import Workload, WorkloadConfig

        build, probe = (_relation(keys) for keys in self.CASES[case])
        workload = Workload(
            config=WorkloadConfig(1e-3, 2e-3), build=build, probe=probe
        )
        assert reference_join(build, probe) == NO_MATCH
        for operator in _every_operator(system):
            run = operator.run(workload)
            assert run.match == NO_MATCH, type(operator).__name__
            if len(build) == 0 or len(probe) == 0:
                assert run.seconds == 0.0
            elif isinstance(operator, BloomFilteredTritonJoin):
                assert run.notes["pass_rate"] == 0.0


class TestHashTableEdges:
    def test_single_entry_tables(self):
        keys = np.array([7], dtype=np.int64)
        values = np.array([70], dtype=np.int64)
        for cls in (LinearProbingTable, BucketChainingTable):
            table = cls(keys, values)
            idx, matched = table.probe(np.array([7, 8], dtype=np.int64))
            assert list(idx) == [0]
            assert list(matched) == [70]

    def test_extreme_keys(self):
        keys = np.array([2**62, -(2**62), 0], dtype=np.int64)
        values = np.array([1, 2, 3], dtype=np.int64)
        table = LinearProbingTable(keys, values)
        idx, matched = table.probe(keys)
        assert sorted(matched.tolist()) == [1, 2, 3]

    def test_probe_all_misses_on_full_ish_table(self):
        keys = np.arange(1, 101, dtype=np.int64)
        table = LinearProbingTable(keys, keys, load_factor=0.9)
        idx, _ = table.probe(np.arange(1000, 1100, dtype=np.int64))
        assert len(idx) == 0


class TestPartitionEdges:
    def test_one_bit_partitioning(self):
        keys = np.arange(1, 1001, dtype=np.int64)
        parts = partition_relation(Relation(keys), bits=1)
        assert parts.fanout == 2
        assert parts.sizes().sum() == 1000

    def test_partition_empty_relation(self):
        parts = partition_relation(
            Relation(np.empty(0, dtype=np.int64)), bits=4
        )
        assert parts.offsets[-1] == 0
        assert parts.sizes().max() == 0

    def test_all_keys_identical(self):
        keys = np.full(500, 42, dtype=np.int64)
        parts = partition_relation(Relation(keys), bits=4)
        assert parts.sizes().max() == 500
        assert (parts.sizes() > 0).sum() == 1

    def test_shared_partitioner_minimum_fanout(self):
        work = SharedPartitioner().gpu_work(
            1000.0, 16, 1, MemSpace.CPU, MemSpace.CPU, 65536
        )
        assert work.fanout == 1


class TestSimulatorEdges:
    def test_task_with_only_min_seconds(self):
        pool = ResourcePool({"r": Resource("r", 1.0)})
        task = Task(name="wait", min_seconds=0.5)
        result = SimEngine(pool).run(TaskGraph([task]))
        assert result.makespan_seconds == pytest.approx(0.5)

    def test_chain_of_barriers(self):
        pool = ResourcePool({"r": Resource("r", 1.0)})
        a = Task(name="a")
        b = Task(name="b")
        b.after.append(a)
        result = SimEngine(pool).run(TaskGraph([a, b]))
        assert result.makespan_seconds == 0.0

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            Task(name="bad", demands={"r": -1.0})

    @pytest.mark.parametrize(
        "plan",
        [None, FaultPlan(bandwidth=(BandwidthFault("nvlink_*", 0.5),))],
        ids=["clean", "faulted"],
    )
    def test_unknown_resource_fails_at_run(self, plan):
        pool = ResourcePool({"r": Resource("r", 1.0)})
        task = Task(name="t", demands={"ghost": 1.0})
        with faults.injected(plan), pytest.raises(ConfigurationError):
            SimEngine(pool).run(TaskGraph([task]))

    def test_empty_breakdown(self):
        breakdown = PhaseBreakdown.from_trace([], 0.0)
        assert breakdown.seconds_by_phase == {}
        assert breakdown.fraction("anything") == 0.0
        assert breakdown.percentages() == {}

    def test_zero_duration_entries_ignored(self):
        entries = [TraceEntry("a", "A", 1.0, 1.0),
                   TraceEntry("b", "B", 0.0, 2.0)]
        breakdown = PhaseBreakdown.from_trace(entries, 2.0)
        assert breakdown.fraction("B") == pytest.approx(1.0)


class TestMemoryRequestEdges:
    def test_fractional_total_bytes(self, gpu_model):
        request = MemoryRequest(
            total_bytes=100.5, access_bytes=16, op=Op.READ,
            space=MemSpace.CPU, pattern=AccessPattern.RANDOM,
        )
        cost = gpu_model.access_cost(request)
        assert cost.seconds > 0

    def test_access_larger_than_total(self, gpu_model):
        request = MemoryRequest(
            total_bytes=8, access_bytes=128, op=Op.READ,
            space=MemSpace.CPU, pattern=AccessPattern.RANDOM,
        )
        assert request.accesses == 1
        assert gpu_model.access_cost(request).seconds > 0

    def test_stream_count_one(self, gpu_model):
        request = MemoryRequest(
            total_bytes=1 << 20, access_bytes=1024, op=Op.WRITE,
            space=MemSpace.CPU, pattern=AccessPattern.RANDOM,
            stream_count=1,
        )
        cost = gpu_model.access_cost(request)
        assert cost.counters.iommu_requests == 0.0


class TestWorkloadEdges:
    def test_tiny_fractional_cardinalities(self):
        workload = generate_workload(0.001, 0.002, scale_divisor=1)
        assert len(workload.build) == 1000
        assert len(workload.probe) == 2000

    def test_heavily_scaled_tiny_workload_still_joins(self, system):
        workload = generate_workload(1, 1, scale_divisor=1e9)
        run = TritonJoin(system).run(workload)
        assert run.match.matches == len(workload.probe)
