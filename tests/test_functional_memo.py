"""The run cache's functional memo: one functional step per distinct input.

While the run cache is on, :meth:`repro.join.base.Operator.run` serves
the functional step of a family that names its inputs (the sorts, the
aggregations, the no-partitioning join) from
:func:`repro.join.run_cache.memoized_functional`. The key is what the
family names plus the identity of the arrays, checked through weak
references. Operators that share a key must give equal outputs; the
first class below pins that for the families that share entries.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro import telemetry
from repro.aggregate import (
    AggregateFunction,
    DistinctResult,
    NoPartitioningAggregation,
    NoPartitioningDistinct,
    TritonAggregation,
    TritonDistinct,
)
from repro.aggregate.group_by import AggregationOperator
from repro.bench.experiments import ext_scaling, ext_sort
from repro.data.generator import generate_workload
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.hashing.hash_table import HashScheme
from repro.join import NoPartitioningJoin, TritonJoin, run_cache
from repro.kernels.scatter import force_reference
from repro.sort import CpuRadixSort, GpuRadixSort


def tally():
    return (
        telemetry.registry.counter("run_cache.functional_hits"),
        telemetry.registry.counter("run_cache.functional_misses"),
    )


@pytest.fixture
def cache():
    run_cache.enable()
    run_cache.clear()
    try:
        yield
    finally:
        run_cache.disable()
        run_cache.clear()


def duplicate_heavy(rows=20_000, distinct=64, seed=5) -> Relation:
    """Keys drawn from a few values spread over the 63-bit range, so
    the GPU sort's MSD buckets and refinements both see duplicates; the
    row-number payload shows whether a sort kept equal keys in order."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**62, size=distinct)
    keys = rng.choice(values, size=rows)
    return Relation(
        keys,
        {"attr0": np.arange(rows), "attr1": rng.integers(0, 1000, size=rows)},
        name="F",
    )


def copied(relation: Relation) -> Relation:
    """Equal contents in new arrays."""
    return Relation(
        relation.keys.copy(),
        {name: values.copy() for name, values in relation.payloads.items()},
        nominal_rows=relation.nominal_rows,
        name=relation.name,
    )


@pytest.fixture
def calls(monkeypatch):
    """Counts every functional step of the memoized families."""
    seen = []

    def counted(cls):
        original = cls.functional

        def counting(self, *args, **kwargs):
            seen.append(type(self).__name__)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "functional", counting)

    for cls in (
        CpuRadixSort, GpuRadixSort, AggregationOperator, TritonAggregation,
        NoPartitioningJoin,
    ):
        counted(cls)
    return seen


class TestSharedKeysHoldEqualOutputs:
    def test_cpu_and_gpu_sorts_give_one_relation(self, system):
        relation = duplicate_heavy()
        cpu = CpuRadixSort(system).functional(relation)
        gpu = GpuRadixSort(system).functional(relation)
        np.testing.assert_array_equal(cpu.keys, gpu.keys)
        assert list(cpu.payloads) == list(gpu.payloads)
        for name, values in cpu.payloads.items():
            np.testing.assert_array_equal(values, gpu.payloads[name])
        order = np.argsort(relation.keys, kind="stable")
        np.testing.assert_array_equal(cpu.payloads["attr0"], order)

    @pytest.mark.parametrize("function", list(AggregateFunction))
    def test_aggregation_strategies_agree(self, system, function):
        relation = duplicate_heavy()
        results = {
            op(system, function).run(relation, groups_nominal=64).result
            for op in (NoPartitioningAggregation, TritonAggregation)
        }
        assert len(results) == 1

    def test_distinct_strategies_agree(self, system):
        relation = duplicate_heavy()
        results = {
            op(system).run(relation, groups_nominal=64).result
            for op in (NoPartitioningDistinct, TritonDistinct)
        }
        assert len(results) == 1
        (result,) = results
        assert result.distinct == len(np.unique(relation.keys))


class TestFamiliesShareOneStep:
    def test_sorts_share_entries_across_nominal_sizes(
        self, system, cache, calls
    ):
        relation = duplicate_heavy()
        runs = [
            sorter(system).run(relation.with_nominal_rows(rows))
            for sorter in (CpuRadixSort, GpuRadixSort)
            for rows in (10**6, 10**9)
        ]
        assert all(run.is_sorted for run in runs)
        assert calls == ["CpuRadixSort"]
        assert tally() == (3, 1)
        run_cache.disable()
        assert [
            sorter(system).run(relation.with_nominal_rows(rows)).seconds
            for sorter in (CpuRadixSort, GpuRadixSort)
            for rows in (10**6, 10**9)
        ] == [run.seconds for run in runs]

    def test_aggregations_share_entries_distinct_does_not(
        self, system, cache, calls
    ):
        relation = duplicate_heavy()
        sums = [
            op(system, AggregateFunction.SUM).run(relation, groups_nominal=64)
            for op in (NoPartitioningAggregation, TritonAggregation)
        ]
        assert sums[0].result == sums[1].result
        assert tally() == (1, 1)
        count = TritonAggregation(system, AggregateFunction.COUNT)
        distinct = TritonDistinct(system)
        counted = count.run(relation, groups_nominal=64).result
        (result, _) = distinct.distinct(relation, 64)
        assert tally() == (1, 3)
        assert counted.groups == result.distinct
        assert isinstance(result, DistinctResult)

    def test_no_partitioning_join_keys_on_scheme(self, system, cache, calls):
        workload = generate_workload(64, 64, scale_divisor=65536, seed=3)
        small, large = (
            NoPartitioningJoin(system, cache_bytes=size)
            for size in (2**28, 2**31)
        )
        first = small.run(workload)
        second = large.run(workload)
        assert second.match == first.match
        assert tally() == (1, 1)
        NoPartitioningJoin(system, HashScheme.LINEAR_PROBING).run(workload)
        assert tally() == (1, 2)
        assert len(calls) == 2

    def test_radix_joins_stay_with_the_match_memo(self, system, cache):
        workload = generate_workload(64, 64, scale_divisor=65536, seed=3)
        for size in (2**28, 2**31):
            TritonJoin(system, cache_bytes=size).run(workload)
        assert tally() == (0, 0)
        assert telemetry.registry.counter("run_cache.match_hits") == 1

    def test_ext_sort_sorts_once(self, cache, calls):
        table = ext_sort.run()
        assert calls == ["CpuRadixSort"]
        assert tally() == (5, 1)
        run_cache.disable()
        assert ext_sort.run().format() == table.format()

    def test_ext_scaling_groups_once(self, cache, calls):
        table = ext_scaling.run_aggregation()
        assert calls == ["NoPartitioningAggregation"]
        assert tally() == (5, 1)
        run_cache.disable()
        assert ext_scaling.run_aggregation().format() == table.format()


class TestIdentityKey:
    def test_equal_contents_in_other_arrays_miss(self, system, cache):
        relation = duplicate_heavy()
        sorter = CpuRadixSort(system)
        sorter.run(relation)
        sorter.run(copied(relation))
        assert tally() == (0, 2)

    def test_reused_id_never_aliases(self, system, cache, monkeypatch):
        # Every array gets one id, so every sort of one column layout
        # shares a key: only the weak references tell the entries apart.
        monkeypatch.setattr(run_cache, "id", lambda array: 7, raising=False)
        sorter = CpuRadixSort(system)
        relation = copied(duplicate_heavy())
        sorter.run(relation)
        sorter.run(relation)
        assert tally() == (1, 1)
        # Live arrays other than the entry's miss.
        other = copied(relation)
        assert sorter.run(other).is_sorted
        assert tally() == (1, 2)
        # A dead array's entry never hits.
        del relation, other
        gc.collect()
        (entry,) = run_cache._memo.values()
        assert all(ref() is None for ref in entry.arrays)
        assert sorter.run(copied(duplicate_heavy())).is_sorted
        assert tally() == (1, 3)

    def test_relation_without_payloads_hits(self, system, cache):
        relation = Relation(duplicate_heavy().keys)
        op = TritonAggregation(system, AggregateFunction.COUNT)
        first = op.run(relation, groups_nominal=64).result
        assert op.run(relation, groups_nominal=64).result == first
        assert tally() == (1, 1)


class TestBypass:
    def test_cache_off(self, system, calls):
        assert not run_cache.enabled()
        relation = duplicate_heavy()
        before = tally()
        for _ in range(2):
            CpuRadixSort(system).run(relation)
        assert tally() == before
        assert len(calls) == 2
        assert not run_cache._memo

    def test_force_reference(self, system, cache, calls):
        relation = duplicate_heavy()
        with force_reference():
            for _ in range(2):
                CpuRadixSort(system).run(relation)
        assert len(calls) == 2
        assert tally() == (0, 0)

    def test_an_error_is_not_memoized(self, system, cache, monkeypatch):
        relation = duplicate_heavy()
        original = CpuRadixSort.functional
        failures = [ConfigurationError("injected")]

        def failing_once(self, relation):
            if failures:
                raise failures.pop()
            return original(self, relation)

        monkeypatch.setattr(CpuRadixSort, "functional", failing_once)
        with pytest.raises(ConfigurationError, match="injected"):
            CpuRadixSort(system).run(relation)
        assert not run_cache._memo
        assert CpuRadixSort(system).run(relation).is_sorted
        assert CpuRadixSort(system).run(relation).is_sorted
        assert tally() == (1, 2)
