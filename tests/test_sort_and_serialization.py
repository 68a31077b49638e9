"""Tests for the radix sort substrate and table serialization."""

import json

import numpy as np
import pytest

from repro.bench.harness import ExperimentTable
from repro.data.relation import Relation
from repro.bench.experiments import ext_sort
from repro.sort import CpuRadixSort, GpuRadixSort


def make_relation(rows=50_000, seed=3, nominal=None):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**62, size=rows).astype(np.int64)
    return Relation(keys, {"attr0": keys * 3}, nominal_rows=nominal)


class TestFunctionalSort:
    def test_produces_sorted_output(self, system):
        run = GpuRadixSort(system).run(make_relation())
        assert run.is_sorted

    def test_sort_is_a_permutation(self, system):
        relation = make_relation(rows=5000, seed=9)
        sorter = GpuRadixSort(system)
        result = sorter.functional(relation)
        assert np.array_equal(np.sort(relation.keys), result.keys)

    def test_payloads_travel_with_keys(self, system):
        relation = make_relation(rows=5000, seed=9)
        result = GpuRadixSort(system).functional(relation)
        assert np.array_equal(result.payloads["attr0"], result.keys * 3)

    def test_duplicates_survive(self, system):
        keys = np.array([5, 1, 5, 3, 1], dtype=np.int64)
        relation = Relation(keys, {"attr0": keys})
        result = GpuRadixSort(system).functional(relation)
        assert list(result.keys) == [1, 1, 3, 5, 5]

    def test_already_sorted_input(self, system):
        relation = Relation(np.arange(1000, dtype=np.int64))
        run = GpuRadixSort(system).run(relation)
        assert run.is_sorted


class TestSortCost:
    def test_throughput_in_plausible_band(self, system):
        # 61 GiB sort: the paper's sorting-related work reaches a few
        # G tuples/s on similar hardware; ours must be link-bound.
        relation = make_relation(nominal=4_096_000_000)
        run = GpuRadixSort(system).run(relation)
        assert 0.3 < run.throughput_g_tuples_per_s < 3.0

    def test_out_of_core_scales_gracefully(self, system):
        sorter = GpuRadixSort(system)
        small = sorter.run(make_relation(nominal=512_000_000))
        large = sorter.run(make_relation(nominal=4_096_000_000))
        ratio = (
            large.seconds / small.seconds
        ) / (4_096_000_000 / 512_000_000)
        assert 0.7 < ratio < 1.3  # near-linear in input size

    def test_pass_count(self, system):
        run = GpuRadixSort(system).run(make_relation())
        # 8 MSD bits + ceil(55 / 8) refinement digit passes.
        assert run.passes == 1 + 7

    def test_empty_input_is_the_empty_run(self, system):
        empty = Relation(np.empty(0, dtype=np.int64))
        for sorter in (GpuRadixSort(system), CpuRadixSort(system)):
            run = sorter.run(empty)
            assert (run.is_sorted, run.seconds, run.passes, run.sim) == (
                True, 0.0, 0, None
            )


class TestCpuRadixSort:
    def test_sorts_the_ext_sort_input(self, system):
        relation = ext_sort._input(256_000_000)
        run = CpuRadixSort(system).run(relation)
        assert run.is_sorted
        # ceil(63 / 11) LSD counting passes.
        assert run.passes == 6
        # 256 M 16-byte tuples, 6 SWWC passes: memory-bound on POWER9.
        assert run.seconds == 0.768

    def test_output_is_the_stable_sort(self, system):
        relation = make_relation(rows=5000, seed=9)
        result = CpuRadixSort(system).functional(relation)
        assert np.array_equal(np.sort(relation.keys), result.keys)
        assert np.array_equal(result.payloads["attr0"], result.keys * 3)

    def test_cost_is_the_simulated_run(self, system):
        relation = ext_sort._input(1_024_000_000)
        sorter = CpuRadixSort(system)
        assert sorter.cost(relation).makespan_seconds == sorter.run(
            relation
        ).seconds == 3.072


class TestTableSerialization:
    @pytest.fixture
    def table(self):
        t = ExperimentTable("demo", "Demo", ["a", "b"], unit="GiB/s")
        t.add_row("x", {"a": 1.5, "b": 2.0})
        t.add_row("partial", {"a": 3.0})
        t.add_note("note one")
        return t

    def test_dict_round_trip(self, table):
        restored = ExperimentTable.from_dict(table.to_dict())
        assert restored.experiment == table.experiment
        assert restored.columns == table.columns
        assert restored.row("x").get("b") == 2.0
        assert restored.notes == table.notes

    def test_json_serializable(self, table):
        payload = json.dumps(table.to_dict())
        restored = ExperimentTable.from_dict(json.loads(payload))
        assert restored.row("partial").get("a") == 3.0
