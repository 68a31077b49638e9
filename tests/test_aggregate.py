"""Unit tests for the group-by aggregation extension (repro.aggregate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate import (
    AggregateFunction,
    AggregationResult,
    NoPartitioningAggregation,
    TritonAggregation,
    reference_aggregate,
)
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.partition.planner import RadixPlan


def make_relation(rows=20_000, groups=500, seed=0, nominal=None):
    rng = np.random.default_rng(seed)
    keys = rng.integers(1, groups + 1, size=rows).astype(np.int64)
    values = rng.integers(-1000, 1000, size=rows).astype(np.int64)
    return Relation(keys, {"attr0": values}, nominal_rows=nominal, name="F")


class TestReferenceAggregate:
    def test_sum(self):
        relation = Relation(
            np.array([1, 2, 1], dtype=np.int64),
            {"attr0": np.array([10, 20, 5], dtype=np.int64)},
        )
        result = reference_aggregate(relation, AggregateFunction.SUM)
        assert result.groups == 2

    def test_count_ignores_values(self):
        relation = make_relation(1000, 10)
        result = reference_aggregate(relation, AggregateFunction.COUNT)
        assert result.groups == 10

    @pytest.mark.parametrize("fn", list(AggregateFunction))
    def test_deterministic(self, fn):
        relation = make_relation()
        assert reference_aggregate(relation, fn) == reference_aggregate(
            relation, fn
        )


class TestCorrectness:
    @pytest.mark.parametrize("fn", list(AggregateFunction))
    def test_triton_matches_reference(self, system, fn):
        relation = make_relation(seed=int(ord(fn.value[0])))
        expected = reference_aggregate(relation, fn)
        run = TritonAggregation(system, fn).run(relation, groups_nominal=500)
        assert run.result == expected

    @pytest.mark.parametrize("fn", list(AggregateFunction))
    def test_np_matches_reference(self, system, fn):
        relation = make_relation(seed=7)
        expected = reference_aggregate(relation, fn)
        run = NoPartitioningAggregation(system, fn).run(
            relation, groups_nominal=500
        )
        assert run.result == expected

    def test_single_group(self, system):
        relation = Relation(
            np.ones(100, dtype=np.int64),
            {"attr0": np.arange(100, dtype=np.int64)},
        )
        run = TritonAggregation(system).run(relation, groups_nominal=1)
        assert run.result.groups == 1

    def test_all_distinct_groups(self, system):
        keys = np.arange(1, 5001, dtype=np.int64)
        relation = Relation(keys, {"attr0": keys})
        run = TritonAggregation(system).run(relation, groups_nominal=5000)
        assert run.result.groups == 5000


@st.composite
def aggregation_inputs(draw):
    """Dense, uniform or Zipf keys (0-400 rows) with payloads past 2^53."""
    rows = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "uniform", "zipf"]))
    if kind == "dense":
        keys = rng.integers(1, max(rows // 4, 1) + 1, size=rows)
    elif kind == "uniform":
        keys = rng.integers(1, 2**62, size=rows)
    else:
        keys = rng.zipf(1.3, size=rows)
    values = rng.integers(2**53, 2**62, size=rows) * rng.choice([-1, 1], rows)
    return Relation(
        keys.astype(np.int64), {"attr0": values.astype(np.int64)}, name="F"
    )


class TestPartitionedMatchesReference:
    @given(
        aggregation_inputs(),
        st.sampled_from(list(AggregateFunction)),
        st.integers(1, 10),
        st.integers(1, 2**33),
    )
    @settings(max_examples=80, deadline=None)
    def test_result_equals_reference(
        self, system, relation, fn, bits1, groups
    ):
        """Every function, with payloads above 2^53 (int64 wrap-around
        sums) and pass-1 fanouts that leave partitions empty; an empty
        input runs nothing on either operator."""
        expected = reference_aggregate(relation, fn)
        for operator in (TritonAggregation, NoPartitioningAggregation):
            run = operator(system, fn).run(relation, groups_nominal=groups)
            assert run.result == expected
            if len(relation) == 0:
                assert expected == AggregationResult(groups=0, checksum=0)
                assert run.seconds == 0.0 and run.sim is None
        if len(relation):
            op = TritonAggregation(system, fn)
            assert op.functional(relation, plan=RadixPlan([bits1])) == expected


class TestCostBehaviour:
    def test_np_cliff_when_groups_outgrow_gpu(self, system):
        relation = make_relation(nominal=2_048_000_000)
        op = NoPartitioningAggregation(system)
        few_groups = op.run(relation, groups_nominal=10_000_000)
        many_groups = op.run(relation, groups_nominal=4_000_000_000)
        assert many_groups.seconds > 3 * few_groups.seconds

    def test_triton_insensitive_to_group_count(self, system):
        # The group count only adds result-emission volume; no cliff.
        relation = make_relation(nominal=2_048_000_000)
        op = TritonAggregation(system)
        few = op.run(relation, groups_nominal=10_000_000)
        many = op.run(relation, groups_nominal=2_000_000_000)
        assert many.seconds < 2.0 * few.seconds

    def test_triton_wins_out_of_core(self, system):
        # The headline claim transfers from joins to aggregation.
        relation = make_relation(nominal=2_048_000_000)
        groups = 4_000_000_000
        triton = TritonAggregation(system).run(relation, groups)
        baseline = NoPartitioningAggregation(system).run(relation, groups)
        assert triton.seconds < baseline.seconds

    def test_np_competitive_with_few_groups(self, system):
        # With an in-GPU table the baseline is close to (or better than)
        # the partitioned strategy — there is nothing to spill.
        relation = make_relation(nominal=512_000_000)
        groups = 1_000_000
        triton = TritonAggregation(system).run(relation, groups)
        baseline = NoPartitioningAggregation(system).run(relation, groups)
        assert baseline.seconds < 1.5 * triton.seconds

    def test_throughput_metric(self, system):
        relation = make_relation(nominal=512_000_000)
        run = TritonAggregation(system).run(relation, 100_000_000)
        assert run.throughput_g_tuples_per_s > 0

    def test_rejects_bad_group_count(self, system):
        with pytest.raises(ConfigurationError):
            TritonAggregation(system).run(make_relation(), 0)
