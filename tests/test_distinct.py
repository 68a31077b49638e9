"""Unit tests for duplicate elimination (repro.aggregate.distinct)."""

import numpy as np
import pytest

from repro.aggregate import (
    AggregateFunction,
    NoPartitioningAggregation,
    NoPartitioningDistinct,
    TritonAggregation,
    TritonDistinct,
    reference_distinct,
)
from repro.data.relation import Relation


def make_relation(rows=30_000, distinct=700, seed=5, nominal=None):
    rng = np.random.default_rng(seed)
    keys = rng.integers(1, distinct + 1, size=rows).astype(np.int64)
    return Relation(keys, {"attr0": keys}, nominal_rows=nominal)


class TestReferenceDistinct:
    def test_counts_unique_keys(self):
        relation = Relation(np.array([3, 1, 3, 2, 1], dtype=np.int64))
        result = reference_distinct(relation)
        assert result.distinct == 3
        assert result.key_checksum == 6

    def test_all_unique(self):
        relation = Relation(np.arange(1, 101, dtype=np.int64))
        assert reference_distinct(relation).distinct == 100


class TestOperators:
    def test_triton_matches_reference(self, system):
        relation = make_relation()
        expected = reference_distinct(relation)
        result, run = TritonDistinct(system).distinct(relation, 700)
        assert result == expected
        assert run.seconds > 0

    def test_np_matches_reference(self, system):
        relation = make_relation(seed=8)
        expected = reference_distinct(relation)
        result, _ = NoPartitioningDistinct(system).distinct(relation, 700)
        assert result == expected

    def test_operators_agree(self, system):
        relation = make_relation(seed=12)
        a, _ = TritonDistinct(system).distinct(relation, 700)
        b, _ = NoPartitioningDistinct(system).distinct(relation, 700)
        assert a == b

    def test_partitioned_wins_with_many_distinct_values(self, system):
        # Same crossover as aggregation: huge distinct counts blow the
        # global table out of GPU memory.
        relation = make_relation(nominal=2_048_000_000)
        distinct_nominal = 4_000_000_000
        _, triton = TritonDistinct(system).distinct(relation, distinct_nominal)
        _, baseline = NoPartitioningDistinct(system).distinct(
            relation, distinct_nominal
        )
        assert triton.seconds < baseline.seconds

    def test_groups_the_keys_once(self, system, monkeypatch):
        """The result comes from the operator's own grouping: one
        ``np.unique`` per call, none from the reference."""
        calls = []
        unique = np.unique

        def counting_unique(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        result, _ = TritonDistinct(system).distinct(make_relation(), 700)
        assert len(calls) == 1
        monkeypatch.undo()
        assert result == reference_distinct(make_relation())

    def test_single_value_relation(self, system):
        relation = Relation(np.full(1000, 7, dtype=np.int64))
        result, _ = TritonDistinct(system).distinct(relation, 1)
        assert result.distinct == 1
        assert result.key_checksum == 7

    @pytest.mark.parametrize(
        "distinct, aggregation",
        [
            (TritonDistinct, TritonAggregation),
            (NoPartitioningDistinct, NoPartitioningAggregation),
        ],
    )
    def test_costs_the_count_aggregation(self, system, distinct, aggregation):
        # DISTINCT is the COUNT aggregation, emit volume included.
        relation = make_relation(nominal=512_000_000)
        _, run = distinct(system).distinct(relation, 100_000_000)
        count = aggregation(system, AggregateFunction.COUNT).run(
            relation, 100_000_000
        )
        assert run.seconds == count.seconds
        assert run.name != count.name
