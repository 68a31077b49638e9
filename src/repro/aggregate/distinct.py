"""Duplicate elimination (DISTINCT) on the aggregation machinery.

Section 2.2 lists duplicate elimination alongside group-by aggregation
as operators the radix-partitioning technique serves. DISTINCT *is* a
degenerate aggregation — group by the key, keep nothing — so both
operators here are the :mod:`repro.aggregate.group_by` operators with a
fixed COUNT accumulator, and reinterpret the result: the distinct count
is the group count. The cost side is the COUNT aggregation's unchanged,
emit included: each distinct value writes a full 16-byte entry (key
plus count), though DISTINCT needs only the 8-byte key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aggregate.group_by import (
    AggregateFunction,
    AggregationRun,
    NoPartitioningAggregation,
    TritonAggregation,
)
from repro.data.relation import Relation
from repro.join.base import CHECKSUM_MOD


@dataclass(frozen=True)
class DistinctResult:
    """Functional outcome: the distinct count plus a key checksum."""

    distinct: int
    key_checksum: int

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> "DistinctResult":
        """The summary of an array of distinct keys."""
        mod = np.int64(CHECKSUM_MOD)
        return cls(
            distinct=int(len(keys)), key_checksum=int((keys % mod).sum() % mod)
        )


def reference_distinct(relation: Relation) -> DistinctResult:
    """Ground truth via numpy."""
    return DistinctResult.from_keys(np.unique(relation.keys))


@dataclass(frozen=True)
class _DistinctMixin:
    """The COUNT accumulator, fixed, and the result adaptation shared by
    the two DISTINCT operators: the groups' keys are the distinct
    values."""

    function: AggregateFunction = field(
        default=AggregateFunction.COUNT, init=False
    )

    def result(self, group_keys: np.ndarray, states: np.ndarray) -> DistinctResult:
        return DistinctResult.from_keys(group_keys)

    def distinct(self, relation: Relation, distinct_nominal: int) -> tuple:
        """Run duplicate elimination; returns (DistinctResult, run)."""
        run: AggregationRun = self.run(relation, groups_nominal=distinct_nominal)
        return run.result, run


@dataclass(frozen=True)
class TritonDistinct(_DistinctMixin, TritonAggregation):
    """GPU-partitioned duplicate elimination."""

    name = "GPU Triton Distinct"


@dataclass(frozen=True)
class NoPartitioningDistinct(_DistinctMixin, NoPartitioningAggregation):
    """Global-table duplicate elimination."""

    name = "GPU No-Partitioning Distinct"
