"""Micro-benchmarks of the batched partition-wise join kernels.

Times the grouped bucket-chaining kernel and the full batched radix
join against the per-partition table loop they replaced, at the CPU
radix join's fanout regime (2^13 partitions, section 6.1's 12-14 bits)
where the loop's per-partition dispatch overhead dominates, and the
pass-1 column scatter against the counting order plus gathers it
replaced. The partitioned group-by's functional step (pass-1 scatter,
then one grouping) is timed beside the plain one-grouping reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregate import (
    AggregateFunction,
    TritonAggregation,
    reference_aggregate,
)
from repro.data.relation import Relation
from repro.hashing.batch import grouped_bucket_chaining_join
from repro.hashing.bucket_chaining import BucketChainingTable
from repro.hw import ac922
from repro.join.batched import batched_radix_join
from repro.hashing.functions import hash_u64, radix_window
from repro.kernels.scatter import counting_order, counting_order_and_offsets
from repro.partition.planner import RadixPlan

BUILD_ROWS = 1 << 19
PROBE_ROWS = 1 << 20
GROUPS = 1 << 13
SEED = 17


def _partitioned(keys: np.ndarray) -> tuple:
    """Partition-major (group, keys) layout, grouping by low key bits."""
    groups = keys % GROUPS
    order = np.argsort(groups, kind="stable")
    return groups[order], keys[order]


@pytest.fixture(scope="module")
def grouped_arrays():
    rng = np.random.default_rng(SEED)
    build_groups, build_keys = _partitioned(
        rng.permutation(BUILD_ROWS).astype(np.int64) + 1
    )
    build_values = rng.integers(0, 2**40, BUILD_ROWS).astype(np.int64)
    probe_groups, probe_keys = _partitioned(
        rng.integers(1, BUILD_ROWS + 1, PROBE_ROWS).astype(np.int64)
    )
    return build_keys, build_values, build_groups, probe_keys, probe_groups


@pytest.fixture(scope="module")
def relations():
    rng = np.random.default_rng(SEED)
    build = Relation(
        rng.permutation(BUILD_ROWS).astype(np.int64) + 1,
        {"attr0": rng.integers(0, 2**40, BUILD_ROWS).astype(np.int64)},
        name="R",
    )
    probe = Relation(
        rng.integers(1, BUILD_ROWS + 1, PROBE_ROWS).astype(np.int64),
        {"attr0": rng.integers(0, 2**40, PROBE_ROWS).astype(np.int64)},
        name="S",
    )
    return build, probe


def test_grouped_bucket_chaining_kernel(benchmark, grouped_arrays):
    bk, bv, bg, pk, pg = grouped_arrays
    idx, _ = benchmark(grouped_bucket_chaining_join, bk, bv, bg, pk, pg)
    assert len(idx) == PROBE_ROWS


def test_per_partition_table_loop(benchmark, grouped_arrays):
    """The replaced reference loop, for the speedup headline."""
    bk, bv, bg, pk, pg = grouped_arrays

    def loop():
        matches = 0
        build_bounds = np.searchsorted(bg, np.arange(GROUPS + 1))
        probe_bounds = np.searchsorted(pg, np.arange(GROUPS + 1))
        for g in range(GROUPS):
            b0, b1 = build_bounds[g], build_bounds[g + 1]
            p0, p1 = probe_bounds[g], probe_bounds[g + 1]
            if b0 == b1 or p0 == p1:
                continue
            table = BucketChainingTable(bk[b0:b1], bv[b0:b1])
            idx, _ = table.probe(pk[p0:p1])
            matches += len(idx)
        return matches

    matches = benchmark.pedantic(loop, iterations=1, rounds=3)
    assert matches == PROBE_ROWS


def test_batched_radix_join_two_pass(benchmark, relations):
    """The operators' functional join: one partition pass, serial morsels."""
    build, probe = relations
    match = benchmark(batched_radix_join, build, probe, 10, 4)
    assert match.matches == PROBE_ROWS


#: Slot space of a bits1=10 grouped join (1024 partitions x 2048
#: buckets) — within the counting kernel's profitable regime for the
#: 2^19-row build (domain <= 16n).
SLOT_DOMAIN = 1 << 21


def _join_shaped_slots(bk: np.ndarray, bg: np.ndarray) -> np.ndarray:
    """Slots as the grouped build sees them: monotonic group ids
    (partition-major layout), hash-random bucket within each group."""
    return (bg >> np.int64(3)) * np.int64(2048) + (bk & np.int64(2047))


def test_counting_order_scatter(benchmark, grouped_arrays):
    """The linear-time ordering kernel at the join's slot-space shape."""
    bk, _, bg, _, _ = grouped_arrays
    slots = _join_shaped_slots(bk, bg)
    order = benchmark(counting_order, slots, SLOT_DOMAIN)
    assert len(order) == BUILD_ROWS


def test_counting_order_argsort_reference(benchmark, grouped_arrays):
    """The replaced comparison sort, for the speedup headline."""
    bk, _, bg, _, _ = grouped_arrays
    slots = _join_shaped_slots(bk, bg)
    order = benchmark(counting_order, slots, SLOT_DOMAIN, reference=True)
    assert len(order) == BUILD_ROWS


#: The pass-1 radix window of the 0.5 M-row big-join shape.
PASS1_BITS = 10


@pytest.fixture(scope="module")
def pass1_selector(grouped_arrays):
    return radix_window(hash_u64(grouped_arrays[0]), PASS1_BITS)


def test_column_scatter(benchmark, grouped_arrays, pass1_selector):
    """Build keys and values moved partition-major by one scatter."""
    bk, bv = grouped_arrays[:2]

    def scatter():
        return counting_order_and_offsets(
            pass1_selector, 1 << PASS1_BITS, columns=(bk, bv)
        )[0]

    keys, values = benchmark(scatter)
    assert len(keys) == len(values) == BUILD_ROWS


def test_column_order_then_take(benchmark, grouped_arrays, pass1_selector):
    """The replaced pair: a counting order, then one gather per column."""
    bk, bv = grouped_arrays[:2]

    def order_then_take():
        order, _ = counting_order_and_offsets(
            pass1_selector, 1 << PASS1_BITS
        )
        return bk[order], bv[order]

    keys, values = benchmark(order_then_take)
    assert len(keys) == len(values) == BUILD_ROWS


#: The count-by-key service template's group-by input: 4,096 surviving
#: probe rows grouped at the planner's minimum pass-1 window (6 bits).
GROUP_BY_ROWS = 4096
GROUP_BY_BITS1 = 6


@pytest.fixture(scope="module")
def group_by_input():
    rng = np.random.default_rng(SEED)
    keys = rng.integers(1, GROUP_BY_ROWS + 1, GROUP_BY_ROWS).astype(np.int64)
    return Relation(keys, {"attr0": keys}, name="F")


def test_partitioned_group_by(benchmark, group_by_input):
    """TritonAggregation's functional step: pass-1 scatter, one grouping."""
    op = TritonAggregation(ac922(), AggregateFunction.COUNT)
    plan = RadixPlan([GROUP_BY_BITS1])
    result = benchmark(op.functional, group_by_input, plan=plan)
    assert result == reference_aggregate(
        group_by_input, AggregateFunction.COUNT
    )


def test_reference_group_by(benchmark, group_by_input):
    """One grouping over the unpartitioned rows, for comparison."""
    result = benchmark(
        reference_aggregate, group_by_input, AggregateFunction.COUNT
    )
    assert result.groups > 0
