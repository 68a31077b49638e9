"""Unit tests for functional radix partitioning (repro.partition.radix)."""

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.hashing.functions import radix_bits_of
from repro.partition.radix import (
    count_flushes,
    partition_relation,
    radix_histogram,
)


@pytest.fixture
def relation():
    rng = np.random.default_rng(9)
    keys = rng.permutation(20_000).astype(np.int64) + 1
    return Relation(keys, {"attr0": keys * 7})


class TestHistogram:
    def test_counts_sum_to_rows(self, relation):
        counts = radix_histogram(relation.keys, bits=5)
        assert counts.sum() == len(relation)
        assert len(counts) == 32

    def test_matches_selector_bincount(self, relation):
        counts = radix_histogram(relation.keys, bits=7)
        selector = radix_bits_of(relation.keys, 7)
        assert np.array_equal(counts, np.bincount(selector, minlength=128))

    def test_offset_changes_distribution(self, relation):
        low = radix_histogram(relation.keys, bits=4, offset=0)
        high = radix_histogram(relation.keys, bits=4, offset=4)
        assert not np.array_equal(low, high)


class TestPartitionRelation:
    def test_partitions_are_disjoint_and_complete(self, relation):
        parts = partition_relation(relation, bits=4)
        assert parts.offsets[0] == 0
        assert parts.offsets[-1] == len(relation)
        assert np.array_equal(
            np.sort(parts.relation.keys), np.sort(relation.keys)
        )

    def test_each_partition_has_uniform_selector(self, relation):
        parts = partition_relation(relation, bits=4)
        for index in range(parts.fanout):
            part = parts.partition(index)
            if len(part) == 0:
                continue
            selectors = radix_bits_of(part.keys, 4)
            assert (selectors == index).all()

    def test_payloads_travel_with_keys(self, relation):
        parts = partition_relation(relation, bits=4)
        assert np.array_equal(
            parts.relation.payloads["attr0"], parts.relation.keys * 7
        )

    def test_stable_within_partition(self, relation):
        # A stable partition preserves input order inside each partition.
        parts = partition_relation(relation, bits=2)
        selector = radix_bits_of(relation.keys, 2)
        for index in range(4):
            expected = relation.keys[selector == index]
            rows = parts.partition_rows(index)
            assert np.array_equal(parts.relation.keys[rows], expected)

    def test_second_pass_refines_first(self, relation):
        first = partition_relation(relation, bits=3)
        part0 = first.partition(0)
        second = partition_relation(part0, bits=3, offset=3)
        # Refined partitions still agree on the first-level selector.
        assert (radix_bits_of(second.relation.keys, 3) == 0).all()

    def test_sizes_and_max(self, relation):
        parts = partition_relation(relation, bits=5)
        sizes = parts.sizes()
        assert sizes.sum() == len(relation)

    def test_partition_index_bounds(self, relation):
        parts = partition_relation(relation, bits=2)
        with pytest.raises(ConfigurationError):
            parts.partition(4)

    def test_rejects_nonpositive_bits(self, relation):
        with pytest.raises(ConfigurationError):
            partition_relation(relation, bits=0)


class TestCountFlushes:
    def test_exact_multiples(self):
        assert count_flushes(np.array([8, 16]), 8) == 3

    def test_partial_flush_counted(self):
        assert count_flushes(np.array([9]), 8) == 2

    def test_empty_partitions_free(self):
        assert count_flushes(np.array([0, 0, 5]), 8) == 1

    def test_matches_functional_partitioning(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(1, 1_000_000, size=50_000).astype(np.int64)
        counts = radix_histogram(keys, bits=6)
        flushes = count_flushes(counts, 32)
        # At least one flush per non-empty partition; no more than
        # tuples/buffer + one partial per partition.
        nonempty = (counts > 0).sum()
        assert flushes >= nonempty
        assert flushes <= counts.sum() // 32 + nonempty

    def test_rejects_bad_buffer(self):
        with pytest.raises(ConfigurationError):
            count_flushes(np.array([1]), 0)
