"""Unit tests for hash functions and tables (repro.hashing)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hashing import (
    BucketChainingTable,
    HashScheme,
    LinearProbingTable,
    PerfectTable,
    fibonacci_hash,
    multiply_shift,
)
from repro.hashing.functions import radix_bits_of
from repro.hashing.hash_table import (
    bucket_chaining_profile,
    linear_probing_profile,
    perfect_profile,
    profile_for,
)


KEYS = np.arange(1, 10_001, dtype=np.int64)
VALUES = KEYS * 3


class TestHashFunctions:
    @pytest.mark.parametrize("fn", [multiply_shift, fibonacci_hash])
    def test_deterministic(self, fn):
        assert np.array_equal(fn(KEYS), fn(KEYS))

    @pytest.mark.parametrize("fn", [multiply_shift, fibonacci_hash])
    def test_nonnegative(self, fn):
        assert (fn(KEYS) >= 0).all()

    @pytest.mark.parametrize("fn", [multiply_shift, fibonacci_hash])
    def test_bits_bound_range(self, fn):
        hashed = fn(KEYS, bits=8)
        assert hashed.min() >= 0
        assert hashed.max() < 256

    def test_multiply_shift_balances_buckets(self):
        hashed = multiply_shift(KEYS, bits=6)
        counts = np.bincount(hashed, minlength=64)
        assert counts.min() > 0.4 * counts.mean()
        assert counts.max() < 2.0 * counts.mean()

    def test_bits_out_of_range(self):
        with pytest.raises(ConfigurationError):
            multiply_shift(KEYS, bits=0)
        with pytest.raises(ConfigurationError):
            multiply_shift(KEYS, bits=64)

    def test_radix_window_offset(self):
        low = radix_bits_of(KEYS, 4, offset=0)
        high = radix_bits_of(KEYS, 4, offset=4)
        assert not np.array_equal(low, high)
        assert high.max() < 16

    def test_radix_window_bounds(self):
        with pytest.raises(ConfigurationError):
            radix_bits_of(KEYS, 32, offset=40)


class TestLinearProbing:
    def test_finds_all_keys(self):
        table = LinearProbingTable(KEYS, VALUES)
        idx, values = table.probe(KEYS)
        assert len(idx) == len(KEYS)
        assert np.array_equal(np.sort(values), np.sort(VALUES))

    def test_misses_return_nothing(self):
        table = LinearProbingTable(KEYS, VALUES)
        idx, _ = table.probe(np.array([100_000, 200_000], dtype=np.int64))
        assert len(idx) == 0

    def test_mixed_hits_and_misses(self):
        table = LinearProbingTable(KEYS, VALUES)
        probes = np.array([1, 999_999, 2], dtype=np.int64)
        idx, values = table.probe(probes)
        assert sorted(idx.tolist()) == [0, 2]
        assert sorted(values.tolist()) == [3, 6]

    def test_table_is_power_of_two_at_50_percent_load(self):
        table = LinearProbingTable(KEYS, VALUES, load_factor=0.5)
        assert table.table_bytes == 32768 * 16

    def test_rejects_empty_build(self):
        with pytest.raises(ConfigurationError):
            LinearProbingTable(np.array([], dtype=np.int64), np.array([]))

    def test_rejects_bad_load_factor(self):
        with pytest.raises(ConfigurationError):
            LinearProbingTable(KEYS, VALUES, load_factor=1.0)


class TestBucketChaining:
    def test_finds_all_keys(self):
        table = BucketChainingTable(KEYS, VALUES)
        idx, values = table.probe(KEYS)
        assert len(idx) == len(KEYS)
        assert np.array_equal(np.sort(values), np.sort(VALUES))

    def test_handles_duplicate_build_keys(self):
        keys = np.array([7, 7, 8], dtype=np.int64)
        values = np.array([70, 71, 80], dtype=np.int64)
        table = BucketChainingTable(keys, values)
        idx, matched = table.probe(np.array([7], dtype=np.int64))
        assert sorted(matched.tolist()) == [70, 71]
        assert list(idx) == [0, 0]

    def test_default_bucket_count_is_the_papers(self):
        table = BucketChainingTable(KEYS, VALUES)
        assert len(table.chain_lengths()) == 2048

    def test_chain_lengths_sum_to_rows(self):
        table = BucketChainingTable(KEYS, VALUES)
        assert table.chain_lengths().sum() == len(KEYS)

    def test_rejects_non_power_of_two_buckets(self):
        with pytest.raises(ConfigurationError):
            BucketChainingTable(KEYS, VALUES, buckets=1000)

    def test_empty_probe(self):
        table = BucketChainingTable(KEYS, VALUES)
        idx, values = table.probe(np.array([], dtype=np.int64))
        assert len(idx) == 0 and len(values) == 0


class TestPerfect:
    def test_finds_all_keys(self):
        table = PerfectTable(KEYS, VALUES)
        idx, values = table.probe(KEYS)
        assert np.array_equal(values, VALUES)

    def test_out_of_range_probes_miss(self):
        table = PerfectTable(KEYS, VALUES)
        idx, _ = table.probe(np.array([0, -5, 99_999], dtype=np.int64))
        assert len(idx) == 0

    def test_table_bytes_is_range_times_entry(self):
        table = PerfectTable(KEYS, VALUES)
        assert table.table_bytes == len(KEYS) * 16

    def test_rejects_sparse_keys(self):
        with pytest.raises(ConfigurationError):
            PerfectTable(np.array([1, 5], dtype=np.int64),
                         np.array([1, 2], dtype=np.int64), key_range=3)

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            PerfectTable(np.array([1, 1], dtype=np.int64),
                         np.array([1, 2], dtype=np.int64))


class TestProfiles:
    def test_linear_probing_table_size(self):
        # Paper: 2048M tuples -> 64 GiB table at 50% load (vs 30.5 GiB
        # for perfect hashing).
        profile = linear_probing_profile(2_048_000_000)
        assert profile.table_bytes == (1 << 32) * 16  # 64 GiB

    def test_perfect_table_size(self):
        profile = perfect_profile(2_048_000_000)
        assert profile.table_bytes == 2_048_000_000 * 16  # 30.5 GiB

    def test_linear_probing_costs_exceed_perfect(self):
        lp = linear_probing_profile(1_000_000)
        pf = perfect_profile(1_000_000)
        assert lp.build_accesses_per_tuple > pf.build_accesses_per_tuple
        assert lp.probe_accesses_per_tuple > pf.probe_accesses_per_tuple

    def test_bucket_chain_probe_grows_with_rows(self):
        small = bucket_chaining_profile(2048)
        large = bucket_chaining_profile(1 << 20)
        assert large.probe_accesses_per_tuple > small.probe_accesses_per_tuple

    def test_profile_dispatch(self):
        for scheme in HashScheme:
            profile = profile_for(scheme, 100_000)
            assert profile.table_bytes > 0


class TestSchemeEquivalence:
    """All schemes must produce identical join results."""

    def test_same_matches_on_random_probes(self):
        rng = np.random.default_rng(0)
        probes = rng.integers(-100, 20_000, size=5000).astype(np.int64)
        results = []
        for cls in (LinearProbingTable, BucketChainingTable, PerfectTable):
            table = cls(KEYS, VALUES)
            idx, values = table.probe(probes)
            results.append(sorted(zip(idx.tolist(), values.tolist())))
        assert results[0] == results[1] == results[2]
