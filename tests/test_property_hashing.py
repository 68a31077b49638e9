"""Property-based tests: hashing invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (
    BucketChainingTable,
    LinearProbingTable,
    fibonacci_hash,
    multiply_shift,
)

keys_arrays = st.lists(
    st.integers(min_value=-(2**62), max_value=2**62), min_size=1, max_size=300
).map(lambda xs: np.array(xs, dtype=np.int64))

unique_keys_arrays = st.lists(
    st.integers(min_value=-(2**62), max_value=2**62),
    min_size=1,
    max_size=300,
    unique=True,
).map(lambda xs: np.array(xs, dtype=np.int64))


@given(keys_arrays, st.integers(min_value=1, max_value=63))
def test_hash_range_bounded_by_bits(keys, bits):
    for fn in (multiply_shift, fibonacci_hash):
        hashed = fn(keys, bits=bits)
        assert hashed.min() >= 0
        assert hashed.max() < (1 << bits)


@given(keys_arrays)
def test_hashes_deterministic_and_nonnegative(keys):
    for fn in (multiply_shift, fibonacci_hash):
        first = fn(keys)
        second = fn(keys)
        assert np.array_equal(first, second)
        assert (first >= 0).all()


@given(unique_keys_arrays)
@settings(max_examples=50, deadline=None)
def test_linear_probing_total_recall(keys):
    values = np.arange(len(keys), dtype=np.int64)
    table = LinearProbingTable(keys, values)
    idx, matched = table.probe(keys)
    # Every build key is found exactly once with its own value.
    assert len(idx) == len(keys)
    assert np.array_equal(matched[np.argsort(idx)], values)


@given(unique_keys_arrays, keys_arrays)
@settings(max_examples=50, deadline=None)
def test_schemes_agree_on_arbitrary_probes(build_keys, probe_keys):
    values = build_keys * np.int64(3)
    lp = LinearProbingTable(build_keys, values)
    bc = BucketChainingTable(build_keys, values)
    lp_result = sorted(zip(*(a.tolist() for a in lp.probe(probe_keys))))
    bc_result = sorted(zip(*(a.tolist() for a in bc.probe(probe_keys))))
    assert lp_result == bc_result


@given(unique_keys_arrays)
@settings(max_examples=50, deadline=None)
def test_probing_misses_only_absent_keys(build_keys):
    values = np.ones(len(build_keys), dtype=np.int64)
    table = LinearProbingTable(build_keys, values)
    absent = np.setdiff1d(
        np.arange(-50, 50, dtype=np.int64), build_keys
    )
    idx, _ = table.probe(absent)
    assert len(idx) == 0


@given(unique_keys_arrays)
@settings(max_examples=50, deadline=None)
def test_bucket_chaining_chains_conserve_rows(build_keys):
    table = BucketChainingTable(build_keys, build_keys)
    assert table.chain_lengths().sum() == len(build_keys)
