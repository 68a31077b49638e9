"""Property tests: the counting-scatter kernels vs. stable argsort.

``repro.kernels.scatter`` replaces every dense-selector comparison sort
in the functional layer; its contract is *byte-identity* with
``np.argsort(kind="stable")`` (and the offsets with histogram + scan).
These tests sweep random distributions — empty input, a single
partition, all-equal keys, keys at the domain edge, skew — through both
the scatter and the reference paths — the order form and the column
form (``columns=``), which must equal ``take`` with that order — and
cross-check the grouped joins and an end-to-end experiment table under
:func:`force_reference`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hashing.batch import grouped_bucket_chaining_join
from repro.kernels.scatter import (
    DENSE_FLOOR_ENTRIES,
    claim_first,
    counting_order,
    counting_order_and_offsets,
    dense_table_fits,
    exclusive_scan,
    force_reference,
    reference_mode_active,
)


@st.composite
def keys_in_domain(draw):
    """Random dense-selector arrays across the shapes the kernels see."""
    domain = draw(st.integers(min_value=1, max_value=5000))
    n = draw(st.integers(min_value=0, max_value=1500))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    style = draw(
        st.sampled_from(["uniform", "skewed", "all_equal", "edges", "few"])
    )
    rng = np.random.default_rng(seed)
    if style == "uniform":
        keys = rng.integers(0, domain, size=n)
    elif style == "skewed":
        keys = np.minimum(
            rng.geometric(0.05, size=n) - 1, domain - 1
        ).astype(np.int64)
    elif style == "all_equal":
        keys = np.full(n, draw(st.integers(0, domain - 1)), dtype=np.int64)
    elif style == "edges":
        keys = rng.choice([0, domain - 1], size=n)
    else:  # few distinct values
        pool = rng.integers(0, domain, size=max(1, min(4, domain)))
        keys = rng.choice(pool, size=n)
    return keys.astype(np.int64), domain


class TestCountingOrder:
    @given(keys_in_domain())
    @settings(max_examples=120, deadline=None)
    def test_matches_stable_argsort(self, case):
        keys, domain = case
        expected = np.argsort(keys, kind="stable")
        np.testing.assert_array_equal(counting_order(keys, domain), expected)
        np.testing.assert_array_equal(
            counting_order(keys, domain, reference=True), expected
        )

    @given(keys_in_domain())
    @settings(max_examples=120, deadline=None)
    def test_offsets_match_histogram_scan(self, case):
        keys, domain = case
        expected_off = exclusive_scan(np.bincount(keys, minlength=domain))
        for reference in (False, True):
            order, offsets = counting_order_and_offsets(
                keys, domain, reference=reference
            )
            np.testing.assert_array_equal(
                order, np.argsort(keys, kind="stable")
            )
            np.testing.assert_array_equal(offsets, expected_off)

    def test_empty_input(self):
        empty = np.empty(0, dtype=np.int64)
        assert len(counting_order(empty, 7)) == 0
        order, offsets = counting_order_and_offsets(empty, 7)
        assert len(order) == 0
        np.testing.assert_array_equal(offsets, np.zeros(8, dtype=np.int64))

    def test_single_partition(self):
        keys = np.zeros(64, dtype=np.int64)
        np.testing.assert_array_equal(counting_order(keys, 1), np.arange(64))
        _, offsets = counting_order_and_offsets(keys, 1)
        np.testing.assert_array_equal(offsets, [0, 64])

    def test_max_domain_keys(self):
        domain = 97
        keys = np.full(10, domain - 1, dtype=np.int64)
        np.testing.assert_array_equal(counting_order(keys, domain), np.arange(10))

    def test_out_of_domain_raises(self):
        with pytest.raises(ConfigurationError):
            counting_order(np.array([0, 5]), 5)
        with pytest.raises(ConfigurationError):
            counting_order(np.array([-1, 0]), 5)
        with pytest.raises(ConfigurationError):
            counting_order(np.array([0]), 0)
        with pytest.raises(ConfigurationError):
            counting_order(np.zeros((2, 2), dtype=np.int64), 4)

    def test_force_reference_toggles_and_restores(self):
        assert not reference_mode_active()
        with force_reference():
            assert reference_mode_active()
            keys = np.array([3, 1, 3, 0], dtype=np.int64)
            np.testing.assert_array_equal(
                counting_order(keys, 4), np.argsort(keys, kind="stable")
            )
        assert not reference_mode_active()


@st.composite
def keys_with_columns(draw):
    """Dense keys plus one or two random int64 columns aligned with them."""
    keys, domain = draw(keys_in_domain())
    count = draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    info = np.iinfo(np.int64)
    columns = [
        rng.integers(info.min, info.max, size=len(keys), dtype=np.int64)
        for _ in range(count)
    ]
    return keys, domain, columns


def assert_scattered(keys, domain, columns, scattered, offsets):
    """Scattered columns equal argsort + take; offsets equal the scan."""
    order = np.argsort(keys, kind="stable")
    assert len(scattered) == len(columns)
    for column, got in zip(columns, scattered):
        assert got.dtype == column.dtype
        np.testing.assert_array_equal(got, column[order])
    np.testing.assert_array_equal(
        offsets, exclusive_scan(np.bincount(keys, minlength=domain))
    )


class TestColumnScatter:
    """The ``columns=`` form: the scatter moves the columns themselves."""

    @given(keys_with_columns())
    @settings(max_examples=100, deadline=None)
    def test_counting_path(self, case):
        keys, domain, columns = case
        scattered, offsets = counting_order_and_offsets(
            keys, domain, columns=columns
        )
        assert_scattered(keys, domain, columns, scattered, offsets)

    @given(keys_with_columns())
    @settings(max_examples=60, deadline=None)
    def test_force_reference(self, case):
        keys, domain, columns = case
        with force_reference():
            scattered, offsets = counting_order_and_offsets(
                keys, domain, columns=columns
            )
        assert_scattered(keys, domain, columns, scattered, offsets)

    @given(keys_with_columns(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_into_out_buffers(self, case, reference):
        keys, domain, columns = case
        out = [np.full_like(column, -1) for column in columns]
        scattered, offsets = counting_order_and_offsets(
            keys, domain, reference=reference, columns=columns, out=out
        )
        assert all(got is dest for got, dest in zip(scattered, out))
        assert_scattered(keys, domain, columns, scattered, offsets)

    @given(keys_with_columns(), st.sampled_from(["int32", "float64", "third"]))
    @settings(max_examples=60, deadline=None)
    def test_gathered_columns(self, case, extra):
        # A non-int64 column, or a third one, cannot ride the scatter:
        # every column is then gathered with an order array.
        keys, domain, columns = case
        dtype = np.int64 if extra == "third" else np.dtype(extra)
        added = 3 - len(columns) if extra == "third" else 1
        columns = columns + [
            (np.arange(len(keys)) * (7 + i) - 3).astype(dtype)
            for i in range(added)
        ]
        for reference in (False, True):
            scattered, offsets = counting_order_and_offsets(
                keys, domain, reference=reference, columns=columns
            )
            assert_scattered(keys, domain, columns, scattered, offsets)

    def test_no_columns(self):
        keys = np.array([2, 0, 2, 1], dtype=np.int64)
        scattered, offsets = counting_order_and_offsets(keys, 3, columns=[])
        assert scattered == []
        np.testing.assert_array_equal(offsets, [0, 1, 2, 4])

    def test_rejects_misaligned_columns_and_buffers(self):
        keys = np.array([1, 0, 1], dtype=np.int64)
        column = np.arange(3, dtype=np.int64)
        with pytest.raises(ConfigurationError, match="align"):
            counting_order_and_offsets(keys, 2, columns=[column[:2]])
        with pytest.raises(ConfigurationError, match="one array per column"):
            counting_order_and_offsets(keys, 2, columns=[column], out=[])
        read_only = np.empty(3, np.int64)
        read_only.flags.writeable = False
        for bad in (
            np.empty(3, np.int32),
            np.empty(4, np.int64),
            np.empty(6, np.int64)[::2],
            read_only,
        ):
            with pytest.raises(ConfigurationError, match="length and dtype"):
                counting_order_and_offsets(
                    keys, 2, columns=[column], out=[bad]
                )
        with pytest.raises(ConfigurationError, match="requires columns"):
            counting_order_and_offsets(keys, 2, out=[column])


class TestClaimFirst:
    @given(keys_in_domain())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, case):
        slots, domain = case
        np.testing.assert_array_equal(
            claim_first(slots, domain),
            claim_first(slots, domain, reference=True),
        )

    @given(keys_in_domain())
    @settings(max_examples=60, deadline=None)
    def test_marks_exactly_first_occurrences(self, case):
        slots, domain = case
        mask = claim_first(slots, domain)
        seen = set()
        for i, slot in enumerate(slots):
            assert mask[i] == (int(slot) not in seen)
            seen.add(int(slot))

    def test_empty(self):
        assert len(claim_first(np.empty(0, dtype=np.int64), 3)) == 0


class TestDenseTableFits:
    def test_floor_always_fits(self):
        assert dense_table_fits(0, DENSE_FLOOR_ENTRIES - 1)

    def test_boundary_against_build_bytes(self):
        build_rows = DENSE_FLOOR_ENTRIES  # above the floor regime
        exact = 2 * build_rows - 1  # (domain + 1) * 8 == build_rows * 16
        assert dense_table_fits(build_rows, exact)
        assert not dense_table_fits(build_rows, exact + 1)


@st.composite
def grouped_case(draw):
    """Grouped build/probe arrays spanning skew, fanout, empty groups."""
    groups = draw(st.integers(min_value=1, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    key_space = draw(st.integers(min_value=1, max_value=200))
    skewed = draw(st.booleans())
    rng = np.random.default_rng(seed)

    def side(max_rows):
        weights = rng.random(groups) ** (3.0 if skewed else 1.0)
        weights[rng.random(groups) < 0.25] = 0.0
        if weights.sum() == 0:
            weights[0] = 1.0
        rows = int(rng.integers(1, max_rows))
        g = np.sort(rng.choice(groups, size=rows, p=weights / weights.sum()))
        keys = rng.integers(1, key_space + 1, size=rows)
        return g.astype(np.int64), keys.astype(np.int64)

    build_groups, build_keys = side(400)
    probe_groups, probe_keys = side(800)
    build_values = rng.integers(0, 2**40, size=len(build_keys)).astype(np.int64)
    return build_keys, build_values, build_groups, probe_keys, probe_groups


class TestGroupedJoinsByteIdentical:
    @given(grouped_case(), st.sampled_from([1, 4, 64, 2048, 1 << 14]))
    @settings(max_examples=60, deadline=None)
    def test_bucket_chaining_vs_reference_path(self, case, buckets):
        bk, bv, bg, pk, pg = case
        got = grouped_bucket_chaining_join(bk, bv, bg, pk, pg, buckets=buckets)
        ref = grouped_bucket_chaining_join(
            bk, bv, bg, pk, pg, buckets=buckets, reference=True
        )
        with force_reference():
            forced = grouped_bucket_chaining_join(
                bk, bv, bg, pk, pg, buckets=buckets
            )
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(got, forced):
            np.testing.assert_array_equal(a, b)


class TestExperimentByteIdentity:
    def test_fig13_table_identical_under_force_reference(self):
        from repro.bench.experiments import fig13_scaling

        subset = ["GPU Triton Join (Bucket Chaining)", "GPU NP Join (Perfect)"]
        fast = fig13_scaling.run(
            sizes=(128, 512), scale_divisor=65536.0, subset=subset
        )
        with force_reference():
            slow = fig13_scaling.run(
                sizes=(128, 512), scale_divisor=65536.0, subset=subset
            )
        assert [r.label for r in fast.rows] == [r.label for r in slow.rows]
        for fast_row, slow_row in zip(fast.rows, slow.rows):
            assert fast_row.values == slow_row.values
