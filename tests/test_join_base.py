"""Unit tests for join plumbing (repro.join.base, repro.join.caching)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generator import generate_workload
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.join import CachePolicy, plan_cache, reference_join
from repro.join.base import (
    JoinMatch,
    build_payload_column,
    nominal_matches,
    result_bytes,
    split_gpu_cpu,
)
from repro.join.caching import PIPELINE_RESERVED_BYTES
from repro.units import GIB, gib


class TestJoinMatch:
    def test_from_arrays(self):
        keys = np.array([1, 2, 3], dtype=np.int64)
        payloads = np.array([10, 20, 30], dtype=np.int64)
        match = JoinMatch.from_arrays(keys, payloads)
        assert match.matches == 3
        assert match.key_checksum == 6
        assert match.payload_checksum == 60

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 2**63 - 1]),
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
            ),
            max_size=64,
        ),
        st.lists(
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            max_size=64,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_checksums_equal_exact_sums_mod_2_62(self, keys, payloads):
        """The wrapping int64 sum reduces to the exact (Python int) sum
        modulo 2**62, negatives and int64 extremes included."""
        match = JoinMatch.from_arrays(
            np.array(keys, dtype=np.int64), np.array(payloads, dtype=np.int64)
        )
        assert match.matches == len(keys)
        assert match.key_checksum == sum(keys) % 2**62
        assert match.payload_checksum == sum(payloads) % 2**62

    def test_equality(self):
        a = JoinMatch(1, 2, 3)
        b = JoinMatch(1, 2, 3)
        assert a == b
        assert a != JoinMatch(1, 2, 4)

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        match = JoinMatch.from_arrays(empty, empty)
        assert match.matches == 0


class TestReferenceJoin:
    def test_pk_fk_matches_all_probes(self, small_workload):
        match = reference_join(small_workload.build, small_workload.probe)
        assert match.matches == len(small_workload.probe)

    def test_partial_matches(self):
        build = Relation(
            np.array([1, 2, 3], dtype=np.int64),
            {"attr0": np.array([10, 20, 30], dtype=np.int64)},
        )
        probe = Relation(np.array([2, 9, 3, 9], dtype=np.int64))
        match = reference_join(build, probe)
        assert match.matches == 2
        assert match.payload_checksum == 50

    def test_no_matches(self):
        build = Relation(np.array([1], dtype=np.int64))
        probe = Relation(np.array([5, 6], dtype=np.int64))
        assert reference_join(build, probe).matches == 0


class TestHelpers:
    def test_result_bytes(self):
        assert result_bytes(100) == 1600

    def test_nominal_matches_is_probe_side(self):
        workload = generate_workload(1, 2, scale_divisor=1)
        assert nominal_matches(workload) == 2_000_000

    def test_split_gpu_cpu(self):
        assert split_gpu_cpu(100, 0.25) == (25, 75)

    def test_split_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            split_gpu_cpu(1, 1.5)

    def test_payload_column_falls_back_to_keys(self):
        relation = Relation(np.array([5, 6], dtype=np.int64))
        assert np.array_equal(build_payload_column(relation), relation.keys)


class TestCachePlan:
    def test_default_takes_all_available(self):
        plan = plan_cache(gib(61), 16 * GIB)
        assert plan.cache_bytes == pytest.approx(
            16 * GIB - PIPELINE_RESERVED_BYTES
        )
        assert 0 < plan.gpu_fraction < 0.3

    def test_small_state_fully_cached(self):
        plan = plan_cache(gib(4), 16 * GIB)
        assert plan.gpu_fraction == 1.0
        assert plan.spilled_fraction == 0.0

    def test_explicit_cache_clamped(self):
        plan = plan_cache(gib(61), 16 * GIB, cache_bytes=gib(100))
        assert plan.cache_bytes <= 16 * GIB - PIPELINE_RESERVED_BYTES

    def test_none_policy_disables_cache(self):
        plan = plan_cache(gib(4), 16 * GIB, policy=CachePolicy.NONE)
        assert plan.cache_bytes == 0.0
        assert plan.gpu_fraction == 0.0

    def test_mapping_matches_fractions(self):
        plan = plan_cache(gib(6), 16 * GIB, cache_bytes=gib(2))
        mapping = plan.mapping()
        assert mapping.gpu_fraction == pytest.approx(plan.gpu_fraction, abs=0.01)

    def test_rejects_negative_cache(self):
        with pytest.raises(ConfigurationError):
            plan_cache(gib(1), 16 * GIB, cache_bytes=-1.0)
