"""Unit tests for the workload generator (repro.data.generator)."""

import threading

import numpy as np
import pytest

from repro.data import generator
from repro.data.generator import (
    WorkloadConfig,
    generate_pk_fk,
    generate_workload,
)
from repro.data.relation import DeferredColumns
from repro.errors import ConfigurationError


class TestPaperWorkload:
    """Section 6.1's workload properties."""

    def test_build_keys_are_a_dense_permutation(self):
        build, _ = generate_pk_fk(WorkloadConfig(0.1, 0.1))
        assert sorted(build.keys) == list(range(1, len(build) + 1))

    def test_build_keys_are_shuffled(self):
        build, _ = generate_pk_fk(WorkloadConfig(0.1, 0.1))
        assert list(build.keys) != sorted(build.keys)

    def test_probe_keys_reference_build(self):
        build, probe = generate_pk_fk(WorkloadConfig(0.05, 0.1))
        assert probe.keys.min() >= 1
        assert probe.keys.max() <= len(build)

    def test_probe_keys_roughly_uniform(self):
        build, probe = generate_pk_fk(WorkloadConfig(0.01, 0.5))
        counts = np.bincount(probe.keys, minlength=len(build) + 1)[1:]
        # Every build key should be referenced ~50 times on average.
        assert counts.mean() == pytest.approx(50.0, rel=0.05)
        assert counts.max() < 120

    def test_16_byte_tuples_by_default(self):
        build, probe = generate_pk_fk(WorkloadConfig(0.01, 0.01))
        assert build.tuple_bytes == 16
        assert probe.tuple_bytes == 16

    def test_deterministic_for_seed(self):
        a, _ = generate_pk_fk(WorkloadConfig(0.01, 0.01, seed=5))
        b, _ = generate_pk_fk(WorkloadConfig(0.01, 0.01, seed=5))
        assert np.array_equal(a.keys, b.keys)

    def test_different_seeds_differ(self):
        a, _ = generate_pk_fk(WorkloadConfig(0.01, 0.01, seed=1))
        b, _ = generate_pk_fk(WorkloadConfig(0.01, 0.01, seed=2))
        assert not np.array_equal(a.keys, b.keys)


class TestScaling:
    def test_nominal_vs_materialized(self):
        workload = generate_workload(128, 128, scale_divisor=1024)
        assert workload.build.nominal_rows == 128_000_000
        assert len(workload.build) == 125_000

    def test_divisor_one_is_full_scale(self):
        workload = generate_workload(0.05, 0.05, scale_divisor=1)
        assert len(workload.build) == workload.build.nominal_rows

    def test_materialized_floor(self):
        # Even extreme divisors keep enough rows to exercise partitioning.
        workload = generate_workload(128, 128, scale_divisor=1e9)
        assert len(workload.build) >= 4096

    def test_total_tuple_accounting(self):
        workload = generate_workload(128, 256, scale_divisor=1024)
        assert workload.total_nominal_tuples == 384_000_000
        assert workload.total_nominal_bytes == 384_000_000 * 16


class TestWideTuples:
    def test_payload_columns(self):
        workload = generate_workload(0.01, 0.01, payload_columns=4)
        assert workload.build.tuple_bytes == 8 + 4 * 8
        assert workload.build.payload_columns == 4

    def test_zero_payloads_join_index_mode(self):
        workload = generate_workload(0.01, 0.01, payload_columns=0)
        assert workload.build.tuple_bytes == 8


class TestZipf:
    def test_zipf_skews_references(self):
        uniform = generate_workload(0.01, 0.2, zipf_theta=0.0, seed=3)
        skewed = generate_workload(0.01, 0.2, zipf_theta=1.0, seed=3)
        u_max = np.bincount(uniform.probe.keys).max()
        s_max = np.bincount(skewed.probe.keys).max()
        assert s_max > 3 * u_max

    def test_zipf_keys_stay_in_range(self):
        workload = generate_workload(0.01, 0.05, zipf_theta=0.8)
        assert workload.probe.keys.min() >= 1
        assert workload.probe.keys.max() <= len(workload.build)


class TestValidation:
    def test_rejects_nonpositive_cardinality(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(0, 1)

    def test_rejects_divisor_below_one(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(1, 1, scale_divisor=0.5)

    def test_rejects_negative_payloads(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(1, 1, payload_columns=-1)

    def test_probe_defaults_to_build_size(self):
        workload = generate_workload(0.02)
        assert workload.probe.nominal_rows == workload.build.nominal_rows


def eager_reference(config):
    """Every column of ``(R, S)`` drawn eagerly, in the generator's
    order: R's keys, S's keys (and misses), R's payloads, S's payloads."""
    rng = np.random.default_rng(config.seed)
    build_rows = config.materialized_rows(config.build_rows_nominal)
    probe_rows = config.materialized_rows(config.probe_rows_nominal)
    build_keys = rng.permutation(build_rows) + 1
    if config.zipf_theta > 0:
        probe_keys = generator._zipf_keys(
            rng, probe_rows, build_rows, config.zipf_theta
        )
    else:
        probe_keys = rng.integers(
            1, build_rows + 1, size=probe_rows, dtype=np.int64
        )
    if config.probe_hit_rate < 1.0:
        misses = rng.random(probe_rows) >= config.probe_hit_rate
        probe_keys[misses] = rng.integers(
            build_rows + 1, 2 * build_rows + 2, size=int(misses.sum()),
            dtype=np.int64,
        )

    def payloads(rows):
        return {
            f"attr{i}": rng.integers(0, 2**62, size=rows, dtype=np.int64)
            for i in range(config.payload_columns)
        }

    return (build_keys, payloads(build_rows)), (probe_keys, payloads(probe_rows))


DEFERRED_CASES = [
    WorkloadConfig(0.02, 0.05, payload_columns=0, seed=1),
    WorkloadConfig(0.02, 0.05, payload_columns=1, seed=2),
    WorkloadConfig(0.02, 0.05, payload_columns=3, seed=3),
    WorkloadConfig(0.02, 0.05, zipf_theta=0.9, seed=4),
    WorkloadConfig(0.02, 0.05, probe_hit_rate=0.3, payload_columns=2, seed=5),
]


def refuse(*args, **kwargs):
    raise AssertionError("payload columns drawn")


class TestDeferredProbePayloads:
    """S's payload columns are drawn on first access, byte-identical to
    an eager draw; R's are drawn at once."""

    @pytest.mark.parametrize("config", DEFERRED_CASES)
    def test_deferred_columns_equal_an_eager_draw(self, config):
        build, probe = generate_pk_fk(config)
        (build_keys, build_payloads), (probe_keys, probe_payloads) = (
            eager_reference(config)
        )
        np.testing.assert_array_equal(build.keys, build_keys)
        np.testing.assert_array_equal(probe.keys, probe_keys)
        for relation, expected in (
            (build, build_payloads),
            (probe, probe_payloads),
        ):
            assert list(relation.payloads) == list(expected)
            for column, values in expected.items():
                assert relation.payloads[column].dtype == np.int64
                np.testing.assert_array_equal(
                    relation.payloads[column], values
                )

    @pytest.mark.parametrize("config", DEFERRED_CASES)
    def test_sizes_read_without_drawing(self, config, monkeypatch):
        build, probe = generate_pk_fk(config)
        monkeypatch.setattr(DeferredColumns, "values", refuse)
        width = 8 + 8 * config.payload_columns
        assert probe.payload_columns == config.payload_columns
        assert probe.tuple_bytes == width
        assert probe.materialized_bytes == len(probe) * width
        assert probe.nominal_bytes == probe.nominal_rows * width
        assert probe.column_names() == build.column_names()
        rescaled = probe.with_nominal_rows(2 * probe.nominal_rows)
        assert rescaled.materialized_bytes == probe.materialized_bytes
        monkeypatch.undo()
        reads, values = [], DeferredColumns.values
        monkeypatch.setattr(
            DeferredColumns,
            "values",
            lambda columns: reads.append(columns) or values(columns),
        )
        # Each relation reads its payloads once, from the one shared
        # draw: the rescaled copy holds the very same arrays.
        probe_columns, rescaled_columns = probe.payloads, rescaled.payloads
        assert len(reads) == 2 and reads[0] is reads[1]
        assert all(
            rescaled_columns[column] is probe_columns[column]
            for column in probe_columns
        )

    def test_take_draws(self):
        config = DEFERRED_CASES[2]
        _, probe = generate_pk_fk(config)
        _, (_, expected) = eager_reference(config)
        rows = np.arange(0, len(probe), 7)
        taken = probe.take(rows)
        for column, values in expected.items():
            np.testing.assert_array_equal(taken.payloads[column], values[rows])

    def test_racing_first_draws_both_see_full_columns(self, monkeypatch):
        """Two threads enter the first draw together (a barrier holds
        each at every column until both are there); each must come out
        with every column, whole and equal to the eager draw."""
        config = DEFERRED_CASES[2]
        _, probe = generate_pk_fk(config)
        _, (_, expected) = eager_reference(config)
        barrier = threading.Barrier(2, timeout=30)
        record_ids = generator._record_ids

        def meeting(rng, rows):
            barrier.wait()
            return record_ids(rng, rows)

        monkeypatch.setattr(generator, "_record_ids", meeting)
        seen = [None, None]

        def first_access(index):
            seen[index] = dict(probe.payloads)

        threads = [
            threading.Thread(target=first_access, args=(index,))
            for index in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        for payloads in seen:
            assert list(payloads) == list(expected)
            for column, values in expected.items():
                np.testing.assert_array_equal(payloads[column], values)


class TestRecordIds:
    @pytest.mark.parametrize("rows", [0, 1, 7, 4096, 500_000])
    @pytest.mark.parametrize("seed", range(5))
    def test_equal_to_numpys_bounded_draw(self, seed, rows):
        """The raw-word shortcut gives ``rng.integers``'s values and
        leaves the stream where ``rng.integers`` leaves it."""
        ours = np.random.default_rng(seed)
        numpys = np.random.default_rng(seed)
        got = generator._record_ids(ours, rows)
        want = numpys.integers(0, 2**62, size=rows, dtype=np.int64)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert ours.bit_generator.state == numpys.bit_generator.state
        np.testing.assert_array_equal(ours.random(3), numpys.random(3))
