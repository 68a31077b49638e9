"""The run cache's match memo: one functional join per distinct input.

While the run cache is on, :func:`~repro.join.batched.batched_radix_join`
serves a join of the very arrays it has already joined (same ``bits1``)
from :func:`repro.join.run_cache.memoized_match`. The key is the
arrays' identity, checked through weak references, so equal contents
in other arrays miss and a dead array's entry never hits.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro import telemetry
from repro.data.generator import generate_workload
from repro.data.relation import Relation
from repro.exec import context as exec_context
from repro.exec import morsel
from repro.exec.context import ExecutionConfig
from repro.hw.specs import ac922
from repro.join import TritonJoin, run_cache
from repro.join.base import build_payload_column
from repro.join.batched import batched_radix_join
from repro.kernels.scatter import force_reference

BITS1 = 6


def tally():
    return (
        telemetry.registry.counter("run_cache.match_hits"),
        telemetry.registry.counter("run_cache.match_misses"),
    )


@pytest.fixture
def cache():
    run_cache.enable()
    run_cache.clear()
    try:
        yield
    finally:
        run_cache.disable()
        run_cache.clear()


@pytest.fixture(scope="module")
def workload():
    return generate_workload(0.05, 0.1, scale_divisor=1, seed=7)


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    original = morsel.grouped_bucket_chaining_join

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(morsel, "grouped_bucket_chaining_join", counting)
    return calls


def copied(relation: Relation) -> Relation:
    """Equal contents in new arrays."""
    return Relation(
        relation.keys.copy(),
        {name: values.copy() for name, values in relation.payloads.items()},
        nominal_rows=relation.nominal_rows,
        name=relation.name,
    )


def cold_join(build, probe, bits1=BITS1):
    histogram = np.empty(1 << bits1, dtype=np.int64)
    with run_cache.suspended():
        match = batched_radix_join(build, probe, bits1, histogram=histogram)
    return match, histogram


class TestOperatorsShareOneJoin:
    def test_simulated_fields_differ_the_join_runs_once(
        self, cache, kernel_calls
    ):
        workload = generate_workload(64, 64, scale_divisor=65536, seed=3)
        small, large = (
            TritonJoin(ac922(), cache_bytes=size) for size in (2**28, 2**31)
        )
        first = small.run(workload)
        calls = len(kernel_calls)
        second = large.run(workload)
        assert calls >= 1 and len(kernel_calls) == calls
        assert tally() == (1, 1)
        assert second.match == first.match
        # The hit's histogram fed the cost model exactly as a cold
        # join's does.
        run_cache.disable()
        run_cache.clear()
        assert large.run(workload).seconds == second.seconds
        assert small.run(workload).seconds == first.seconds

    def test_rescaled_relations_share_arrays_and_hit(self, cache, workload):
        build, probe = workload.build, workload.probe
        first = batched_radix_join(build, probe, BITS1)
        rescaled = batched_radix_join(
            build.with_nominal_rows(4 * build.nominal_rows),
            probe.with_nominal_rows(4 * probe.nominal_rows),
            BITS1,
        )
        assert rescaled == first
        assert tally() == (1, 1)

    def test_bits1_is_part_of_the_key(self, cache, workload):
        batched_radix_join(workload.build, workload.probe, BITS1)
        batched_radix_join(workload.build, workload.probe, BITS1 + 1)
        assert tally() == (0, 2)


class TestIdentityKey:
    def test_equal_contents_in_other_arrays_miss(self, cache, workload):
        build, probe = workload.build, workload.probe
        first = batched_radix_join(build, probe, BITS1)
        again = batched_radix_join(copied(build), copied(probe), BITS1)
        assert again == first
        assert tally() == (0, 2)

    def test_reused_id_never_aliases(self, cache, workload, monkeypatch):
        # Every array gets one id, so every join of one bits1 shares a
        # key: only the weak references tell the entries apart.
        monkeypatch.setattr(run_cache, "id", lambda array: 7, raising=False)
        build, probe = copied(workload.build), copied(workload.probe)
        expected = batched_radix_join(build, probe, BITS1)
        assert batched_radix_join(build, probe, BITS1) == expected
        assert tally() == (1, 1)
        # Live arrays other than the entry's miss.
        other = copied(workload.build)
        assert batched_radix_join(other, probe, BITS1) == expected
        assert tally() == (1, 2)
        # A dead array's entry never hits.
        del build, probe, other
        gc.collect()
        (entry,) = run_cache._memo.values()
        assert all(ref() is None for ref in entry.arrays)
        half = Relation(workload.build.keys[::2].copy(), name="build")
        batched_radix_join(half, copied(workload.probe), BITS1)
        assert tally() == (1, 3)

    def test_entry_holds_its_arrays_weakly(self, cache, workload):
        build, probe = copied(workload.build), copied(workload.probe)
        batched_radix_join(build, probe, BITS1)
        (entry,) = run_cache._memo.values()
        arrays = (build.keys, build_payload_column(build), probe.keys)
        assert all(ref() is array for ref, array in zip(entry.arrays, arrays))
        del build, probe, arrays
        gc.collect()
        assert all(ref() is None for ref in entry.arrays)


class TestHistogram:
    def test_hit_fills_the_callers_histogram(self, cache, workload):
        build, probe = workload.build, workload.probe
        expected_match, expected = cold_join(build, probe)
        fanout = 1 << BITS1
        miss = np.zeros(fanout, dtype=np.int64)
        hit = np.zeros(fanout, dtype=np.int64)
        assert batched_radix_join(build, probe, BITS1, histogram=miss) == (
            expected_match
        )
        assert batched_radix_join(build, probe, BITS1, histogram=hit) == (
            expected_match
        )
        assert tally() == (1, 1)
        np.testing.assert_array_equal(miss, expected)
        np.testing.assert_array_equal(hit, expected)
        # Editing a caller's array never reaches the memo.
        miss[:] = -1
        hit[:] = -1
        again = np.zeros(fanout, dtype=np.int64)
        batched_radix_join(build, probe, BITS1, histogram=again)
        np.testing.assert_array_equal(again, expected)


class TestBypass:
    def test_cache_off(self, workload):
        assert not run_cache.enabled()
        before = tally()
        batched_radix_join(workload.build, workload.probe, BITS1)
        batched_radix_join(workload.build, workload.probe, BITS1)
        assert tally() == before
        assert not run_cache._memo

    def test_force_reference(self, cache, workload, kernel_calls):
        expected = batched_radix_join(workload.build, workload.probe, BITS1)
        calls = len(kernel_calls)
        with force_reference():
            match = batched_radix_join(workload.build, workload.probe, BITS1)
        assert match == expected
        assert len(kernel_calls) > calls
        assert tally() == (0, 1)

    def test_out_of_core(self, cache, workload):
        config = ExecutionConfig(force=True, workers=0, morsel_rows=4096)
        with exec_context.configured(config):
            first = batched_radix_join(workload.build, workload.probe, BITS1)
            second = batched_radix_join(workload.build, workload.probe, BITS1)
        exec_context.consume_notes()
        assert first == second
        assert tally() == (0, 0)

    def test_reference_operator_is_never_memoized(self, cache):
        workload = generate_workload(64, 64, scale_divisor=65536, seed=3)
        TritonJoin(ac922(), reference=True).run(workload)
        TritonJoin(ac922(), reference=True, cache_bytes=2**28).run(workload)
        assert tally() == (0, 0)
