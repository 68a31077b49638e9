"""Property tests: batched partition-wise kernels vs. reference loops.

The grouped kernel (``repro.hashing.batch``) must be *byte-identical*
to a per-group table loop — same matched pairs, in the same order. The
morsel-driven join (``batched_radix_join``) must give the same summary
and pass-1 histogram as the per-partition loop
(``reference_radix_join``), and operators in either mode the same
simulated cost (counters and phase profiles), across random fanouts,
skew, duplicate keys, and empty partitions.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.data.generator import Workload, WorkloadConfig, generate_workload
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.exec.context import DEFAULT_MORSEL_ROWS, ExecutionConfig
from repro.exec.morsel import partition_state, plan_morsels
from repro.exec.outofcore import out_of_core_join
from repro.hashing.batch import (
    DEFAULT_BUCKETS,
    expand_ranges,
    grouped_bucket_chaining_join,
)
from repro.hashing.bucket_chaining import BucketChainingTable
from repro.hashing.functions import hash_u64, radix_window
from repro.hw.specs import ac922
from repro.join import run_cache
from repro.join.batched import batched_radix_join, reference_radix_join
from repro.join.cpu_partitioned import CpuPartitionedJoin
from repro.join.cpu_radix import CpuRadixJoin
from repro.join.multi_gpu import MultiGpuTritonJoin
from repro.join.triton import TritonJoin
from repro.kernels.scatter import COUNTING_DOMAIN_FACTOR, counting_offsets_free
from repro.telemetry import registry, tracing

SYSTEM = ac922()


@st.composite
def grouped_inputs(draw):
    """Random grouped build/probe arrays with empty groups and dup keys."""
    groups = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    skewed = draw(st.booleans())
    rng = np.random.default_rng(seed)
    key_space = draw(st.integers(min_value=1, max_value=64))

    def side(max_rows):
        # Some groups get zero rows: weight group choice unevenly.
        weights = rng.random(groups) ** (3.0 if skewed else 1.0)
        weights[rng.random(groups) < 0.3] = 0.0
        if weights.sum() == 0:
            weights[0] = 1.0
        rows = int(rng.integers(0, max_rows))
        g = rng.choice(groups, size=rows, p=weights / weights.sum())
        g.sort()  # partition-major layout: non-decreasing group ids
        keys = rng.integers(1, key_space + 1, size=rows)
        return g.astype(np.int64), keys.astype(np.int64)

    build_groups, build_keys = side(300)
    probe_groups, probe_keys = side(600)
    build_values = rng.integers(0, 2**40, size=len(build_keys)).astype(
        np.int64
    )
    return build_keys, build_values, build_groups, probe_keys, probe_groups


def _loop_reference(build_keys, build_values, build_groups,
                    probe_keys, probe_groups, buckets):
    """Per-group table build/probe — the semantics batching must match."""
    out_idx, out_values = [], []
    # Groups with no rows on a side add nothing, so only shared ones run.
    for g in np.intersect1d(build_groups, probe_groups):
        b = build_groups == g
        p = np.nonzero(probe_groups == g)[0]
        table = BucketChainingTable(
            build_keys[b], build_values[b], buckets=buckets
        )
        idx, values = table.probe(probe_keys[p])
        out_idx.append(p[idx])
        out_values.append(values)
    if not out_idx:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(out_idx), np.concatenate(out_values)


def _radix_grouped(bits, build_keys, probe_keys, rng):
    """Both sides grouped by a ``bits``-wide radix partition of their
    keys' hashes (pass 1's window), laid out partition-major, plus
    random build values."""

    def side(keys):
        keys = np.asarray(keys, dtype=np.int64)
        groups = radix_window(hash_u64(keys), bits).astype(np.int64)
        order = np.argsort(groups, kind="stable")
        return keys[order], groups[order]

    build_keys, build_groups = side(build_keys)
    probe_keys, probe_groups = side(probe_keys)
    build_values = rng.integers(0, 2**40, size=len(build_keys)).astype(
        np.int64
    )
    return build_keys, build_values, build_groups, probe_keys, probe_groups


def _partitioned(bits, build_rows, probe_rows, key_space, seed):
    """Uniform keys from ``[1, key_space]``, radix-grouped by ``bits``."""
    rng = np.random.default_rng(seed)
    return _radix_grouped(
        bits,
        rng.integers(1, key_space + 1, size=build_rows),
        rng.integers(1, key_space + 1, size=probe_rows),
        rng,
    )


@st.composite
def pass1_partitioned_inputs(draw):
    """Dense (a permutation of 1..rows, as the paper's PK side), uniform
    or Zipf keys, radix-grouped by a drawn ``bits1``; returns ``(bits1,
    kernel inputs)``."""
    bits1 = draw(st.integers(1, 14))
    build_rows = draw(st.integers(1, 1000))
    probe_rows = draw(st.integers(1, 1000))
    keys = draw(st.sampled_from(["dense", "uniform", "zipf"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if keys == "dense":
        build = rng.permutation(build_rows) + 1
        probe = rng.integers(1, build_rows + 1, size=probe_rows)
    elif keys == "uniform":
        build = rng.integers(1, 4 * build_rows + 1, size=build_rows)
        probe = rng.integers(1, 4 * build_rows + 1, size=probe_rows)
    else:
        build = rng.zipf(1.5, size=build_rows)
        probe = rng.zipf(1.5, size=probe_rows)
    return bits1, _radix_grouped(bits1, build, probe, rng)


@st.composite
def sparse_partitioned_inputs(draw):
    """Few build rows over many radix partitions (duplicate keys too)."""
    build_rows = draw(st.integers(1, 200))
    return _partitioned(
        draw(st.integers(1, 13)),
        build_rows,
        draw(st.integers(1, 400)),
        draw(st.integers(1, 4 * build_rows)),
        draw(st.integers(0, 2**31)),
    )


class TestGroupedBucketChaining:
    @given(grouped_inputs(), st.sampled_from([1, 2, 64, 2048]))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_group_table_loop(self, inputs, buckets):
        bk, bv, bg, pk, pg = inputs
        got_idx, got_values = grouped_bucket_chaining_join(
            bk, bv, bg, pk, pg, buckets=buckets
        )
        want_idx, want_values = _loop_reference(bk, bv, bg, pk, pg, buckets)
        np.testing.assert_array_equal(got_idx, want_idx)
        np.testing.assert_array_equal(got_values, want_values)

    # Pinned extremes: 8 rows < groups <= 16 rows (one bucket per group,
    # counting scatter) and groups > 16 rows (one bucket per group,
    # past the crossover).
    @example(_partitioned(8, 20, 200, 40, 1), DEFAULT_BUCKETS)
    @example(_partitioned(13, 4, 300, 8, 0), DEFAULT_BUCKETS)
    @given(sparse_partitioned_inputs(), st.sampled_from([2, 64, 2048]))
    @settings(max_examples=60, deadline=None)
    def test_row_sized_geometry_matches_requested_buckets(
        self, inputs, buckets
    ):
        """A slot space sized from the rows gives the pairs, in order,
        of per-group tables at the requested bucket count."""
        bk, bv, bg, pk, pg = inputs
        groups = max(int(bg.max()), int(pg.max())) + 1
        assume(groups * buckets > COUNTING_DOMAIN_FACTOR * len(bk))
        got = grouped_bucket_chaining_join(bk, bv, bg, pk, pg, buckets=buckets)
        loop = _loop_reference(bk, bv, bg, pk, pg, buckets)
        ref = grouped_bucket_chaining_join(
            bk, bv, bg, pk, pg, buckets=buckets, reference=True
        )
        for want in (loop, ref):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @given(pass1_partitioned_inputs(), st.sampled_from([2, 64, 1024, 2048]))
    @settings(max_examples=60, deadline=None)
    def test_pass2_window_matches_top_bit_tables(self, drawn, buckets):
        """Bucketing each pass-1 partition by the hash window above
        ``bits1`` gives the pairs, in order, of per-group tables that
        bucket by the top hash bits at the requested count."""
        bits1, (bk, bv, bg, pk, pg) = drawn
        got = grouped_bucket_chaining_join(
            bk, bv, bg, pk, pg, buckets=buckets, bits1=bits1
        )
        want = _loop_reference(bk, bv, bg, pk, pg, buckets)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize(
        "bits1, reference, want_buckets, want_offset",
        [
            # 100 build rows, one group: 1,024 of 2,048 buckets (10 bits).
            (3, False, 1024, 3),
            (53, False, 1024, 53),  # window [53, 63): still below bit 63
            (60, False, 1024, 54),  # [60, 70) is past it: the top bits
            (None, False, 1024, 54),  # groups not known to be partitions
            (3, True, 2048, 53),  # reference keeps count and top bits
        ],
    )
    def test_bucket_window(self, bits1, reference, want_buckets, want_offset):
        keys = np.arange(1, 101, dtype=np.int64)
        groups = np.zeros(len(keys), dtype=np.int64)
        spans = _kernel_spans(
            lambda: grouped_bucket_chaining_join(
                keys, keys, groups, keys, groups,
                bits1=bits1, reference=reference,
            )
        )
        assert [(a["buckets"], a["bucket_offset"]) for a in spans] == [
            (want_buckets, want_offset)
        ]
        got = grouped_bucket_chaining_join(
            keys, keys, groups, keys, groups,
            bits1=bits1, reference=reference,
        )
        np.testing.assert_array_equal(got[0], np.arange(len(keys)))
        np.testing.assert_array_equal(got[1], keys)

    def test_empty_sides(self):
        empty = np.empty(0, dtype=np.int64)
        ones = np.ones(3, dtype=np.int64)
        for args in (
            (empty, empty, empty, ones, np.zeros(3, dtype=np.int64)),
            (ones, ones, np.zeros(3, dtype=np.int64), empty, empty),
        ):
            idx, values = grouped_bucket_chaining_join(*args)
            assert len(idx) == 0 and len(values) == 0

    def test_rejects_non_power_of_two_buckets(self):
        ones = np.ones(1, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            grouped_bucket_chaining_join(ones, ones, ones, ones, ones,
                                         buckets=3)


class TestExpandRanges:
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 12)),
                    max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_matches_python_ranges(self, spans):
        starts = np.array([s for s, _ in spans], dtype=np.int64)
        ends = starts + np.array([n for _, n in spans], dtype=np.int64)
        owners, flat = expand_ranges(starts, ends)
        want_owners, want_flat = [], []
        for i, (s, e) in enumerate(zip(starts, ends)):
            for j in range(s, e):
                want_owners.append(i)
                want_flat.append(j)
        np.testing.assert_array_equal(owners, want_owners)
        np.testing.assert_array_equal(flat, want_flat)


@st.composite
def pk_fk_relations(
    draw, min_probe_rows=0, min_build_rows=1, duplicate_build_keys=False
):
    """Random PK/FK relation pairs (dense build keys, skewable probes).

    ``duplicate_build_keys`` lets some examples repeat build keys (each
    probe then matches several build rows).
    """
    build_rows = draw(st.integers(min_value=min_build_rows, max_value=1500))
    probe_rows = draw(st.integers(min_value=min_probe_rows, max_value=3000))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    skew = draw(st.sampled_from([0.0, 0.5, 1.1]))
    rng = np.random.default_rng(seed)
    if duplicate_build_keys and draw(st.booleans()):
        build_keys = rng.integers(
            1, build_rows // 3 + 2, size=build_rows
        ).astype(np.int64)
    else:
        build_keys = rng.permutation(build_rows).astype(np.int64) + 1
    if probe_rows and skew:
        ranks = rng.zipf(1.0 + skew, size=probe_rows)
        probe_keys = ((ranks - 1) % int(build_rows * 1.5 + 1) + 1).astype(
            np.int64
        )
    else:
        probe_keys = rng.integers(
            1, int(build_rows * 1.5) + 2, size=probe_rows
        ).astype(np.int64)
    build = Relation(
        build_keys,
        {"attr0": rng.integers(0, 2**40, build_rows).astype(np.int64)},
        name="R",
    )
    probe = Relation(
        probe_keys,
        {"attr0": rng.integers(0, 2**40, probe_rows).astype(np.int64)},
        name="S",
    )
    return build, probe


class TestBatchedRadixJoin:
    @given(
        pk_fk_relations(min_build_rows=0),
        st.integers(1, 14),
        st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_partitioned_loop(self, relations, bits1, bits2):
        """Same summary and pass-1 histogram as the per-partition loop."""
        build, probe = relations
        h1 = np.empty(1 << bits1, dtype=np.int64)
        h2 = np.empty(1 << bits1, dtype=np.int64)
        want = reference_radix_join(build, probe, bits1, bits2, histogram=h1)
        got = batched_radix_join(build, probe, bits1, bits2, histogram=h2)
        assert got == want
        assert np.array_equal(h1, h2)

    @given(
        pk_fk_relations(min_build_rows=0, duplicate_build_keys=True),
        st.integers(1, 14),
        st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_summary_matches_ordered_pairs_and_out_of_core(
        self, relations, bits1, bits2
    ):
        """The morsel summary path and the forced out-of-core executor
        equal the summary of the per-partition loop's ordered pairs."""
        build, probe = relations
        want = reference_radix_join(build, probe, bits1, bits2)
        assert batched_radix_join(build, probe, bits1, bits2) == want
        forced = out_of_core_join(
            build, probe, bits1, config=ExecutionConfig(force=True)
        )
        assert forced == want

    def test_large_join_spans_several_morsels(self):
        rng = np.random.default_rng(5)
        rows = 200_000
        build = Relation(
            rng.permutation(rows).astype(np.int64) + 1,
            {"attr0": rng.integers(0, 2**40, rows).astype(np.int64)},
            name="R",
        )
        probe = Relation(
            rng.integers(1, rows * 3 // 2, rows).astype(np.int64),
            {"attr0": rng.integers(0, 2**40, rows).astype(np.int64)},
            name="S",
        )
        bits1, bits2 = 9, 4
        source = partition_state(build, probe, bits1)
        morsels = plan_morsels(
            np.diff(source.build_offsets),
            np.diff(source.probe_offsets),
            DEFAULT_MORSEL_ROWS,
        )
        assert len(morsels) > 1
        want = reference_radix_join(build, probe, bits1, bits2)
        assert want.matches > 0
        assert batched_radix_join(build, probe, bits1, bits2) == want


def _pk_fk(rows, seed):
    rng = np.random.default_rng(seed)

    def relation(keys, name):
        payload = rng.integers(0, 2**40, rows).astype(np.int64)
        return Relation(keys.astype(np.int64), {"attr0": payload}, name=name)

    return (
        relation(rng.permutation(rows) + 1, "R"),
        relation(rng.integers(1, rows + 1, rows), "S"),
    )


def _kernel_spans(join):
    """Run ``join()`` inside a trace; the span attributes of every
    grouped kernel call it made."""
    tracing.set_recording(tracing.SPANS)
    tracing.reset()
    try:
        with tracing.trace_query(tracing.derive_trace_id(0, 0)):
            join()
        return [
            record["attrs"]
            for record in tracing.records()
            if record["name"] == "grouped_bucket_chaining_join"
        ]
    finally:
        tracing.set_recording(tracing.OFF)
        tracing.reset()


def _kernel_buckets(join):
    """The bucket count of every grouped kernel call ``join()`` made."""
    return [attrs["buckets"] for attrs in _kernel_spans(join)]


class TestRowSizedGeometry:
    def test_small_morsels_take_the_counting_scatter(self):
        """31 partitions of ~110 rows a side per morsel: the kernels
        order every build by counting and probe by dense lookups."""
        bits1 = 8
        build, probe = _pk_fk(110 << bits1, seed=17)
        before = registry.snapshot()
        buckets = _kernel_buckets(
            lambda: batched_radix_join(build, probe, bits1)
        )
        delta = registry.delta_since(before)["counters"]
        if counting_offsets_free(1, 1):  # scipy's scatter is installed
            assert delta.get("kernels.scatter.order.argsort", 0) == 0
        assert delta.get("batch.probe.searchsorted", 0) == 0
        assert delta["batch.probe.dense"] == len(buckets) > 1
        assert set(buckets) == {DEFAULT_BUCKETS // 2}
        assert batched_radix_join(
            build, probe, bits1
        ) == reference_radix_join(build, probe, bits1)

    @pytest.mark.parametrize("budget", [None, 4096], ids=["memory", "spill"])
    def test_every_source_buckets_by_its_pass1_bits(self, budget, tmp_path):
        """In memory and off disk, the morsel source hands the kernel
        its ``bits1``; on dense keys no lookup then reads a chain."""
        bits1 = 8
        build, probe = _pk_fk(110 << bits1, seed=17)
        config = ExecutionConfig(
            budget_bytes=budget,
            morsel_rows=8192,
            spill_dir=str(tmp_path),
            force=True,
        )
        spans = _kernel_spans(
            lambda: out_of_core_join(build, probe, bits1, config=config)
        )
        assert len(spans) > 1
        assert {(a["bucket_offset"], a["long_chains"]) for a in spans} == {
            (bits1, 0)
        }

    def test_big_join_keeps_the_paper_geometry(self):
        """0.5 M rows a side at TritonJoin's bits1: each morsel's build
        rows fill 2048 buckets per partition within the crossover."""
        workload = generate_workload(1024, 1024, scale_divisor=2048, seed=1)
        bits1 = min(TritonJoin(SYSTEM).plan(workload).bits1, 10)
        buckets = _kernel_buckets(
            lambda: batched_radix_join(workload.build, workload.probe, bits1)
        )
        assert len(buckets) > 1
        assert set(buckets) == {DEFAULT_BUCKETS}


def _workload(build, probe):
    config = WorkloadConfig(
        build_m_tuples=max(len(build), 1) / 1e6,
        probe_m_tuples=max(len(probe), 1) / 1e6,
    )
    return Workload(config=config, build=build, probe=probe)


@pytest.mark.parametrize(
    "make_operator",
    [
        lambda: CpuRadixJoin(SYSTEM),
        lambda: TritonJoin(SYSTEM),
        lambda: CpuPartitionedJoin(SYSTEM),
    ],
    ids=["cpu_radix", "triton", "cpu_partitioned"],
)
class TestOperatorsBatchedVsReference:
    @given(relations=pk_fk_relations(min_probe_rows=1))
    @settings(max_examples=15, deadline=None)
    def test_identical_match_and_cost(self, make_operator, relations):
        """Batched and reference modes agree on results AND simulation."""
        build, probe = relations
        workload = _workload(build, probe)
        batched_op = make_operator()
        reference_op = dataclasses.replace(batched_op, reference=True)
        a = batched_op.run(workload)
        b = reference_op.run(workload)
        assert a.match == b.match
        assert a.seconds == b.seconds
        assert a.counters == b.counters
        assert a.sim.trace == b.sim.trace
        assert a.sim.resource_busy_units == b.sim.resource_busy_units


def test_multi_gpu_batched_vs_reference():
    workload = generate_workload(64, 128, scale_divisor=1024, seed=11)
    a = MultiGpuTritonJoin(SYSTEM).run(workload)
    b = MultiGpuTritonJoin(
        SYSTEM, triton=TritonJoin(SYSTEM, reference=True)
    ).run(workload)
    assert a.match == b.match
    assert a.seconds == b.seconds
    assert a.counters == b.counters


class TestRunCache:
    def setup_method(self):
        run_cache.clear()

    def teardown_method(self):
        run_cache.disable()
        run_cache.clear()

    def test_disabled_by_default(self):
        workload = generate_workload(1, 1, seed=3)
        CpuRadixJoin(SYSTEM).run(workload)
        assert run_cache.stats == {
            "hits": 0, "misses": 0, "plan_hits": 0, "plan_misses": 0
        }

    def test_hit_returns_equal_run(self):
        run_cache.enable()
        workload = generate_workload(1, 1, seed=3)
        operator = CpuRadixJoin(SYSTEM)
        first = operator.run(workload)
        second = operator.run(workload)
        assert run_cache.stats == {
            "hits": 1, "misses": 1, "plan_hits": 0, "plan_misses": 0
        }
        assert second.match == first.match
        assert second.seconds == first.seconds
        assert second.counters == first.counters

    def test_distinct_config_misses(self):
        run_cache.enable()
        workload = generate_workload(1, 1, seed=3)
        CpuRadixJoin(SYSTEM).run(workload)
        CpuRadixJoin(SYSTEM, reference=True).run(workload)
        assert run_cache.stats == {
            "hits": 0, "misses": 2, "plan_hits": 0, "plan_misses": 0
        }

    def test_distinct_workload_misses(self):
        run_cache.enable()
        operator = CpuRadixJoin(SYSTEM)
        operator.run(generate_workload(1, 1, seed=3))
        operator.run(generate_workload(1, 1, seed=4))
        assert run_cache.stats == {
            "hits": 0, "misses": 2, "plan_hits": 0, "plan_misses": 0
        }

    def test_notes_do_not_poison_cache(self):
        run_cache.enable()
        workload = generate_workload(1, 1, seed=3)
        operator = CpuRadixJoin(SYSTEM)
        first = operator.run(workload)
        first.notes["scratch"] = "local annotation"
        second = operator.run(workload)
        assert "scratch" not in second.notes
