"""Out-of-core execution: morsels, spill, worker pool, operator wiring."""

import builtins
import io
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.data.generator import generate_workload
from repro.data.relation import DeferredColumns
from repro.errors import ConfigurationError
from repro.exec import context as exec_context
from repro.exec.context import ExecutionConfig, should_go_out_of_core
from repro.exec import morsel as morsel_module
from repro.exec import pool as pool_module
from repro.exec.morsel import (
    ShmBlock,
    execute_morsel,
    merge_partials,
    partition_state,
    plan_morsels,
    plan_source,
)
from repro.exec.outofcore import out_of_core_join
from repro.exec.pool import get_pool, shutdown_pool
from repro.exec.spill import SpillManager
from repro.join import run_cache
from repro.join.base import CHECKSUM_MOD, NO_MATCH, JoinMatch
from repro.join.batched import batched_radix_join, reference_radix_join
from repro.join.triton import TritonJoin
from repro.service.plan import compile_plan

BITS1 = 6
#: The note fields only a pooled join records.
POOL_FIELDS = {"occupancy", "recovered", "worker_deaths", "pool_wall_seconds"}


def refuse_draw(*args, **kwargs):
    raise AssertionError("deferred payload columns drawn")


@pytest.fixture(scope="module")
def reference(small_workload):
    """The per-partition loop's summary every path must reproduce."""
    return reference_radix_join(
        small_workload.build, small_workload.probe, BITS1, 4
    )


def summary(match):
    return (match.matches, match.key_checksum, match.payload_checksum)


def join_with_note(build, probe, config):
    """Run one out-of-core join and return (match, its summary note)."""
    with exec_context.configured(config):
        match = out_of_core_join(build, probe, BITS1)
        notes = exec_context.consume_notes()
    assert len(notes) == 1
    return match, notes[0]


class TestExecutionConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExecutionConfig(budget_bytes=0)
        with pytest.raises(ConfigurationError):
            ExecutionConfig(morsel_rows=16)
        with pytest.raises(ConfigurationError):
            ExecutionConfig(workers=-1)

    def test_ambient_activation_is_scoped(self):
        assert exec_context.active() is None
        outer = ExecutionConfig(budget_bytes=1024)
        inner = ExecutionConfig(budget_bytes=2048)
        with exec_context.configured(outer):
            assert exec_context.active() is outer
            with exec_context.configured(inner):
                assert exec_context.active() is inner
            assert exec_context.active() is outer
        assert exec_context.active() is None

    def test_should_go_out_of_core(self, small_workload):
        build, probe = small_workload.build, small_workload.probe
        state = build.materialized_bytes + probe.materialized_bytes
        assert not should_go_out_of_core(build, probe, None)
        assert should_go_out_of_core(
            build, probe, ExecutionConfig(force=True)
        )
        assert should_go_out_of_core(
            build, probe, ExecutionConfig(budget_bytes=state // 2)
        )
        assert not should_go_out_of_core(
            build, probe, ExecutionConfig(budget_bytes=state * 2)
        )

    def test_notes_mailbox_drains(self):
        with exec_context.configured(None):
            exec_context.record_note({"mode": "memory"})
            exec_context.record_note({"mode": "spill"})
            notes = exec_context.consume_notes()
            assert [note["mode"] for note in notes] == ["memory", "spill"]
            assert exec_context.consume_notes() == []
        # Outside every scope there is no mailbox: notes are dropped.
        exec_context.record_note({"mode": "memory"})
        assert exec_context.consume_notes() == []


class TestMorselPlanning:
    def test_morsels_cover_every_partition_once(self):
        build = np.array([100, 0, 50, 3000, 10, 0, 20, 40], dtype=np.int64)
        probe = build * 2
        morsels = plan_morsels(build, probe, morsel_rows=256)
        assert [m.index for m in morsels] == list(range(len(morsels)))
        covered = []
        for morsel in morsels:
            assert morsel.lo < morsel.hi
            covered.extend(range(morsel.lo, morsel.hi))
        assert covered == list(range(len(build)))
        total = int((build + probe).sum())
        assert sum(m.rows for m in morsels) == total

    def test_oversized_partition_closes_its_morsel(self):
        """Hash skew: a fat partition can't be split, so the greedy
        packer closes the morsel right after it instead of dragging
        later partitions into the same giant unit of work."""
        build = np.array([10, 5000, 10], dtype=np.int64)
        probe = np.zeros(3, dtype=np.int64)
        morsels = plan_morsels(build, probe, morsel_rows=100)
        fat = [m for m in morsels if m.lo <= 1 < m.hi]
        assert len(fat) == 1
        assert fat[0].hi == 2
        assert fat[0].rows >= 5000

    @given(
        st.lists(st.integers(0, 300), max_size=80),
        st.integers(1, 600),
        st.one_of(st.none(), st.integers(1, 10)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_greedy_reference(
        self, sizes, morsel_rows, max_partitions
    ):
        """The binary-search planner cuts exactly where the greedy
        per-partition loop does."""
        sizes = np.asarray(sizes, dtype=np.int64)
        build, probe = sizes // 3, sizes - sizes // 3
        want, lo, rows = [], 0, 0
        for p, size in enumerate(sizes):
            rows += int(size)
            if rows >= morsel_rows or p + 1 - lo == max_partitions:
                want.append((len(want), lo, p + 1, rows))
                lo, rows = p + 1, 0
        if lo < len(sizes):
            want.append((len(want), lo, len(sizes), rows))
        got = plan_morsels(build, probe, morsel_rows, max_partitions)
        assert [(m.index, m.lo, m.hi, m.rows) for m in got] == want

    def test_merge_partials_is_exact(self):
        """Chunk-wise merged checksums equal the full-array result.

        ``JoinMatch.from_arrays`` reduces mod ``2**62``; numpy's int64
        sums wrap mod ``2**64 ≡ 0 (mod 2**62)``, so splitting the
        arrays anywhere and merging must be bit-exact, not approximate.
        """
        rng = np.random.default_rng(3)
        keys = rng.integers(1, 2**60, 10_000).astype(np.int64)
        payloads = rng.integers(1, 2**60, 10_000).astype(np.int64)
        whole = JoinMatch.from_arrays(keys, payloads)
        partials = []
        for lo in range(0, len(keys), 1337):
            chunk = JoinMatch.from_arrays(
                keys[lo:lo + 1337], payloads[lo:lo + 1337]
            )
            partials.append(
                (chunk.matches, chunk.key_checksum,
                 chunk.payload_checksum, 1337)
            )
        merged = merge_partials(partials)
        assert summary(merged) == summary(whole)
        assert merged.key_checksum < CHECKSUM_MOD


class TestOutOfCoreIdentity:
    def test_serial_in_memory(self, small_workload, reference):
        match, note = join_with_note(
            small_workload.build,
            small_workload.probe,
            ExecutionConfig(force=True, workers=0),
        )
        assert summary(match) == summary(reference)
        assert note["mode"] == "memory"
        assert note["morsels"] >= 1

    def test_empty_side_joins_inline(self, small_workload, monkeypatch):
        """A forced pooled join whose build side has no rows runs its
        morsels inline: no shared-memory segment, no pool fields."""
        created = []

        def recording(*args):
            created.append(args)
            return ShmBlock(*args)

        monkeypatch.setattr(morsel_module, "ShmBlock", recording)
        monkeypatch.setattr(pool_module, "ShmBlock", recording)
        empty = small_workload.build.take(np.arange(0))
        try:
            match, note = join_with_note(
                empty,
                small_workload.probe,
                ExecutionConfig(force=True, workers=2, morsel_rows=1024),
            )
        finally:
            shutdown_pool()
        assert match == NO_MATCH
        assert (note["mode"], note["workers"]) == ("memory", 2)
        # Enough morsels that a pooled join would have used the pool.
        assert note["morsels"] > 1
        assert set(note) & POOL_FIELDS == set()
        assert created == []

    def test_spill_to_disk(self, small_workload, reference, tmp_path):
        build, probe = small_workload.build, small_workload.probe
        state = build.materialized_bytes + probe.materialized_bytes
        match, note = join_with_note(
            build,
            probe,
            ExecutionConfig(
                budget_bytes=state // 2,
                workers=0,
                morsel_rows=4096,
                spill_dir=str(tmp_path),
            ),
        )
        assert summary(match) == summary(reference)
        assert note["mode"] == "spill"
        assert note["spilled_bytes"] > 0
        assert note["shards"] >= 2
        # The spill manager cleaned up after itself.
        assert list(tmp_path.glob("repro-spill-*")) == []

    def test_spill_writes_only_the_kernel_columns(
        self, reference, tmp_path, monkeypatch
    ):
        """The probe side spills its keys alone, so its deferred payload
        columns are never drawn; the build side spills key and value."""
        workload = generate_workload(
            0.05, 0.1, scale_divisor=1, seed=7, payload_columns=3
        )
        build, probe = workload.build, workload.probe
        state = build.materialized_bytes + probe.materialized_bytes
        spilled = []
        original = SpillManager.spill

        def recording(manager, relation, bits):
            spilled.append(relation.column_names())
            return original(manager, relation, bits)

        monkeypatch.setattr(SpillManager, "spill", recording)
        monkeypatch.setattr(DeferredColumns, "values", refuse_draw)
        match, note = join_with_note(
            build,
            probe,
            ExecutionConfig(
                budget_bytes=state // 2,
                workers=0,
                morsel_rows=4096,
                spill_dir=str(tmp_path),
            ),
        )
        monkeypatch.undo()
        assert note["mode"] == "spill"
        assert spilled == [["key", "attr0"], ["key"]]
        assert summary(match) == summary(reference)

    def test_spilled_join_opens_files_per_column_not_per_shard(
        self, small_workload, reference, tmp_path, monkeypatch
    ):
        """A serial spilled join's file opens (writer and reader) are
        bounded by a constant per column, however many shards and
        morsels it runs."""
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for module, name in (
            (builtins, "open"),
            (io, "open"),
            (os, "open"),
            (np, "load"),
        ):
            monkeypatch.setattr(
                module, name, counting(name, getattr(module, name))
            )
        build, probe = small_workload.build, small_workload.probe
        state = build.materialized_bytes + probe.materialized_bytes
        match, note = join_with_note(
            build,
            probe,
            ExecutionConfig(
                budget_bytes=state // 16,
                workers=0,
                morsel_rows=4096,
                spill_dir=str(tmp_path),
            ),
        )
        monkeypatch.undo()
        assert summary(match) == summary(reference)
        assert note["mode"] == "spill"
        assert note["shards"] >= 16 and note["morsels"] >= 8
        columns = len(build.column_names()) + len(probe.column_names())
        assert len(calls) <= 6 * columns, calls

    def test_morsel_pool(self, small_workload, reference):
        try:
            match, note = join_with_note(
                small_workload.build,
                small_workload.probe,
                ExecutionConfig(force=True, workers=2, morsel_rows=4096),
            )
            assert summary(match) == summary(reference)
            assert note["mode"] == "memory"
            assert note["workers"] == 2
            assert 0.0 <= note["occupancy"] <= 1.0
            assert note["worker_deaths"] == 0
        finally:
            shutdown_pool()

    def test_empty_probe(self, small_workload):
        empty = small_workload.probe.take(np.arange(0))
        match, note = join_with_note(
            small_workload.build, empty, ExecutionConfig(force=True)
        )
        assert summary(match) == (0, 0, 0)
        assert note["mode"] == "memory"


def test_in_memory_join_leaves_exec_counters_alone(small_workload):
    """``exec.*`` metrics describe the out-of-core executor only: a plain
    in-memory join runs serial morsels without moving them."""
    before = telemetry.registry.snapshot()
    batched_radix_join(small_workload.build, small_workload.probe, BITS1, 4)
    delta = telemetry.registry.delta_since(before)
    moved = [
        name
        for section in ("counters", "timings")
        for name in delta[section]
        if name.startswith("exec.")
    ]
    assert moved == []
    assert delta["counters"]  # the kernels' own counters did move


def pooled_source(workload, morsel_rows):
    """The shared-memory source a pooled in-memory join partitions into,
    and its morsels."""
    source = partition_state(
        workload.build, workload.probe, BITS1, shared=True
    )
    return source, plan_source(source, morsel_rows)


def morsel_workers():
    """Names of the morsel-pool worker processes still alive."""
    return sorted(
        child.name
        for child in multiprocessing.active_children()
        if child.name.startswith("morsel-worker-")
    )


class TestCrashRecovery:
    def test_worker_death_recovers_exactly(self, small_workload, reference):
        """Kill worker 0 mid-morsel; the parent must re-execute it.

        The done-flag protocol marks a morsel complete only after its
        partial is computed, so a worker dying between claim and
        completion leaves a detectable hole the parent fills inline —
        and because partials merge order-independently, the recovered
        result is identical, not merely close.
        """
        source, morsels = pooled_source(small_workload, 4096)
        assert len(morsels) > 1

        def recover(morsel):
            return execute_morsel(source, morsel)

        try:
            pool = get_pool(2)
            result = pool.run(
                source, morsels, recover, die_on={0: morsels[0].index}
            )
            assert result.deaths == 1
            assert result.recovered >= 1
            assert summary(merge_partials(result.partials)) == summary(
                reference
            )

            # The pool respawned the dead worker: a second, clean job
            # on the same pool completes with no deaths.
            healed = pool.run(source, morsels, recover)
            assert healed.deaths == 0
            assert healed.recovered == 0
            assert summary(merge_partials(healed.partials)) == summary(
                reference
            )
            assert 0.0 <= healed.occupancy <= 1.0
        finally:
            source.close()
            shutdown_pool()

    def test_resizing_leaves_a_running_job_alone(
        self, small_workload, reference
    ):
        """Asking for another worker count while a job runs neither
        waits for the job nor stops its workers, and shutdown stops
        every pool's workers."""
        source, morsels = pooled_source(small_workload, 4096)
        runs = []

        def job():
            runs.append(
                get_pool(2).run(
                    source,
                    morsels,
                    lambda morsel: execute_morsel(source, morsel),
                    sleep_on={0: (morsels[0].index, 3.0)},
                )
            )

        thread = threading.Thread(target=job)
        try:
            get_pool(2).ensure_started()
            thread.start()
            time.sleep(0.5)  # worker 0 is parked on its first morsel
            started = time.perf_counter()
            get_pool(3).ensure_started()
            assert time.perf_counter() - started < 1.0
            thread.join(timeout=30)
            (run,) = runs
            assert (run.deaths, run.recovered) == (0, 0)
            assert summary(merge_partials(run.partials)) == summary(
                reference
            )
        finally:
            thread.join(timeout=30)
            shutdown_pool()
            source.close()
        assert morsel_workers() == []


class TestOperatorWiring:
    def test_triton_join_spills_transparently(self, system, small_workload):
        operator = TritonJoin(system)
        clean = operator.run(small_workload)
        assert "out_of_core" not in clean.notes

        state = (
            small_workload.build.materialized_bytes
            + small_workload.probe.materialized_bytes
        )
        config = ExecutionConfig(
            budget_bytes=state // 2, workers=0, morsel_rows=4096
        )
        with exec_context.configured(config):
            budgeted = operator.run(small_workload)
        note = budgeted.notes["out_of_core"]
        assert note["mode"] == "spill"
        assert note["budget_bytes"] == state // 2
        assert summary(budgeted.match) == summary(clean.match)

    def test_run_cache_key_separates_exec_configs(
        self, system, small_workload
    ):
        operator = TritonJoin(system)
        plain = run_cache.run_key(operator, small_workload)
        with exec_context.configured(ExecutionConfig(budget_bytes=1024)):
            budgeted = run_cache.run_key(operator, small_workload)
        with exec_context.configured(ExecutionConfig(budget_bytes=2048)):
            other = run_cache.run_key(operator, small_workload)
        assert plain != budgeted
        assert budgeted != other


def test_spilled_query_byte_accounting_is_pinned(tmp_path):
    """Admission estimates and spill byte counts are pinned figures: a
    spilled query writes only what the morsel kernels read, the build
    side's key and first payload column and the probe side's key."""
    plan = compile_plan(
        {
            "name": "spilled",
            "workload": {
                "build_m_tuples": 256,
                "probe_m_tuples": 512,
                "payload_columns": 2,
                "scale_divisor": 65536,
                "seed": 5,
            },
            "root": {
                "op": "join",
                "build": {"op": "scan", "relation": "build"},
                "probe": {"op": "scan", "relation": "probe"},
            },
        }
    )
    assert plan.estimate_bytes == 285792
    before = telemetry.registry.snapshot()
    config = ExecutionConfig(
        budget_bytes=plan.estimate_bytes // 4,
        workers=0,
        morsel_rows=4096,
        spill_dir=str(tmp_path),
    )
    with exec_context.configured(config):
        result = plan.execute()
    delta = telemetry.registry.delta_since(before)
    assert result.runs[0].notes["out_of_core"]["mode"] == "spill"
    assert delta["counters"]["exec.spill.bytes_written"] == 159995
    assert result.checksum == "225eda5a30853347"
