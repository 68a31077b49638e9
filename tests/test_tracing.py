"""Trace contexts: deterministic ids, propagation, forest validation.

The properties the end-to-end tracing story rests on:

1. ids are pure functions of (seed, sequence) and span position, so a
   seeded run reproduces its whole id forest;
2. ambient propagation is per-thread (concurrent service workers never
   cross-parent) and survives the capture/absorb hop into pool workers;
3. ``validate_trace_tree`` rejects every malformation the CI gate is
   meant to catch (bad ids, orphans, cycles, duplicates);
4. the Chrome export round-trips the forest
   (``validate_chrome_trace`` re-validates it from the document);
5. a traced service query's tree reaches down to the operator, kernel,
   and pool-worker spans that ran it.
"""

import threading

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import export, tracing
from repro.telemetry.export import chrome_trace_document, validate_chrome_trace


@pytest.fixture
def traced():
    """Spans on with an empty buffer; always off again afterwards."""
    tracing.set_recording(tracing.SPANS)
    tracing.reset()
    yield tracing
    tracing.set_recording(tracing.OFF)
    tracing.reset()


class TestDeterministicIds:
    def test_trace_id_is_a_pure_function_of_seed_and_sequence(self):
        assert tracing.derive_trace_id(0, 7) == tracing.derive_trace_id(0, 7)
        assert tracing.derive_trace_id(0, 7) != tracing.derive_trace_id(0, 8)
        assert tracing.derive_trace_id(1, 7) != tracing.derive_trace_id(0, 7)

    def test_ids_are_sixteen_hex_chars(self):
        trace_id = tracing.derive_trace_id(3, 11)
        assert tracing.is_valid_id(trace_id)
        assert tracing.is_valid_id(
            tracing.derive_span_id(trace_id, None, "query", 0)
        )
        assert tracing.is_valid_id(tracing.root_span_id(trace_id))

    def test_sibling_index_disambiguates_repeated_names(self):
        trace_id = tracing.derive_trace_id(0, 0)
        parent = tracing.root_span_id(trace_id)
        first = tracing.derive_span_id(trace_id, parent, "morsel", 0)
        second = tracing.derive_span_id(trace_id, parent, "morsel", 1)
        assert first != second

    def test_invalid_ids_rejected(self):
        for bad in (None, 17, "xyz", "0" * 15, "g" * 16, "0" * 17):
            assert not tracing.is_valid_id(bad)

    def test_same_run_reproduces_span_forest(self, traced):
        def run():
            trace_id = tracing.derive_trace_id(42, 5)
            with telemetry.capture() as envelope:
                with tracing.trace_query(trace_id):
                    with tracing.span("execute"):
                        with tracing.span("morsel"):
                            pass
                        with tracing.span("morsel"):
                            pass
            return [
                (r["trace"], r["span"], r["parent"])
                for r in envelope["records"]
            ]

        assert run() == run()


class TestAmbientPropagation:
    def test_spans_nest_under_the_active_query(self, traced):
        trace_id = tracing.derive_trace_id(0, 0)
        with tracing.trace_query(trace_id):
            with tracing.span("execute", worker=1):
                with tracing.span("Join(triton)"):
                    pass
        records = tracing.records()
        by_name = {record["name"]: record for record in records}
        assert set(by_name) == {"query", "execute", "Join(triton)"}
        root = by_name["query"]
        assert root["parent"] is None
        assert root["span"] == tracing.root_span_id(trace_id)
        assert by_name["execute"]["parent"] == root["span"]
        assert by_name["Join(triton)"]["parent"] == by_name["execute"]["span"]
        assert {record["trace"] for record in records} == {trace_id}
        assert by_name["execute"]["attrs"] == {"worker": 1}
        assert tracing.validate_trace_tree(records) == []

    def test_grouped_join_span_records_the_buckets_it_used(self, traced):
        """The kernel's span shows the geometry it ran: the requested
        ceiling, shrunk to the build rows, or one bucket per group."""
        from repro.hashing.batch import grouped_bucket_chaining_join

        def groups_of(rows, groups):
            return np.arange(rows, dtype=np.int64) * groups // rows

        keys = np.arange(1, 101, dtype=np.int64)
        # 100 build rows afford 16 x 100 = 1600 slots: (groups,
        # reference) -> buckets used of the 2048 requested.
        cases = [
            ((1, False), 1024),
            ((3, False), 512),
            ((1600, False), 1),
            ((3000, False), 1),
            ((3, True), 2048),
        ]
        with tracing.trace_query(tracing.derive_trace_id(0, 0)):
            for (groups, reference), _ in cases:
                grouped = groups_of(len(keys), groups)
                grouped[-1] = groups - 1
                grouped_bucket_chaining_join(
                    keys, keys, grouped, keys, grouped,
                    buckets=2048, reference=reference,
                )
        spans = [
            record["attrs"]
            for record in tracing.records()
            if record["name"] == "grouped_bucket_chaining_join"
        ]
        assert [attrs["buckets"] for attrs in spans] == [
            want for _, want in cases
        ]
        # No call passes bits1, so buckets come from the top hash bits;
        # keys 1..100 spread over them with no chain longer than one.
        assert [attrs["long_chains"] for attrs in spans] == [0] * len(cases)

    def test_dense_morsel_reads_no_chain_longer_than_one(self, traced):
        """A fig17-shaped morsel: 31 pass-1 partitions (``bits1 = 10``)
        of dense keys, ~122 build rows each over 1,024 buckets. The
        window above ``bits1`` gives each key its own bucket; the top
        hash bits, which ``reference=True`` keeps, pair keys up."""
        from repro.hashing.batch import grouped_bucket_chaining_join
        from repro.hashing.functions import hash_u64, radix_window

        bits1 = 10
        keys = np.arange(1, (122 << bits1) + 1, dtype=np.int64)
        groups = radix_window(hash_u64(keys), bits1)
        order = np.argsort(groups, kind="stable")
        morsel = order[groups[order] < 31]
        keys, groups = keys[morsel], groups[morsel]
        with tracing.trace_query(tracing.derive_trace_id(0, 0)):
            for reference in (False, True):
                grouped_bucket_chaining_join(
                    keys, keys, groups, keys, groups,
                    buckets=1024, bits1=bits1, reference=reference,
                )
        window, top = [
            record["attrs"]
            for record in tracing.records()
            if record["name"] == "grouped_bucket_chaining_join"
        ]
        assert (window["buckets"], window["bucket_offset"]) == (1024, bits1)
        assert window["long_chains"] == 0
        assert (top["buckets"], top["bucket_offset"]) == (1024, 64 - 10)
        assert top["long_chains"] > 0

    def test_span_is_noop_when_disabled_or_off_trace(self):
        for level in (tracing.OFF, tracing.EVENTS):
            tracing.set_recording(level)
            assert tracing.span("x") is tracing.NULL_SPAN
        tracing.set_recording(tracing.SPANS)
        try:
            # Enabled but no ambient trace on this thread: still a no-op.
            assert tracing.span("x") is tracing.NULL_SPAN
            assert tracing.current() is None
            assert tracing.payload() is None
        finally:
            tracing.set_recording(tracing.OFF)

    def test_span_outside_trace_records_nothing(self, traced):
        with tracing.span("orphan"):
            pass
        assert tracing.records() == []

    def test_concurrent_threads_do_not_cross_parent(self, traced):
        barrier = threading.Barrier(2)
        trace_ids = [
            tracing.derive_trace_id(0, 0),
            tracing.derive_trace_id(0, 1),
        ]

        def worker(trace_id):
            with tracing.trace_query(trace_id):
                barrier.wait(timeout=10)
                with tracing.span("execute"):
                    barrier.wait(timeout=10)

        threads = [
            threading.Thread(target=worker, args=(tid,)) for tid in trace_ids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        records = tracing.records()
        assert tracing.validate_trace_tree(records) == []
        grouped = tracing.by_trace(records)
        assert set(grouped) == set(trace_ids)
        for trace_id, spans in grouped.items():
            # Each trace's execute parents under its own root — never
            # the other thread's.
            by_name = {record["name"]: record for record in spans}
            assert by_name["execute"]["parent"] == by_name["query"]["span"]

    def test_exception_unwinding_still_records_the_span(self, traced):
        trace_id = tracing.derive_trace_id(0, 0)
        with pytest.raises(RuntimeError, match="boom"):
            with tracing.trace_query(trace_id):
                with tracing.span("execute"):
                    raise RuntimeError("boom")
        names = sorted(r["name"] for r in tracing.records())
        assert names == ["execute", "query"]
        assert tracing.validate_trace_tree(tracing.records()) == []

    def test_record_span_backdates_intervals(self, traced):
        trace_id = tracing.derive_trace_id(0, 3)
        start = tracing.wall_now()
        end = start + 0.25
        record = tracing.record_span(
            "admission-wait",
            start,
            end,
            trace_id=trace_id,
            parent_id=tracing.root_span_id(trace_id),
            query="q3",
        )
        assert record["dur"] == pytest.approx(0.25)
        assert record["attrs"] == {"query": "q3"}
        # Negative intervals clamp rather than corrupting the timeline.
        clamped = tracing.record_span(
            "skewed", end, start, trace_id=trace_id
        )
        assert clamped["dur"] == 0.0

    def test_wall_now_is_monotonic(self):
        stamps = [tracing.wall_now() for _ in range(100)]
        assert stamps == sorted(stamps)


class TestCrossProcessContract:
    """settings/capture/absorb — the pool-worker hop, simulated."""

    def test_payload_round_trip_reparents_worker_spans(self, traced):
        trace_id = tracing.derive_trace_id(0, 0)
        with telemetry.capture() as parent_side:
            with tracing.trace_query(trace_id):
                with tracing.span("execute"):
                    job = telemetry.settings()
        shipped = job["parent"]
        assert shipped == {
            "trace": trace_id,
            "span": tracing.derive_span_id(
                trace_id, tracing.root_span_id(trace_id), "execute", 0
            ),
        }

        # "Worker process": fresh buffer, adopts the shipped context.
        with telemetry.capture(job) as worker:
            with tracing.span("morsel[0]", worker=0):
                pass
            with tracing.span("morsel[1]", worker=1):
                pass
        assert {r["parent"] for r in worker["records"]} == {shipped["span"]}

        # Parent absorbs the worker's records: one well-formed tree.
        telemetry.absorb(parent_side)
        telemetry.absorb(worker)
        merged = tracing.records()
        assert tracing.validate_trace_tree(merged) == []
        assert len(tracing.by_trace(merged)[trace_id]) == 4

    def test_activate_does_not_rerecord_the_adopted_span(self, traced):
        trace_id = tracing.derive_trace_id(0, 0)
        with tracing.activate(trace_id, tracing.root_span_id(trace_id)):
            pass
        assert tracing.records() == []

    def test_absorb_tolerates_empty(self, traced):
        telemetry.absorb(None)
        telemetry.absorb({})
        telemetry.absorb({"metrics": None, "records": None})
        assert tracing.records() == []
        assert tracing.tracks() == []


class TestForestValidation:
    def _forest(self):
        trace_id = tracing.derive_trace_id(0, 0)
        root = tracing.root_span_id(trace_id)
        child = tracing.derive_span_id(trace_id, root, "execute", 0)
        return [
            {"trace": trace_id, "span": root, "parent": None, "name": "query"},
            {"trace": trace_id, "span": child, "parent": root,
             "name": "execute"},
        ]

    def test_well_formed_forest_passes(self):
        assert tracing.validate_trace_tree(self._forest()) == []

    def test_invalid_ids_flagged(self):
        records = self._forest()
        records[0]["trace"] = "nope"
        records[1]["span"] = 12
        problems = tracing.validate_trace_tree(records)
        assert any("invalid trace id" in p for p in problems)
        assert any("invalid span id" in p for p in problems)

    def test_orphan_parent_flagged(self):
        records = self._forest()
        records[1]["parent"] = "f" * 16
        assert any(
            "orphan parent" in p
            for p in tracing.validate_trace_tree(records)
        )

    def test_duplicate_span_id_flagged(self):
        records = self._forest()
        records.append(dict(records[1]))
        assert any(
            "repeats span id" in p
            for p in tracing.validate_trace_tree(records)
        )

    def test_parent_cycle_flagged(self):
        trace_id = tracing.derive_trace_id(0, 0)
        a = tracing.derive_span_id(trace_id, None, "a", 0)
        b = tracing.derive_span_id(trace_id, None, "b", 0)
        records = [
            {"trace": trace_id, "span": a, "parent": b, "name": "a"},
            {"trace": trace_id, "span": b, "parent": a, "name": "b"},
        ]
        assert any(
            "cycle" in p for p in tracing.validate_trace_tree(records)
        )


class TestChromeExport:
    def test_export_round_trips_through_document_validation(self, traced):
        for sequence in range(2):
            trace_id = tracing.derive_trace_id(0, sequence)
            with tracing.trace_query(trace_id, query=f"q{sequence}"):
                with tracing.span("execute"):
                    pass
        document = chrome_trace_document()
        assert validate_chrome_trace(document) == []
        spans = [
            event
            for event in document["traceEvents"]
            if event.get("cat") == "trace" and event.get("ph") == "X"
        ]
        assert len(spans) == 4
        # One swimlane (tid) per trace within the process.
        assert len({event["tid"] for event in spans}) == 2

    def test_document_validation_catches_a_broken_forest(self):
        trace_id = tracing.derive_trace_id(0, 0)
        span_id = tracing.root_span_id(trace_id)
        document = {
            "traceEvents": [
                {
                    "name": "query",
                    "cat": "trace",
                    "ph": "X",
                    "ts": 0.0,
                    "dur": 1.0,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "trace": trace_id,
                        "span": span_id,
                        "parent": "f" * 16,  # orphan
                    },
                }
            ]
        }
        assert any("orphan" in p for p in validate_chrome_trace(document))

    def test_empty_document_is_flagged(self):
        assert validate_chrome_trace({"traceEvents": []}) == [
            "no complete (ph == 'X') events"
        ]


class TestServiceIntegration:
    """The tentpole contract, at test scale: queries through the real
    JoinService produce one well-formed span tree each, and every
    lifecycle event carries its query's trace id."""

    def _spec(self, seed=1):
        return {
            "name": "tiny",
            "workload": {
                "build_m_tuples": 64,
                "probe_m_tuples": 64,
                "scale_divisor": 65536,
                "seed": seed,
            },
            "root": {
                "op": "join",
                "algorithm": "triton",
                "build": {"op": "scan", "relation": "build"},
                "probe": {"op": "scan", "relation": "probe"},
            },
        }

    @staticmethod
    def _under(spans, name):
        """The records beneath the one span called ``name``."""
        (top,) = [r for r in spans if r["name"] == name]
        children = {}
        for record in spans:
            children.setdefault(record["parent"], []).append(record)
        found, stack = [], [top["span"]]
        while stack:
            for child in children.get(stack.pop(), ()):
                found.append(child)
                stack.append(child["span"])
        return found

    def test_traced_service_run_builds_one_tree_per_query(self, traced):
        import os

        from repro.exec import ExecutionConfig, shutdown_pool
        from repro.service.server import JoinService

        service = JoinService(workers=2)
        try:
            handles = [
                service.submit(self._spec(seed)) for seed in (1, 2, 3)
            ]
            pooled = service.submit(
                self._spec(4),
                exec_config=ExecutionConfig(
                    workers=2, force=True, morsel_rows=1024
                ),
            )
            handles.append(pooled)
            for handle in handles:
                handle.result()
            recorded = tracing.events()
        finally:
            service.shutdown(wait=True)
            shutdown_pool()

        records = tracing.records()
        assert tracing.validate_trace_tree(records) == []
        grouped = tracing.by_trace(records)
        trace_ids = {handle.trace_id for handle in handles}
        assert len(trace_ids) == 4
        assert set(grouped) == trace_ids
        for handle in handles:
            names = {r["name"] for r in grouped[handle.trace_id]}
            assert {"query", "compile", "admission-wait", "execute"} <= names
            roots = [
                r for r in grouped[handle.trace_id] if r["parent"] is None
            ]
            assert len(roots) == 1 and roots[0]["name"] == "query"
            assert roots[0]["attrs"]["status"] == "done"
            # The tree reaches the operator, its phases, and a kernel.
            under = {
                r["name"] for r in self._under(grouped[handle.trace_id], "execute")
            }
            assert "Join(triton)" in under
            assert "run:GPU Triton Join" in under
            assert {"functional", "simulate"} <= under
            assert "grouped_bucket_chaining_join" in under

        # The pooled query's morsels ran in worker processes and parent
        # under its execute span like any local span.
        pooled_under = self._under(grouped[pooled.trace_id], "execute")
        morsels = [r for r in pooled_under if r["name"].startswith("morsel[")]
        assert morsels
        assert all(r["pid"] != os.getpid() for r in morsels)

        # Every lifecycle event carries its query's (valid) trace id.
        lifecycle = [
            e for e in recorded if e["type"].startswith("query.")
        ]
        assert len(lifecycle) == 16  # submitted/admitted/started/finished x4
        assert all(tracing.is_valid_id(e.get("trace")) for e in lifecycle)
        assert {e["trace"] for e in lifecycle} == trace_ids

    def test_untraced_service_run_records_nothing(self):
        from repro.service.server import JoinService

        tracing.set_recording(tracing.OFF)
        tracing.reset()
        service = JoinService(workers=1)
        try:
            handle = service.submit(self._spec())
            handle.result()
        finally:
            service.shutdown(wait=True)
        assert handle.trace_id is None
        assert tracing.records() == []

    def test_trace_ids_reproduce_across_runs(self, traced):
        from repro.service.server import JoinService

        def run():
            tracing.reset()
            service = JoinService(workers=1)
            try:
                handles = [
                    service.submit(self._spec(seed)) for seed in (5, 6)
                ]
                for handle in handles:
                    handle.result()
            finally:
                service.shutdown(wait=True)
            return [handle.trace_id for handle in handles]

        first, second = run(), run()
        assert first == second
        assert all(tracing.is_valid_id(tid) for tid in first)


class TestEventTagging:
    def test_events_inside_a_trace_carry_the_context(self, traced):
        trace_id = tracing.derive_trace_id(0, 0)
        with tracing.trace_query(trace_id):
            telemetry.emit_event("run.start", operator="t")
        telemetry.emit_event("run.end", operator="t", seconds=0.1,
                             cache_hit=False)
        recorded = tracing.events()
        tagged = [e for e in recorded if e["type"] == "run.start"]
        untagged = [e for e in recorded if e["type"] == "run.end"]
        assert tagged[0]["trace"] == trace_id
        assert tagged[0]["span"] == tracing.root_span_id(trace_id)
        assert "trace" not in untagged[0]
        assert set(tracing.by_trace(recorded)) == {trace_id, ""}

    def test_sim_tracks_tagged_with_owning_trace(self, traced):
        trace_id = tracing.derive_trace_id(0, 0)
        with tracing.trace_query(trace_id):
            sim_events = export.sim_track_events(
                [("probe", "Join", 0.0, 1.0)],
                pid=10_000_001,
                label="test",
                trace=tracing.current_trace_id(),
            )
        spans = [e for e in sim_events if e.get("ph") == "X"]
        assert spans and all(
            e["args"]["trace"] == trace_id for e in spans
        )
