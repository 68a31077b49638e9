"""Flight recorder: schema, capture/absorb, pool lifecycle events, CLI.

Covers the full event path: in-process emission and validation, the
JSONL sink round-trip, the morsel pool's dispatch/steal/death/respawn/
recovery/stall events (with the deterministic ``die_on`` / ``sleep_on``
hooks), and the bench CLI surface (``--events`` / ``--prom``)
including the multi-process ``--jobs`` hand-off with reused pool
workers.
"""

import json
import os

import pytest

from repro import telemetry
from repro.bench.__main__ import main as bench_main
from repro.exec.morsel import execute_morsel, merge_partials
from repro.exec.pool import (
    _StallWatchdog,
    get_pool,
    shutdown_pool,
)
from repro.telemetry import events, tracing
from tests.test_outofcore import pooled_source, summary


@pytest.fixture(autouse=True)
def _clean_recorder():
    """Every test starts and ends with a disabled, empty recorder."""
    telemetry.set_recording(telemetry.OFF)
    tracing.reset()
    yield
    telemetry.set_recording(telemetry.OFF)
    tracing.reset()


class TestEmit:
    def test_disabled_recorder_is_a_noop(self):
        assert (
            telemetry.emit_event("experiment.start", experiment="x") is None
        )
        assert tracing.events() == []

    def test_envelope_fields(self):
        telemetry.set_recording(telemetry.EVENTS)
        event = telemetry.emit_event("experiment.start", experiment="fig13")
        assert event["v"] == events.EVENT_SCHEMA_VERSION
        assert event["type"] == "experiment.start"
        assert event["pid"] == os.getpid()
        assert event["seq"] == 0
        assert event["ts"] > 0
        assert event["experiment"] == "fig13"
        second = telemetry.emit_event(
            "experiment.end", experiment="fig13", seconds=1.0
        )
        assert second["seq"] == 1

    def test_unknown_type_raises(self):
        telemetry.set_recording(telemetry.EVENTS)
        with pytest.raises(ValueError, match="unknown event type"):
            telemetry.emit_event("no.such.event")

    def test_missing_required_fields_raise(self):
        telemetry.set_recording(telemetry.EVENTS)
        with pytest.raises(ValueError, match="missing fields"):
            telemetry.emit_event("run.end", operator="x")

    def test_every_emission_site_type_is_known(self):
        # The sites wired through the codebase must stay in the schema.
        for required in (
            "experiment.start", "experiment.end", "run.start", "run.end",
            "spill.shard_written", "morsel.dispatched", "morsel.stolen",
            "morsel.recovered", "pool.job.start", "pool.job.end",
            "worker.death", "worker.respawn", "worker.stalled",
            "fault.injected", "ladder.fallback",
        ):
            assert required in events.EVENT_TYPES


class TestForkConsistentClock:
    """Timestamps come from ``tracing.wall_now`` — a monotonic clock on
    a shared per-process-family basis — not ``time.time``, so a system
    clock step between fork and emit cannot scramble merged ordering."""

    def test_emit_is_immune_to_wall_clock_steps(self, monkeypatch):
        import time as time_module

        telemetry.set_recording(telemetry.EVENTS)
        before = telemetry.emit_event("experiment.start", experiment="a")
        # A 1-hour backwards clock step must not move event stamps.
        real_time = time_module.time
        monkeypatch.setattr(
            time_module, "time", lambda: real_time() - 3600.0
        )
        after = telemetry.emit_event(
            "experiment.end", experiment="a", seconds=0.1
        )
        assert after["ts"] >= before["ts"]

    def test_event_and_span_stamps_share_one_basis(self):
        from repro.telemetry import tracing

        telemetry.set_recording(telemetry.EVENTS)
        low = tracing.wall_now()
        event = telemetry.emit_event("experiment.start", experiment="a")
        high = tracing.wall_now()
        assert low <= event["ts"] <= high

    def test_forked_child_stamps_on_the_parent_basis(self):
        import time as time_module

        from repro.telemetry import tracing

        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        read_fd, write_fd = os.pipe()
        before = tracing.wall_now()
        pid = os.fork()
        if pid == 0:  # child
            try:
                # Sabotage time.time in the child: wall_now must not care.
                time_module.time = lambda: 0.0
                os.write(write_fd, repr(tracing.wall_now()).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        try:
            child_stamp = float(os.read(read_fd, 64).decode())
        finally:
            os.close(read_fd)
            os.waitpid(pid, 0)
        after = tracing.wall_now()
        assert before <= child_stamp <= after


class TestDrainAbsorb:
    def test_drain_empties_the_buffer(self):
        telemetry.set_recording(telemetry.EVENTS)
        with telemetry.capture() as envelope:
            telemetry.emit_event("experiment.start", experiment="a")
        assert len(envelope["records"]) == 1
        assert tracing.events() == []

    def test_absorb_keeps_foreign_identity(self):
        telemetry.set_recording(telemetry.EVENTS)
        foreign = [
            {
                "v": events.EVENT_SCHEMA_VERSION,
                "type": "worker.death",
                "ts": 123.0,
                "pid": 99999,
                "seq": 0,
                "worker": 1,
            }
        ]
        telemetry.absorb({"records": foreign})
        telemetry.absorb(None)
        assert tracing.events() == foreign

    def test_double_absorb_is_caught_by_validation(self):
        telemetry.set_recording(telemetry.EVENTS)
        with telemetry.capture() as envelope:
            telemetry.emit_event("experiment.start", experiment="a")
        telemetry.absorb(envelope)
        telemetry.absorb(envelope)
        problems = events.validate_events(tracing.events())
        assert any("absorbed twice" in p for p in problems)


class TestValidation:
    def test_valid_stream_has_no_problems(self):
        telemetry.set_recording(telemetry.EVENTS)
        telemetry.emit_event("experiment.start", experiment="a")
        telemetry.emit_event("run.start", operator="op")
        telemetry.emit_event(
            "run.end", operator="op", seconds=0.1, cache_hit=False
        )
        telemetry.emit_event("experiment.end", experiment="a", seconds=0.2)
        assert events.validate_events(tracing.events()) == []

    def test_bad_envelope_is_reported(self):
        problems = events.validate_events(
            [
                {"type": "worker.death"},
                {"v": 999, "type": "worker.death", "ts": 1.0,
                 "pid": 1, "seq": 0, "worker": 0},
                {"v": 1, "type": "worker.death", "ts": -5,
                 "pid": 1, "seq": 1, "worker": 0},
                {"v": 1, "type": "worker.death", "ts": 1.0,
                 "pid": True, "seq": 2, "worker": 0},
                "not an object",
            ]
        )
        assert len(problems) >= 5

    def test_missing_payload_field_is_reported(self):
        problems = events.validate_events(
            [{"v": 1, "type": "run.end", "ts": 1.0, "pid": 1, "seq": 0,
              "operator": "x"}]
        )
        assert any("missing fields" in p for p in problems)


class TestJsonlSink:
    def test_round_trip_preserves_events_sorted(self, tmp_path):
        telemetry.set_recording(telemetry.EVENTS)
        telemetry.emit_event("experiment.start", experiment="a")
        telemetry.emit_event("experiment.end", experiment="a", seconds=0.5)
        # An absorbed foreign event with an earlier timestamp sorts first.
        telemetry.absorb(
            {"records": [{"v": 1, "type": "worker.death", "ts": 0.5,
                          "pid": 7, "seq": 0, "worker": 2}]}
        )
        path = tmp_path / "events.jsonl"
        written = events.write_jsonl(path, tracing.events())
        assert written == 3
        records = events.read_jsonl(path)
        assert [r["type"] for r in records] == [
            "worker.death", "experiment.start", "experiment.end",
        ]
        assert events.validate_events(records) == []

    def test_read_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="2: not JSON"):
            events.read_jsonl(path)

    def test_counts_by_type(self):
        telemetry.set_recording(telemetry.EVENTS)
        telemetry.emit_event("run.start", operator="a")
        telemetry.emit_event("run.start", operator="b")
        telemetry.emit_event("experiment.start", experiment="x")
        assert events.counts_by_type(tracing.events()) == {
            "experiment.start": 1,
            "run.start": 2,
        }


class TestStallWatchdog:
    def test_flags_each_pending_worker_once(self):
        watchdog = _StallWatchdog(stall_after=1.0)
        assert watchdog.observe(b"state0", 0.0, {0, 1}) == []
        assert watchdog.observe(b"state0", 0.5, {0, 1}) == []
        flagged = watchdog.observe(b"state0", 1.5, {0, 1})
        assert [worker for worker, _ in flagged] == [0, 1]
        assert all(silent >= 1.0 for _, silent in flagged)
        # Already flagged: silence continues but no re-flagging.
        assert watchdog.observe(b"state0", 2.5, {0, 1}) == []

    def test_progress_resets_the_clock_and_flags(self):
        watchdog = _StallWatchdog(stall_after=1.0)
        watchdog.observe(b"a", 0.0, {0})
        assert watchdog.observe(b"a", 1.5, {0}) == [(0, 1.5)]
        # The control block moved: stall over, flag set cleared.
        assert watchdog.observe(b"b", 2.0, {0}) == []
        assert watchdog.observe(b"b", 2.5, {0}) == []
        assert watchdog.observe(b"b", 3.5, {0}) == [(0, 1.5)]


class TestPoolEvents:
    def test_steal_death_recovery_and_respawn_events(self, small_workload):
        """Two faulted pool jobs must leave a full lifecycle trail.

        Job 1 parks worker 0 on its first morsel (``sleep_on``), so
        worker 1 drains its own range and then *steals* the rest of
        worker 0's — a deterministic steal. Job 2 kills worker 0 on its
        first claim (``die_on``) — a deterministic death, inline
        recovery, and respawn. Both joins must still merge to the exact
        in-memory reference, and the combined event stream must be
        schema-valid with every lifecycle type present.
        """
        from repro.join.batched import batched_radix_join

        reference = batched_radix_join(
            small_workload.build, small_workload.probe, 6, 4
        )
        source, morsels = pooled_source(small_workload, 2048)
        assert len(morsels) >= 4

        def recover(morsel):
            return execute_morsel(source, morsel)

        telemetry.set_recording(telemetry.EVENTS)
        try:
            pool = get_pool(2)
            # Job 1: worker 0 parks on its first morsel; worker 1
            # finishes its own range and steals from worker 0's.
            stolen_run = pool.run(
                source,
                morsels,
                recover,
                sleep_on={0: (morsels[0].index, 1.0)},
            )
            assert stolen_run.steals >= 1
            assert summary(merge_partials(stolen_run.partials)) == summary(
                reference
            )
            # Job 2: worker 0 dies on its first claim; the parent must
            # recover the hole inline and respawn the worker.
            died_run = pool.run(
                source, morsels, recover, die_on={0: morsels[0].index}
            )
            assert died_run.deaths == 1
            assert died_run.recovered >= 1
            assert summary(merge_partials(died_run.partials)) == summary(
                reference
            )
        finally:
            source.close()
            shutdown_pool()

        recorded = tracing.events()
        assert events.validate_events(recorded) == []
        counts = events.counts_by_type(recorded)
        assert counts["pool.job.start"] == 2
        assert counts["pool.job.end"] == 2
        assert counts["morsel.stolen"] >= 1
        assert counts["worker.death"] >= 1
        assert counts["worker.respawn"] >= 1
        assert counts["morsel.recovered"] >= 1
        # Dispatches come from the worker processes (foreign pids),
        # the lifecycle events from the parent: the drain/absorb
        # contract carried both into one stream.
        dispatch_pids = {
            e["pid"] for e in recorded if e["type"] == "morsel.dispatched"
        }
        assert dispatch_pids and os.getpid() not in dispatch_pids
        stolen = [e for e in recorded if e["type"] == "morsel.stolen"]
        assert all(e["victim"] in (0, 1) for e in stolen)

    def test_watchdog_flags_parked_worker(self, small_workload):
        source, morsels = pooled_source(small_workload, 2048)

        def recover(morsel):
            return execute_morsel(source, morsel)

        telemetry.set_recording(telemetry.EVENTS)
        try:
            pool = get_pool(2)
            result = pool.run(
                source,
                morsels,
                recover,
                stall_after=0.5,
                # Park worker 0 well past the stall threshold. Worker 1
                # drains and steals everything else within a poll or
                # two, after which the control block goes still — the
                # silence the watchdog must flag.
                sleep_on={0: (morsels[0].index, 1.6)},
            )
            assert result.stalls >= 1
            assert result.deaths == 0
        finally:
            source.close()
            shutdown_pool()
        stalled = [
            e for e in tracing.events() if e["type"] == "worker.stalled"
        ]
        assert stalled
        assert all(e["silent_seconds"] >= 0.5 for e in stalled)
        assert events.validate_events(tracing.events()) == []


SMALL_ARGS = ["--sizes", "128", "--divisor", "1048576"]


class TestBenchCli:
    def test_events_flag_writes_schema_valid_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        assert bench_main(["fig14", *SMALL_ARGS, "--events", str(path)]) == 0
        records = events.read_jsonl(path)
        assert events.validate_events(records) == []
        counts = events.counts_by_type(records)
        assert counts["experiment.start"] == 1
        assert counts["experiment.end"] == 1
        assert counts["run.start"] == counts["run.end"] >= 1
        ends = [r for r in records if r["type"] == "run.end"]
        assert all(isinstance(r["cache_hit"], bool) for r in ends)
        # The CLI's finally block left recording off and the buffer empty.
        assert telemetry.recording() == telemetry.OFF
        assert tracing.events() == []

    def test_jobs_round_trip_with_reused_workers(self, tmp_path, monkeypatch):
        """4 experiments over 2 workers: every worker is reused, and each
        worker envelope must be absorbed exactly once — no duplicate
        (pid, seq) event pairs, no span id twice within a trace, the
        serial run's simulated tracks, and the serial run's counters."""
        import repro.bench.__main__ as bench_mod
        from repro.telemetry.export import SIM_PID_BASE, validate_chrome_trace

        names = ["fig01", "fig04", "fig14", "fig15"]
        monkeypatch.setattr(
            bench_mod,
            "ALL_EXPERIMENTS",
            {name: bench_mod.ALL_EXPERIMENTS[name] for name in names},
        )

        def run(jobs):
            telemetry.registry.reset()
            out = {
                kind: tmp_path / f"{kind}{jobs}.json"
                for kind in ("events", "trace", "metrics")
            }
            assert (
                bench_main(
                    ["all", "--jobs", jobs, *SMALL_ARGS, "--no-cache"]
                    + [arg for kind, path in out.items()
                       for arg in (f"--{kind}", str(path))]
                )
                == 0
            )
            return {
                "events": events.read_jsonl(out["events"]),
                "trace": json.loads(out["trace"].read_text()),
                "counters": json.loads(out["metrics"].read_text())["counters"],
            }

        serial, parallel = run("1"), run("2")
        records = parallel["events"]
        assert events.validate_events(records) == []
        counts = events.counts_by_type(records)
        assert counts["experiment.start"] == len(names)
        assert counts["experiment.end"] == len(names)
        pids = {r["pid"] for r in records}
        assert 1 < len(pids) <= 2

        document = parallel["trace"]
        assert validate_chrome_trace(document) == []
        spans = [
            e for e in document["traceEvents"]
            if e.get("cat") == "trace" and e.get("ph") == "X"
        ]
        keys = [(e["args"]["trace"], e["args"]["span"]) for e in spans]
        assert len(keys) == len(set(keys))
        assert sorted(
            e["name"] for e in spans if e["args"]["parent"] is None
        ) == sorted(f"experiment:{name}" for name in names)
        assert {e["pid"] for e in spans} == pids

        def sim_tracks(document):
            return sorted(
                e["args"]["name"]
                for e in document["traceEvents"]
                if e.get("name") == "process_name"
                and e["pid"] >= SIM_PID_BASE
            )

        assert sim_tracks(document)
        assert sim_tracks(document) == sim_tracks(serial["trace"])
        assert parallel["counters"] == serial["counters"]

    def test_prom_flag_writes_valid_exposition(self, tmp_path):
        from repro.telemetry import prometheus

        path = tmp_path / "out.prom"
        assert bench_main(["fig14", *SMALL_ARGS, "--prom", str(path)]) == 0
        text = path.read_text()
        assert prometheus.validate_prometheus(text) == []
        samples = prometheus.parse_prometheus(text)
        assert samples["repro_bench_experiment_seconds_count"] >= 1
        assert any(
            key.startswith("repro_bench_experiment_seconds_bucket")
            for key in samples
        )

    def test_events_and_trace_compose(self, tmp_path):
        """--events + --trace: recorder instants land in the Chrome
        trace and the trace still validates."""
        from repro.telemetry.export import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        events_path = tmp_path / "events.jsonl"
        assert (
            bench_main(
                [
                    "ext_robustness", *SMALL_ARGS,
                    "--trace", str(trace_path),
                    "--events", str(events_path),
                ]
            )
            == 0
        )
        document = json.loads(trace_path.read_text())
        assert validate_chrome_trace(document) == []
        instants = [
            e
            for e in document["traceEvents"]
            if e.get("ph") == "i" and e.get("cat") == "recorder"
        ]
        assert instants, "recorder instants missing from the trace"
        # ext_robustness injects faults, so their instants must be there.
        assert any(e["name"] == "fault.injected" for e in instants)
        assert all(e["s"] == "p" and e["ts"] >= 0 for e in instants)
        # Every event, experiment.start/end included, falls inside the
        # experiment's trace root, so by_trace slices the sweep whole.
        records = events.read_jsonl(events_path)
        trace_id = tracing.derive_trace_id("experiment", "ext_robustness")
        root = tracing.root_span_id(trace_id, "experiment:ext_robustness")
        assert set(tracing.by_trace(records)) == {trace_id}
        bounds = [r for r in records if r["type"].startswith("experiment.")]
        assert [r["span"] for r in bounds] == [root, root]

    def test_trace_alone_gains_recorder_instants(self, tmp_path):
        """--trace records events too, so the Chrome trace carries the
        fault instants without --events."""
        from repro.telemetry.export import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        assert bench_main(
            ["ext_robustness", *SMALL_ARGS, "--trace", str(trace_path)]
        ) == 0
        document = json.loads(trace_path.read_text())
        assert validate_chrome_trace(document) == []
        assert any(
            e.get("cat") == "recorder" and e["name"] == "fault.injected"
            for e in document["traceEvents"]
        )
