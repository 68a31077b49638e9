"""The recorded stream of one service query, pinned end to end.

One query runs through the service and the morsel pool (two worker
processes, forced out-of-core) under the NVLink brown-out fault plan,
so the stream holds every kind of record the host emits: service
lifecycle events, the operator run, an injected fault, the pool job,
worker-side morsel events, and the spans around them. The test pins
what a reader of ``events.jsonl`` or of the Chrome trace sees: the
per-type counts, each type's keys, that worker records come home
exactly once, and that every traced event points at a recorded span.
"""

import os

import pytest

from repro import faults, telemetry
from repro.exec import ExecutionConfig, shutdown_pool
from repro.service.server import JoinService
from repro.telemetry import events, tracing

PLAN = "tests/data/fault_plans/nvlink_brownout.json"

#: Large enough at this divisor to split into two morsels.
SPEC = {
    "name": "pooled",
    "workload": {
        "build_m_tuples": 64,
        "probe_m_tuples": 64,
        "scale_divisor": 1024,
        "seed": 1,
    },
    "root": {
        "op": "join",
        "algorithm": "triton",
        "build": {"op": "scan", "relation": "build"},
        "probe": {"op": "scan", "relation": "probe"},
    },
}

#: Events per type; ``morsel.stolen`` depends on which worker claims
#: first and is checked against the dispatch flags instead.
COUNTS = {
    "fault.injected": 1,
    "morsel.dispatched": 2,
    "pool.job.end": 1,
    "pool.job.start": 1,
    "query.admitted": 1,
    "query.finished": 1,
    "query.started": 1,
    "query.submitted": 1,
    "run.end": 1,
    "run.start": 1,
}

#: Each type's payload keys (the query tag included).
PAYLOAD = {
    "fault.injected": {"detail", "kind", "query", "target"},
    "morsel.dispatched": {"morsel", "query", "stolen", "worker"},
    "morsel.stolen": {"morsel", "query", "victim", "worker"},
    "pool.job.end": {"job", "query", "seconds"},
    "pool.job.start": {"job", "morsels", "query", "workers"},
    "query.admitted": {"query"},
    "query.finished": {"query", "seconds", "status"},
    "query.started": {"query", "worker"},
    "query.submitted": {"estimate_bytes", "plan", "priority", "query"},
    "run.end": {"cache_hit", "operator", "query", "seconds"},
    "run.start": {"operator", "query"},
}

ENVELOPE = {"v", "type", "ts", "pid", "seq"}


def _stop() -> None:
    telemetry.set_recording(telemetry.OFF)
    telemetry.reset()


@pytest.fixture(autouse=True)
def _clean():
    _stop()
    yield
    _stop()


def _run_query(spans: bool):
    """Run the query under the setting; returns (events, span records)."""
    telemetry.set_recording(telemetry.SPANS if spans else telemetry.EVENTS)
    service = JoinService(workers=1)
    try:
        handle = service.submit(
            SPEC,
            fault_plan=faults.FaultPlan.load(PLAN),
            exec_config=ExecutionConfig(workers=2, force=True),
        )
        handle.result()
    finally:
        service.shutdown(wait=True)
        shutdown_pool()
    return tracing.events(), tracing.records()


def _check_counts_and_keys(recorded, extra_keys):
    counts = events.counts_by_type(recorded)
    stolen = counts.pop("morsel.stolen", 0)
    assert counts == COUNTS
    flagged = [e for e in recorded if e["type"] == "morsel.dispatched"]
    assert stolen == sum(bool(e["stolen"]) for e in flagged)
    for event in recorded:
        expected = ENVELOPE | extra_keys | PAYLOAD[event["type"]]
        assert set(event) == expected, event["type"]
    assert events.validate_events(recorded) == []


def test_traced_stream_is_pinned():
    recorded, spans = _run_query(spans=True)
    _check_counts_and_keys(recorded, {"trace", "span"})

    # Worker records come home exactly once: one dispatch per morsel,
    # each from a pool process, and no (pid, seq) pair twice.
    workers = [e for e in recorded if e["pid"] != os.getpid()]
    morsel_types = {"morsel.dispatched", "morsel.stolen"}
    assert {e["type"] for e in workers} <= morsel_types
    assert len(workers) == sum(
        e["type"] in morsel_types for e in recorded
    )
    assert len({(e["pid"], e["seq"]) for e in recorded}) == len(recorded)
    assert sorted(
        e["morsel"] for e in workers if e["type"] == "morsel.dispatched"
    ) == [0, 1]

    assert tracing.validate_trace_tree(spans) == []
    assert any(r["name"].startswith("morsel[") for r in spans)
    recorded_spans = {(r["trace"], r["span"]) for r in spans}
    for event in recorded:
        assert (event["trace"], event["span"]) in recorded_spans, event


def test_events_only_stream_carries_no_trace():
    recorded, spans = _run_query(spans=False)
    _check_counts_and_keys(recorded, set())
    assert spans == []
    assert tracing.tracks() == []
    assert not any("trace" in e or "span" in e for e in recorded)
