"""Exporters: Chrome-trace (Perfetto) JSON and metrics dumps.

This is the **one trace-event writer in the codebase**: span records
(from this process and absorbed from workers), simulated virtual-time
timelines (:class:`repro.sim.trace.TraceEntry` lists), and flight-
recorder instants all serialize through the same helpers, so
``python -m repro.bench ... --trace`` and ``tools/load_gen.py
--trace-out`` produce files a single viewer opens side by side.

The format is the Chrome trace-event JSON object form
(``{"traceEvents": [...]}``) that chrome://tracing and
https://ui.perfetto.dev load directly:

- spans are complete events (``ph: "X"``, ``cat: "trace"``) with
  microsecond ``ts``/``dur`` relative to the earliest span, one
  Perfetto process per OS process and one thread per trace within it,
  each carrying ``args.trace``/``args.span``/``args.parent`` for tree
  reconstruction;
- each captured simulated execution becomes its **own process track**
  (pid ``SIM_PID_BASE + k``, ``cat: "sim"``) whose threads are the
  simulation's phases and whose timestamps are *virtual* microseconds —
  a paper figure's simulated breakdown opens next to its real host cost.

:func:`validate_chrome_trace` is the structural checker the tests (and
CI) run over emitted files, span-forest checks included.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence

from repro.telemetry import metrics as _metrics
from repro.telemetry import tracing as _tracing
from repro.telemetry.events import INSTANT_EVENT_TYPES

#: Virtual-time (simulated) tracks get pids in their own range so a
#: viewer groups them apart from real host processes.
SIM_PID_BASE = 10_000_000

#: Floats survive JSON round trips; sub-0.001 µs jitter does not matter.
_TS_DECIMALS = 3


def _us(seconds: float) -> float:
    return round(seconds * 1e6, _TS_DECIMALS)


def _metadata(pid: int, name: str, value: str, tid: int = 0) -> dict:
    return {
        "ph": "M",
        "name": name,
        "pid": pid,
        "tid": tid,
        "args": {"name": value},
    }


def _ordered(span_records: Sequence[dict]) -> List[dict]:
    """Records by start time, parents before the children they enclose."""
    return sorted(span_records, key=lambda r: (r["ts"], -r["dur"], r["pid"]))


def span_events(span_records: Sequence[dict], epoch: float) -> List[dict]:
    """Complete events (``cat: "trace"``) for span records.

    Within one process, each trace gets its own thread track (tid
    assigned by first appearance, named after the trace id), so a
    query's spans render as one swimlane per process it touched —
    service pid and pool-worker pids side by side. ``epoch`` is the
    wall-clock instant rendered as ``ts == 0``.
    """
    events: List[dict] = []
    tids: Dict[tuple, int] = {}
    for record in _ordered(span_records):
        pid, trace_id = record["pid"], record["trace"]
        tid = tids.get((pid, trace_id))
        if tid is None:
            tid = tids[(pid, trace_id)] = 1 + sum(p == pid for p, _ in tids)
            if tid == 1:
                events.append(
                    _metadata(pid, "process_name", f"traced pid {pid}")
                )
            events.append(
                _metadata(pid, "thread_name", f"trace {trace_id}", tid=tid)
            )
        events.append(
            {
                "name": record["name"],
                "cat": "trace",
                "ph": "X",
                "ts": _us(record["ts"] - epoch),
                "dur": _us(record["dur"]),
                "pid": pid,
                "tid": tid,
                "args": {
                    **record.get("attrs", {}),
                    "trace": trace_id,
                    "span": record["span"],
                    "parent": record["parent"],
                },
            }
        )
    return events


def sim_track_events(
    entries: Sequence[tuple],
    pid: int,
    label: str,
    instants: Sequence[tuple] = (),
    counters: Sequence[tuple] = (),
    trace: Optional[str] = None,
) -> List[dict]:
    """Events for one virtual-time track.

    ``entries`` are ``(name, phase, start_s, end_s)`` tuples. Each phase
    becomes a thread of the track's process (phases overlap each other
    in simulated time — the Fig. 11 pipeline — but entries *within* a
    phase are sequential, so per-phase threads render cleanly).
    ``instants`` are ``(time_s, kind, target, detail)`` tuples — injected
    fault events — rendered as process-scoped instant events (``ph: "i"``)
    pinned to the simulated timeline.
    ``counters`` are ``(resource_name, [(time_s, utilization), ...])``
    pairs — per-resource occupancy series — rendered as Perfetto counter
    tracks (``ph: "C"``), one named counter per resource.
    ``trace`` is the id of the trace the track was captured under; it
    lands in every complete event's ``args`` so
    :func:`validate_chrome_trace` (and any viewer query) can tie the
    simulated resources back to the trace's span tree.
    """
    events: List[dict] = [_metadata(pid, "process_name", f"sim: {label}")]
    tids: Dict[str, int] = {}
    for name, phase, start, end in entries:
        tid = tids.get(phase)
        if tid is None:
            tid = tids[phase] = len(tids) + 1
            events.append(_metadata(pid, "thread_name", phase, tid=tid))
        args = {"phase": phase, "virtual_time": True}
        if trace is not None:
            args["trace"] = trace
        events.append(
            {
                "name": name,
                "cat": "sim",
                "ph": "X",
                "ts": _us(start),
                "dur": _us(max(end - start, 0.0)),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    for time_s, kind, target, detail in instants:
        events.append(
            {
                "name": f"fault:{kind}",
                "cat": "sim",
                "ph": "i",
                "s": "p",
                "ts": _us(time_s),
                "pid": pid,
                "tid": 0,
                "args": {"target": target, "detail": detail},
            }
        )
    for resource, samples in counters:
        for time_s, value in samples:
            events.append(
                {
                    "name": f"util:{resource}",
                    "cat": "sim",
                    "ph": "C",
                    "ts": _us(time_s),
                    "pid": pid,
                    "tid": 0,
                    "args": {"utilization": value},
                }
            )
    return events


def recorder_instant_events(
    wall_epoch: Optional[float] = None,
) -> List[dict]:
    """Buffered events of an ``INSTANT_EVENT_TYPES`` type (faults,
    worker deaths/respawns/stalls, ladder fallbacks, morsel recoveries)
    as process-scoped Chrome-trace instants (``ph: "i"``) on the
    emitting pid, their payload and ``trace``/``span`` in ``args``.
    ``wall_epoch`` (the earliest span's, normally) is rendered as t=0;
    without one the earliest instant is.
    """
    records = [
        e for e in _tracing.events() if e["type"] in INSTANT_EVENT_TYPES
    ]
    if not records:
        return []
    if wall_epoch is None:
        wall_epoch = min(e["ts"] for e in records)
    rendered = []
    for event in records:
        args = {
            key: value
            for key, value in event.items()
            if key not in ("v", "type", "ts", "pid", "seq")
        }
        rendered.append(
            {
                "name": event["type"],
                "cat": "recorder",
                "ph": "i",
                "s": "p",
                "ts": _us(max(event["ts"] - wall_epoch, 0.0)),
                "pid": event["pid"],
                "tid": 0,
                "args": args,
            }
        )
    return rendered


def chrome_trace_events() -> List[dict]:
    """All trace events for this process's buffered records.

    Spans, simulated tracks, and recorder instants share one wall-clock
    epoch (the earliest span), so a query's service spans, pool-worker
    morsel spans, and recorder instants line up on one timeline.
    """
    span_records = _tracing.records()
    epoch = min((r["ts"] for r in span_records), default=None)
    events = span_events(span_records, epoch)
    for index, track in enumerate(_tracing.tracks()):
        events.extend(
            sim_track_events(
                track["entries"],
                SIM_PID_BASE + index,
                track["label"],
                instants=track.get("instants", ()),
                counters=track.get("counters", ()),
                trace=track.get("trace"),
            )
        )
    events.extend(recorder_instant_events(epoch))
    return events


def chrome_trace_document() -> dict:
    """The JSON object form viewers load, over the buffered records."""
    return {
        "traceEvents": chrome_trace_events(),
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.telemetry"},
    }


def write_chrome_trace(path) -> dict:
    """Serialize the trace document to ``path``; returns the document."""
    document = chrome_trace_document()
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return document


def metrics_document(registry: Optional[_metrics.MetricsRegistry] = None) -> dict:
    """JSON-serializable dump of the metrics registry."""
    return (registry or _metrics.registry).snapshot()


def write_metrics(path, registry: Optional[_metrics.MetricsRegistry] = None) -> dict:
    document = metrics_document(registry)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


# -- validation ----------------------------------------------------------------


def _counter_problems(i: int, event: dict) -> List[str]:
    """Problems with one counter (``ph: "C"``) event.

    A counter sample is a named series value: every entry in ``args``
    must be a finite, non-negative number (a NaN or negative utilization
    sample means the occupancy bookkeeping went wrong, not the viewer).
    """
    name = event.get("name")
    missing = [key for key in _COUNTER_REQUIRED_KEYS if key not in event]
    if missing:
        return [f"counter event {i} ({name!r}) missing {missing}"]
    problems: List[str] = []
    if event["ts"] < 0:
        problems.append(f"counter event {i} ({name!r}) has negative ts")
    args = event["args"]
    if not isinstance(args, dict) or not args:
        problems.append(f"counter event {i} ({name!r}) has no sample values")
        return problems
    for series, value in args.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(
                f"counter event {i} ({name!r}) sample {series!r} "
                f"is not numeric: {value!r}"
            )
        elif math.isnan(value) or math.isinf(value):
            problems.append(
                f"counter event {i} ({name!r}) sample {series!r} "
                f"is not finite"
            )
        elif value < 0:
            problems.append(
                f"counter event {i} ({name!r}) sample {series!r} "
                f"is negative: {value!r}"
            )
    return problems

def _instant_problems(i: int, event: dict) -> List[str]:
    """Problems with one instant (``ph: "i"``) event.

    Instants are the pins on the timeline — injected faults, worker
    deaths, stalls, ladder fallbacks. Each needs a name, a pid, a
    non-negative timestamp, and a valid scope (``s`` in g/p/t) so
    Perfetto renders it instead of silently dropping it.
    """
    name = event.get("name")
    missing = [key for key in _INSTANT_REQUIRED_KEYS if key not in event]
    if missing:
        return [f"instant event {i} ({name!r}) missing {missing}"]
    problems: List[str] = []
    if event["ts"] < 0:
        problems.append(f"instant event {i} ({name!r}) has negative ts")
    scope = event.get("s", "t")
    if scope not in _INSTANT_SCOPES:
        problems.append(
            f"instant event {i} ({name!r}) has invalid scope {scope!r}"
        )
    return problems


_REQUIRED_KEYS = ("ph", "ts", "dur", "pid", "tid", "name")
_COUNTER_REQUIRED_KEYS = ("ph", "ts", "pid", "name", "args")
_INSTANT_REQUIRED_KEYS = ("ph", "ts", "pid", "name")
#: Valid instant scopes: global, process, thread.
_INSTANT_SCOPES = ("g", "p", "t")
#: Slack for float µs round-tripping when checking containment.
_NEST_EPSILON_US = 0.01


def validate_chrome_trace(document) -> List[str]:
    """Structural problems in a Chrome trace document ([] = well-formed).

    Checks the object form, the required keys on every complete event,
    non-negative timestamps/durations, counter (``ph: "C"``) events with
    finite non-negative numeric samples, instant (``ph: "i"``) events
    with a name, pid, non-negative timestamp, and valid scope, and the
    span forest: spans nest properly per ``(pid, tid)`` (one trace's
    spans in one process are strictly nested; simulated tracks
    legitimately overlap — concurrent *phases* are the point of the
    Fig. 11 pipeline), the :func:`~repro.telemetry.tracing.
    validate_trace_tree` checks hold over the spans' ``args``, every
    ``cat: "sim"`` event tagged with a trace id tags one that has spans
    in the document, and every recorder instant tagged with a trace
    names a span of that trace in the document.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["document has no traceEvents list"]
    complete, recorder = [], []
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        if event.get("ph") == "C":
            problems.extend(_counter_problems(i, event))
            continue
        if event.get("ph") == "i":
            problems.extend(_instant_problems(i, event))
            if event.get("cat") == "recorder":
                recorder.append(event)
            continue
        if event.get("ph") != "X":
            continue
        missing = [key for key in _REQUIRED_KEYS if key not in event]
        if missing:
            problems.append(f"event {i} ({event.get('name')!r}) missing {missing}")
            continue
        if event["ts"] < 0:
            problems.append(f"event {i} ({event['name']!r}) has negative ts")
        if event["dur"] < 0:
            problems.append(f"event {i} ({event['name']!r}) has negative dur")
        complete.append(event)
    if not complete:
        problems.append("no complete (ph == 'X') events")
        return problems

    spans = [event for event in complete if event.get("cat") == "trace"]
    by_track: Dict[tuple, List[dict]] = {}
    for event in spans:
        by_track.setdefault((event["pid"], event["tid"]), []).append(event)
    for (pid, tid), track in by_track.items():
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[float] = []
        for event in track:
            start, end = event["ts"], event["ts"] + event["dur"]
            while stack and stack[-1] <= start + _NEST_EPSILON_US:
                stack.pop()
            if stack and end > stack[-1] + _NEST_EPSILON_US:
                problems.append(
                    f"span {event['name']!r} on pid {pid}/tid {tid} "
                    f"overlaps its enclosing span without nesting"
                )
            stack.append(end)

    span_records = [
        {**(event.get("args") or {}), "name": event["name"]} for event in spans
    ]
    problems += _tracing.validate_trace_tree(span_records)
    traces = {record.get("trace") for record in span_records}
    for event in complete:
        trace_id = (event.get("args") or {}).get("trace")
        if event.get("cat") == "sim" and trace_id not in (None, *traces):
            problems.append(
                f"sim event {event['name']!r} tagged with trace "
                f"{trace_id} that has no spans in the document"
            )
    recorded = {(r.get("trace"), r.get("span")) for r in span_records}
    for event in recorder:
        args = event.get("args") or {}
        named = args.get("trace"), args.get("span")
        if named[0] is not None and named not in recorded:
            problems.append(
                f"recorder instant {event.get('name')!r} names span "
                f"{named[1]} of trace {named[0]}, which the document "
                "does not record"
            )
    return problems
