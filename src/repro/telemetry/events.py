"""The flight recorder: a versioned, append-only structured event stream.

Spans answer "how long did this take"; the metrics registry answers
"how many / how much". The flight recorder answers **"what happened,
when, in which process"** — the discrete lifecycle facts a fleet
coordinator watches live and a post-mortem replays: experiment and
operator-run boundaries, spill shards hitting disk, morsels dispatched
and stolen, workers dying, respawning, stalling, faults firing, the
degradation ladder falling a rung.

Design mirrors the span layer:

- **off by default** — :func:`emit` is one module-flag check when
  disabled, so the emission sites live permanently in the harness,
  operators, fault injector, and pool without a perf tax. The flag is
  separate from the span flag: ``--events`` and ``--trace`` are set
  independently;
- **one hand-off across processes** — a worker's events travel home in
  the :func:`repro.telemetry.capture` envelope (drained once, so a
  reused pool process never re-reports an event) and the parent
  :func:`repro.telemetry.absorb`\\ s them with the worker's spans and
  metrics;
- **versioned schema** — every event envelope carries
  ``v`` (:data:`EVENT_SCHEMA_VERSION`), ``type``, ``ts`` (Unix wall
  clock on the fork-consistent basis of :func:`repro.telemetry.tracing.
  wall_now`, so events from many processes order globally), ``pid``,
  and a per-process ``seq``; inside a trace, the envelope
  additionally carries the ambient ``trace``/``span`` ids, so
  :func:`by_trace` splits a merged log per query trace the way
  :func:`by_query` splits it per query id. :data:`EVENT_TYPES` names
  each type's required payload fields and :func:`validate_events` is
  the structural gate CI runs over emitted logs;
- **JSONL sink** — :func:`write_jsonl` / :func:`read_jsonl`, one event
  per line sorted by ``(ts, pid, seq)``; ``python -m repro.bench ...
  --events out.jsonl`` is the CLI surface and ``tools/bench_diff.py``
  diffs two logs per event type.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Iterable, List, Optional, Sequence

from repro import context as _query_context
from repro.telemetry import tracing as _tracing

#: Bumped whenever an event type's payload fields change shape.
EVENT_SCHEMA_VERSION = 1

#: Every known event type and its required payload fields. The envelope
#: fields (``v``/``type``/``ts``/``pid``/``seq``) are implicit; extra
#: payload fields are allowed (the schema names the floor, not the
#: ceiling).
EVENT_TYPES: Dict[str, tuple] = {
    # bench harness
    "experiment.start": ("experiment",),
    "experiment.end": ("experiment", "seconds"),
    # join operators (emitted by the run wrapper in repro.join.base)
    "run.start": ("operator",),
    "run.end": ("operator", "seconds", "cache_hit"),
    # out-of-core exec layer
    "spill.shard_written": ("relation", "shards", "bytes"),
    "morsel.dispatched": ("worker", "morsel", "stolen"),
    "morsel.stolen": ("worker", "morsel", "victim"),
    "morsel.recovered": ("morsel",),
    "pool.job.start": ("job", "workers", "morsels"),
    "pool.job.end": ("job", "seconds"),
    "worker.death": ("worker",),
    "worker.respawn": ("worker",),
    "worker.stalled": ("worker", "silent_seconds"),
    # fault injection + degradation ladder
    "fault.injected": ("kind", "target"),
    "ladder.fallback": ("rung", "error"),
    # concurrent join service (repro.service)
    "query.submitted": ("query", "plan"),
    "query.admitted": ("query",),
    "query.rejected": ("query", "reason"),
    "query.started": ("query", "worker"),
    "query.finished": ("query", "seconds", "status"),
}

#: Event types rendered as instants on the Chrome-trace export (the
#: rest are either already visible as spans or too dense to pin).
INSTANT_EVENT_TYPES = frozenset(
    {
        "fault.injected",
        "worker.death",
        "worker.respawn",
        "worker.stalled",
        "ladder.fallback",
        "morsel.recovered",
        "query.rejected",
    }
)

_enabled = False
_events: List[dict] = []
_seq = 0

#: Guards the buffer and the per-process ``seq`` counter. The join
#: service emits from several worker threads at once; without the lock
#: two threads could draw the same ``seq`` (a duplicate ``(pid, seq)``
#: pair — exactly what :func:`validate_events` rejects).
_lock = threading.Lock()

def enable() -> None:
    """Turn the recorder on (events buffer in-process until drained)."""
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def enabled() -> bool:
    return _enabled


def reset() -> None:
    """Drop buffered events and restart the per-process sequence."""
    global _seq
    with _lock:
        _events.clear()
        _seq = 0


def emit(event_type: str, **fields) -> Optional[dict]:
    """Record one event; no-op (returning ``None``) while disabled.

    Unknown types and missing required fields raise immediately — an
    emission site that drifts from :data:`EVENT_TYPES` is a bug the
    tests should see, not a malformed line in a log someone tails at
    3am. The query context's tags (:mod:`repro.context`) merge in
    underneath the explicit fields and count toward a type's required
    fields, so the join service tags a query once (``query=<id>``)
    instead of threading the id to every emission site.
    """
    if not _enabled:
        return None
    required = EVENT_TYPES.get(event_type)
    if required is None:
        raise ValueError(f"unknown event type {event_type!r}")
    ambient = _query_context.current().tags
    if ambient:
        fields = {**ambient, **fields}
    missing = [name for name in required if name not in fields]
    if missing:
        raise ValueError(f"event {event_type!r} missing fields {missing}")
    global _seq
    event = {
        "v": EVENT_SCHEMA_VERSION,
        "type": event_type,
        # wall_now: time.time() values on a per-process-family monotonic
        # basis — forked pool workers inherit the parent's offset, so
        # merged (ts, pid, seq) ordering cannot be skewed by a system
        # clock step between fork and emit.
        "ts": _tracing.wall_now(),
        "pid": os.getpid(),
    }
    trace_context = _tracing.current()
    if trace_context is not None:
        event["trace"] = trace_context.trace_id
        event["span"] = trace_context.span_id
    event.update(fields)
    with _lock:
        event["seq"] = _seq
        _seq += 1
        _events.append(event)
    return event


def events() -> List[dict]:
    """A copy of the buffered events (emission order)."""
    with _lock:
        return list(_events)


def drain() -> List[dict]:
    """Remove and return the buffered events (see
    :func:`repro.telemetry.capture`)."""
    with _lock:
        drained = list(_events)
        _events.clear()
    return drained


def absorb(foreign: Optional[Iterable[dict]]) -> None:
    """Fold a worker's drained events into this process's buffer.

    Absorbed events keep their origin ``pid``/``seq``/``ts`` — the
    parent is a carrier, not an editor.
    """
    with _lock:
        _events.extend(foreign or ())


# -- JSONL sink -----------------------------------------------------------------


def sorted_events(records: Optional[Sequence[dict]] = None) -> List[dict]:
    """Events ordered by ``(ts, pid, seq)`` — the global timeline."""
    records = _events if records is None else records
    return sorted(
        records,
        key=lambda e: (e.get("ts", 0.0), e.get("pid", 0), e.get("seq", 0)),
    )


def write_jsonl(path, records: Optional[Sequence[dict]] = None) -> int:
    """Write events (default: the buffer) to ``path``, one per line.

    Lines are sorted by ``(ts, pid, seq)`` so a multi-process run reads
    as one chronological log. Returns the number of lines written.
    """
    ordered = sorted_events(records)
    with open(path, "w") as handle:
        for event in ordered:
            handle.write(json.dumps(event, sort_keys=True))
            handle.write("\n")
    return len(ordered)


def read_jsonl(path) -> List[dict]:
    """Parse a JSONL event log back into a list of event dicts."""
    records = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{line_number}: not JSON: {exc}"
                ) from exc
            records.append(record)
    return records


# -- validation -----------------------------------------------------------------

_ENVELOPE_FIELDS = ("v", "type", "ts", "pid", "seq")


def validate_events(records: Sequence[dict]) -> List[str]:
    """Structural problems in an event list ([] = schema-valid).

    Checks the envelope (version match, known type, numeric ``ts``,
    integer ``pid``/``seq``), each type's required payload fields, and
    that no ``(pid, seq)`` pair repeats (a duplicate means a worker's
    buffer was absorbed twice — exactly the double-count draining once
    exists to prevent).
    """
    problems: List[str] = []
    seen: set = set()
    for i, event in enumerate(records):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        missing = [f for f in _ENVELOPE_FIELDS if f not in event]
        if missing:
            problems.append(f"event {i} missing envelope fields {missing}")
            continue
        if event["v"] != EVENT_SCHEMA_VERSION:
            problems.append(
                f"event {i} has schema version {event['v']!r}; "
                f"expected {EVENT_SCHEMA_VERSION}"
            )
        event_type = event["type"]
        required = EVENT_TYPES.get(event_type)
        if required is None:
            problems.append(f"event {i} has unknown type {event_type!r}")
            continue
        absent = [name for name in required if name not in event]
        if absent:
            problems.append(
                f"event {i} ({event_type}) missing fields {absent}"
            )
        ts = event["ts"]
        if isinstance(ts, bool) or not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i} ({event_type}) has bad ts {ts!r}")
        for field in ("pid", "seq"):
            value = event[field]
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                problems.append(
                    f"event {i} ({event_type}) has bad {field} {value!r}"
                )
        key = (event["pid"], event["seq"])
        if key in seen:
            problems.append(
                f"event {i} ({event_type}) repeats (pid, seq) {key} — "
                "a worker buffer was absorbed twice"
            )
        seen.add(key)
    return problems


def by_query(records: Sequence[dict]) -> Dict[str, List[dict]]:
    """Group events by their ``query`` tag (untagged events under "").

    The join service tags every event emitted inside a query's
    execution — in its pool workers too — so a merged log from overlapping
    queries splits back into clean per-query slices — the contract
    ``tools/bench_diff.py`` event diffs rely on to avoid conflating
    interleaved runs.
    """
    grouped: Dict[str, List[dict]] = {}
    for event in records:
        grouped.setdefault(str(event.get("query", "")), []).append(event)
    return grouped


#: Group events by their ``trace`` id (untraced events under "") — the
#: same grouping as span records, so one merged log splits into
#: per-trace slices that line up with the span forest.
by_trace = _tracing.by_trace


def counts_by_type(records: Sequence[dict]) -> Dict[str, int]:
    """``{event type: count}`` over a list of events (for reports)."""
    tally: Dict[str, int] = {}
    for event in records:
        event_type = event.get("type", "?")
        tally[event_type] = tally.get(event_type, 0) + 1
    return dict(sorted(tally.items()))
