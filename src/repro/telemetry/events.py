"""Flight-recorder events: the schema and the JSONL export view.

Events answer **"what happened, when, in which process"** — run
boundaries, spill shards, morsel dispatch and steals, worker deaths and
stalls, injected faults, ladder fallbacks. They are emitted with
:func:`repro.telemetry.emit_event` into the record buffer of
:mod:`repro.telemetry.tracing`. Every envelope carries ``v``
(:data:`EVENT_SCHEMA_VERSION`), ``type``, ``ts``, ``pid`` and a
per-process ``seq``, plus the ambient ``trace``/``span`` ids inside a
trace. :data:`EVENT_TYPES` names each type's required payload fields;
:func:`validate_events` is the gate CI runs over ``--events`` logs.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

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

# -- JSONL sink -----------------------------------------------------------------


def sorted_events(records: Sequence[dict]) -> List[dict]:
    """Events ordered by ``(ts, pid, seq)`` — the global timeline."""
    return sorted(
        records,
        key=lambda e: (e.get("ts", 0.0), e.get("pid", 0), e.get("seq", 0)),
    )


def write_jsonl(path, records: Sequence[dict]) -> int:
    """Write events (``tracing.events()``, say) to ``path``, one per
    line in ``(ts, pid, seq)`` order; returns the line count."""
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
    execution — in its pool workers too — so a merged log from
    overlapping queries splits back into clean per-query slices.
    """
    grouped: Dict[str, List[dict]] = {}
    for event in records:
        grouped.setdefault(str(event.get("query", "")), []).append(event)
    return grouped


def counts_by_type(records: Sequence[dict]) -> Dict[str, int]:
    """``{event type: count}`` over a list of events (for reports)."""
    tally: Dict[str, int] = {}
    for event in records:
        event_type = event.get("type", "?")
        tally[event_type] = tally.get(event_type, 0) + 1
    return dict(sorted(tally.items()))
