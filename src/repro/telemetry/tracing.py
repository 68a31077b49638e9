"""Spans and events: the one record stream, carried by a context variable.

Every span in the codebase — a service query's stages, a plan node, an
operator's ``functional``/``simulate`` phases, a partition or probe
kernel, a pool worker's morsel, a bench experiment — is opened with
:func:`span` and nests under whatever span is ambient on the current
thread. A trace is one tree of such spans: a service query and a bench
experiment each open a root, so "what happened to query X" and "where
did fig13's time go" are read from the same records.

The design is the W3C trace-context shape reduced to what the repo
needs:

- **Deterministic ids.** A query's ``trace_id`` derives from its
  workload seed and submission sequence number, a bench experiment's
  from its name (:func:`derive_trace_id`), and every span id derives
  from ``(trace_id, parent_id, name, sibling index)``
  (:func:`derive_span_id`) — same inputs, same forest of ids, so trace
  artifacts diff byte-for-byte across runs the way
  ``BENCH_service.json``'s results digest does.
- **Ambient propagation via context variables.** The active
  :class:`TraceContext` lives in a :class:`contextvars.ContextVar`, so
  concurrent service threads each carry their own query's context with
  no locking and no shared stack to corrupt — :func:`trace_query`
  opens a root, :func:`span` nests under whatever is ambient,
  :func:`annotate` tags the innermost open span, and :func:`current`
  is what :func:`emit_event` stamps onto every event. A span opened
  with no ambient trace records nothing.
- **One buffer.** Finished spans, simulated timelines
  (:func:`add_sim_result`) and events (:func:`emit_event`, a typed
  record on the open span, as OpenTelemetry span events are) share one
  buffer, which :func:`drain`/:func:`absorb` carry home from workers;
  there :func:`activate` parents spans under the shipped
  :func:`payload`.
- **Wall-clock on a fork-consistent basis.** Every record is stamped by
  :func:`wall_now`: ``time.time`` sampled once at import plus
  ``time.monotonic`` deltas. A forked child inherits the offset, so a
  merged ``(ts, pid, seq)`` order stays consistent across processes
  even when the system clock steps.

Recording is one setting (:func:`set_recording`): :data:`OFF` (the
default), :data:`EVENTS`, or :data:`SPANS` (events plus spans and
tracks). A site whose level is off costs one module-level check.
"""

from __future__ import annotations

import contextvars
import hashlib
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, List, Optional, Sequence

from repro import context as _query_context
from repro.telemetry.events import EVENT_SCHEMA_VERSION, EVENT_TYPES

#: Hex digits in every trace and span id (64-bit, like W3C span ids).
ID_HEX_DIGITS = 16

#: Wall-clock offset captured once per process *import*: ``wall_now()``
#: is this offset plus ``time.monotonic()``. CLOCK_MONOTONIC is
#: system-wide, and a forked child inherits this module constant, so
#: every process forked from one parent stamps time on the same basis —
#: the fix for merged cross-process orderings drifting when the system
#: clock steps between fork and emit.
_CLOCK_OFFSET = time.time() - time.monotonic()

#: The recording setting's levels: nothing, flight-recorder events
#: only, or events plus spans and simulated tracks.
OFF, EVENTS, SPANS = 0, 1, 2
_recording = OFF

#: Finished spans, simulated tracks and events in recording order
#: (plain dicts — the JSONL/IPC currency); an event has a ``type`` and
#: a track ``entries``. The lock also guards the per-process event
#: ``seq``, which concurrent service threads must never draw twice.
_buffer: List[dict] = []
_lock = threading.Lock()
_seq = 0

#: The ambient trace context. ContextVars are per-thread (and survive
#: into worker threads' callables only when explicitly propagated),
#: which is the isolation the concurrent service needs: each worker
#: thread activates its own query's context.
_active: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace", default=None
)


def wall_now() -> float:
    """Wall-clock seconds on the process family's shared monotonic basis.

    Equal to ``time.time()`` up to clock steps; guaranteed monotonic
    within a process and consistent across forked children (they
    inherit :data:`_CLOCK_OFFSET`).
    """
    return _CLOCK_OFFSET + time.monotonic()


def _short_hash(*parts) -> str:
    material = ":".join(str(part) for part in parts)
    return hashlib.sha256(material.encode()).hexdigest()[:ID_HEX_DIGITS]


def derive_trace_id(*parts) -> str:
    """The deterministic trace id of one root (a query, an experiment).

    A service query passes its workload seed and submission sequence
    number — the same two facts that make the service's admission and
    results deterministic — so re-running a seeded workload reproduces
    every trace id exactly.
    """
    return _short_hash("trace", *parts)


def derive_span_id(
    trace_id: str, parent_id: Optional[str], name: str, index: int
) -> str:
    """The deterministic id of one span within a trace.

    ``index`` is the span's sibling index under ``parent_id`` (how many
    same-parent spans preceded it), which keeps repeated stage names
    (two ``morsel`` spans, say) distinct without any randomness.
    """
    return _short_hash("span", trace_id, parent_id or "", name, index)


def is_valid_id(value) -> bool:
    """Whether ``value`` is a well-formed trace/span id (16 hex chars)."""
    if not isinstance(value, str) or len(value) != ID_HEX_DIGITS:
        return False
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


class TraceContext:
    """One open span — while open, the ambient state of its thread.

    ``span_id`` is the parent of anything opened next and ``attrs`` the
    span's attributes; ``sibling_counts`` allocates deterministic
    sibling indices per parent and is shared by every span of one
    activation. Contexts are never shared across threads. Used as a
    context manager, a context is activated on entry and recorded as a
    finished span on exit.
    """

    __slots__ = (
        "trace_id", "span_id", "parent_id", "names", "sibling_counts",
        "attrs", "_token", "_start",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        name: str,
        attrs: Optional[dict] = None,
        parent: Optional["TraceContext"] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.attrs = {} if attrs is None else attrs
        if parent is None:
            self.parent_id = None
            self.names = [name]
            self.sibling_counts: Dict[str, int] = {}
        else:
            self.parent_id = parent.span_id
            self.names = parent.names + [name]
            self.sibling_counts = parent.sibling_counts

    def child_id(self, name: str) -> str:
        index = self.sibling_counts.get(self.span_id, 0)
        self.sibling_counts[self.span_id] = index + 1
        return derive_span_id(self.trace_id, self.span_id, name, index)

    def set(self, **attrs) -> "TraceContext":
        """Attach attributes to the span (e.g. a path decision)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "TraceContext":
        self._token = _active.set(self)
        self._start = wall_now()
        return self

    def __exit__(self, *exc) -> bool:
        _active.reset(self._token)
        _record(
            self.names[-1],
            self._start,
            wall_now(),
            self.trace_id,
            self.span_id,
            self.parent_id,
            self.attrs,
        )
        return False


def set_recording(level: int) -> None:
    """Record nothing (:data:`OFF`), events only (:data:`EVENTS`), or
    events plus spans and tracks (:data:`SPANS`)."""
    global _recording
    _recording = level


def recording() -> int:
    """The current recording level."""
    return _recording


def reset() -> None:
    """Drop every buffered record and restart the event sequence (the
    ambient context is unaffected)."""
    global _seq
    with _lock:
        _buffer.clear()
        _seq = 0


def current() -> Optional[TraceContext]:
    """The ambient trace context, or ``None`` (also while spans are
    not recorded)."""
    if _recording != SPANS:
        return None
    return _active.get()


def current_trace_id() -> Optional[str]:
    context = current()
    return context.trace_id if context is not None else None


def current_path() -> str:
    """Slash-joined names of the open spans (for labeling sub-records)."""
    context = current()
    return " / ".join(context.names) if context is not None else ""


def record_span(
    name: str,
    start: float,
    end: float,
    *,
    trace_id: str,
    span_id: Optional[str] = None,
    parent_id: Optional[str] = None,
    **attrs,
) -> dict:
    """Record one finished span retroactively (explicit ids and times).

    The service uses this for intervals it can only measure after the
    fact — admission wait (submit timestamp to execution start) and the
    query root (submit to finish) — where no ``with`` block brackets
    the interval. ``span_id`` defaults to a deterministic derivation
    from the identifying fields.
    """
    if span_id is None:
        span_id = derive_span_id(trace_id, parent_id, name, 0)
    return _record(name, start, end, trace_id, span_id, parent_id, attrs)


def _record(name, start, end, trace_id, span_id, parent_id, attrs) -> dict:
    record = {
        "trace": trace_id,
        "span": span_id,
        "parent": parent_id,
        "name": name,
        "ts": float(start),
        "dur": max(float(end) - float(start), 0.0),
        "pid": os.getpid(),
    }
    if attrs:
        record["attrs"] = dict(attrs)
    with _lock:
        _buffer.append(record)
    return record


class _NullSpan:
    """Shared no-op returned while tracing is off or no trace is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """Open one ambient child span (``with telemetry.span(...)``); a
    shared no-op unless a trace is active on this thread (one check
    while spans are not recorded)."""
    if _recording != SPANS:
        return NULL_SPAN
    parent = _active.get()
    if parent is None:
        return NULL_SPAN
    return TraceContext(
        parent.trace_id, parent.child_id(name), name, attrs, parent
    )


def annotate(**attrs) -> None:
    """Attach attributes to the innermost open span, if tracing."""
    context = current()
    if context is not None:
        context.attrs.update(attrs)


def trace_query(trace_id: str, name: str = "query", **attrs):
    """Open a trace root on this thread for the block's duration.

    Activates (and records, on exit) the trace's deterministic root
    span; a no-op context while spans are not recorded. The root span id is
    ``derive_span_id(trace_id, None, name, 0)`` — callers that record
    retroactive children against the root (admission wait) recompute it
    with :func:`root_span_id`.
    """
    if _recording != SPANS:
        return nullcontext()
    return TraceContext(trace_id, root_span_id(trace_id, name), name, attrs)


def root_span_id(trace_id: str, name: str = "query") -> str:
    """The deterministic root span id :func:`trace_query` uses."""
    return derive_span_id(trace_id, None, name, 0)


@contextmanager
def activate(trace_id: str, span_id: str, name: str = "(remote)"):
    """Adopt a shipped context: spans opened inside parent under
    ``span_id`` of ``trace_id``.

    The worker-process half of :func:`payload` — the adopted span is
    *not* re-recorded here (its owner records it); this only restores
    the ambient parentage so the worker's own spans and events join the
    dispatching query's tree.
    """
    context = TraceContext(trace_id, span_id, name)
    token = _active.set(context)
    try:
        yield context
    finally:
        _active.reset(token)


def payload() -> Optional[dict]:
    """The ambient context as a job-payload dict (``None`` off-trace);
    the worker passes it to :func:`activate`."""
    context = current()
    if context is None:
        return None
    return {"trace": context.trace_id, "span": context.span_id}


# -- simulated tracks -----------------------------------------------------------


def add_track(
    label: str, entries, makespan: float, instants=(), counters=()
) -> None:
    """Buffer one virtual-time track under the ambient span (no-op
    off-trace).

    ``entries`` carry ``name``/``phase``/``start``/``end``; ``instants``
    are injected fault events (``time_s``/``kind``/``target``/
    ``detail``) and ``counters`` ``(name, [(time_s, value), ...])``
    utilization series, rendered as Perfetto instants and counter
    tracks.
    """
    context = current()
    if context is None:
        return
    track = {
        "label": label,
        "makespan_seconds": float(makespan),
        "entries": [
            (e.name, e.phase, float(e.start), float(e.end)) for e in entries
        ],
        "trace": context.trace_id,
        "span": context.span_id,
        "pid": os.getpid(),
    }
    if instants:
        track["instants"] = [
            (float(e.time_s), e.kind, e.target, e.detail) for e in instants
        ]
    if counters:
        track["counters"] = [
            (name, [(float(t), float(v)) for t, v in series])
            for name, series in counters
        ]
    with _lock:
        _buffer.append(track)


def add_sim_result(result, label: Optional[str] = None) -> None:
    """Register a simulated execution as a virtual-time track.

    ``result`` is duck-typed (``.trace`` entries with name/phase/start/
    end plus ``.makespan_seconds``) so the simulator does not import the
    exporters. The label defaults to the open span path, which is how a
    trace viewer ties a simulated timeline back to the host span (e.g.
    ``experiment:fig13 / run:GPU Triton Join / simulate``).
    """
    if current() is None:
        return
    counters = ()
    if getattr(result, "occupancy", ()):
        # Lazy import: telemetry must stay importable without the
        # explain package (and the simulator without telemetry).
        from repro.explain.timeline import utilization_samples

        counters = tuple(
            (name, samples)
            for name, samples in sorted(utilization_samples(result).items())
            if any(value > 0 for _, value in samples)
        )
    add_track(
        label or current_path(),
        result.trace,
        result.makespan_seconds,
        instants=getattr(result, "fault_events", ()),
        counters=counters,
    )


# -- events ---------------------------------------------------------------------


def emit_event(event_type: str, **fields) -> Optional[dict]:
    """Record one event on the open span; no-op (``None``) while
    recording is off.

    Unknown types and missing required fields raise: a site that drifts
    from ``EVENT_TYPES`` is a bug. The query context's tags merge in
    under the explicit fields, so the join service tags a query once
    (``query=<id>``) instead of threading the id to every site.
    """
    if not _recording:
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
    event = {
        "v": EVENT_SCHEMA_VERSION,
        "type": event_type,
        "ts": wall_now(),
        "pid": os.getpid(),
    }
    context = current()
    if context is not None:
        event["trace"] = context.trace_id
        event["span"] = context.span_id
    event.update(fields)
    global _seq
    with _lock:
        event["seq"] = _seq
        _seq += 1
        _buffer.append(event)
    return event


# -- the buffer (the building block of telemetry.capture/absorb) ----------------


def _kind(record: dict) -> str:
    if "type" in record:
        return "event"
    return "track" if "entries" in record else "span"


def _select(kind: str) -> List[dict]:
    with _lock:
        return [record for record in _buffer if _kind(record) == kind]


def records() -> List[dict]:
    """A copy of the buffered finished-span records."""
    return _select("span")


def tracks() -> List[dict]:
    """A copy of the buffered simulated tracks."""
    return _select("track")


def events() -> List[dict]:
    """A copy of the buffered events (recording order)."""
    return _select("event")


def drain() -> List[dict]:
    """Remove and return every buffered record."""
    with _lock:
        drained = list(_buffer)
        _buffer.clear()
    return drained


def absorb(foreign: Optional[Iterable[dict]]) -> None:
    """Fold a worker's drained records, unedited, into the buffer."""
    with _lock:
        _buffer.extend(foreign or ())


# A forked worker must not ship its parent's records back as its own.
# No lock: one held by another thread at fork time stays held forever
# in the child. ``seq`` continues — the child emits under its own pid.
if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=_buffer.clear)


def by_trace(
    span_records: Optional[Sequence[dict]] = None,
) -> Dict[str, List[dict]]:
    """Group records (default: the buffered spans) by trace id; events
    and spans outside a trace group under ""."""
    span_records = records() if span_records is None else span_records
    grouped: Dict[str, List[dict]] = {}
    for record in span_records:
        grouped.setdefault(str(record.get("trace", "")), []).append(record)
    return grouped


# -- validation -----------------------------------------------------------------


def validate_trace_tree(span_records: Sequence[dict]) -> List[str]:
    """Structural problems in a span forest ([] = well-formed).

    The CI tracing gate: every record carries valid ``trace``/``span``
    ids, parents (when present) are valid ids that exist among the same
    trace's spans (no orphans), and no trace's parent edges form a
    cycle. Duplicate span ids within one trace are flagged too — they
    would make the tree ambiguous.
    """
    problems: List[str] = []
    by_trace_spans: Dict[str, Dict[str, Optional[str]]] = {}
    for i, record in enumerate(span_records):
        if not isinstance(record, dict):
            problems.append(f"record {i} is not an object")
            continue
        trace_id = record.get("trace")
        span_id = record.get("span")
        parent_id = record.get("parent")
        name = record.get("name", "?")
        if not is_valid_id(trace_id):
            problems.append(
                f"record {i} ({name}) has invalid trace id {trace_id!r}"
            )
            continue
        if not is_valid_id(span_id):
            problems.append(
                f"record {i} ({name}) has invalid span id {span_id!r}"
            )
            continue
        if parent_id is not None and not is_valid_id(parent_id):
            problems.append(
                f"record {i} ({name}) has invalid parent id {parent_id!r}"
            )
            continue
        spans = by_trace_spans.setdefault(trace_id, {})
        if span_id in spans:
            problems.append(
                f"record {i} ({name}) repeats span id {span_id} "
                f"within trace {trace_id}"
            )
            continue
        spans[span_id] = parent_id
    for trace_id, spans in sorted(by_trace_spans.items()):
        for span_id, parent_id in spans.items():
            if parent_id is not None and parent_id not in spans:
                problems.append(
                    f"trace {trace_id}: span {span_id} has orphan "
                    f"parent {parent_id} (no such span in the trace)"
                )
        # Cycle check: walk each span's parent chain with a visited set.
        resolved: Dict[str, bool] = {}
        for span_id in spans:
            path = []
            node: Optional[str] = span_id
            while node is not None and node in spans and node not in resolved:
                if node in path:
                    problems.append(
                        f"trace {trace_id}: parent cycle through "
                        f"span {node}"
                    )
                    for member in path:
                        resolved[member] = False
                    break
                path.append(node)
                node = spans[node]
            else:
                for member in path:
                    resolved[member] = True
    return problems
