"""Spans, metrics, and events for the real (host) execution.

The simulator attributes *virtual* time (``repro.sim.trace``); this
package attributes *wall-clock* time and path decisions in the numpy
execution that produces it — the paper's own methodology (time
breakdowns, per-kernel profiles) applied to the reproduction itself.

Four pieces:

- **Spans** (:mod:`repro.telemetry.tracing`): nested wall-clock
  intervals on a per-thread trace context, gated behind one module flag
  so disabled call sites cost one attribute check.
  ``telemetry.span(name, **attrs)`` is a context manager that nests
  under the ambient span; ``telemetry.annotate(**attrs)`` tags the
  innermost open span. A service query and a bench experiment each
  open a trace root, and simulated timelines are buffered beside the
  spans of the run that produced them.
- **Metrics** (:mod:`repro.telemetry.metrics`): an always-on registry of
  counters, gauges, and timing histograms (``telemetry.count``,
  ``telemetry.gauge``, ``telemetry.observe``).
- **Flight recorder** (:mod:`repro.telemetry.events`): structured
  lifecycle events, behind a flag of its own.
- **Exporters** (:mod:`repro.telemetry.export`): one Chrome-trace/
  Perfetto JSON writer for spans, simulated tracks, and recorder
  instants; a plain-text span tree; a JSON metrics dump; and the
  structural validator tests and CI run over emitted files.

Work done in another process comes home through one hand-off:
:func:`settings` rides the job to the worker (with the portable part of
the query context: fault plan, exec config, event tags, explain
on/off), the worker runs it inside :func:`capture`, and the parent
:func:`absorb`\\ s the envelope — metrics delta, span records,
simulated tracks, and events together.

Capture a trace::

    python -m repro.bench fig13 --trace trace.json --metrics metrics.json

then open ``trace.json`` at https://ui.perfetto.dev. See
``docs/observability.md``.
"""

import os
from contextlib import contextmanager, nullcontext
from typing import Optional

from repro import context as _query_context
from repro.telemetry import (
    events,
    export,
    histogram,
    metrics,
    prometheus,
    slo,
    tracing,
)
from repro.telemetry.events import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    validate_events,
)
from repro.telemetry.export import (
    chrome_trace_document,
    format_span_tree,
    metrics_document,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.telemetry.histogram import Histogram
from repro.telemetry.metrics import (
    MetricsRegistry,
    process_peak_rss_bytes,
    registry,
    update_process_gauges,
)
from repro.telemetry.prometheus import (
    prometheus_document,
    validate_prometheus,
    write_prometheus,
)
from repro.telemetry.slo import SLOMonitor, SLOObjective, SLOSpec
from repro.telemetry.tracing import (
    NULL_SPAN,
    add_sim_result,
    annotate,
    current_path,
    disable,
    enable,
    enabled,
    span,
)

#: Convenience aliases onto the process-wide registry.
count = registry.count
gauge = registry.gauge
observe = registry.observe

#: Convenience alias onto the flight recorder (no-op while the
#: recorder is disabled, like spans — see repro.telemetry.events).
emit_event = events.emit


def reset() -> None:
    """Drop all recorded spans, simulated tracks, metrics, and events."""
    tracing.reset()
    registry.reset()
    events.reset()


def settings() -> dict:
    """This thread's ambient state, as a job payload for a worker.

    ``trace``/``events`` are the two enable flags; ``parent`` is the
    ambient span (``None`` off-trace) the worker's spans parent under;
    ``query`` is the portable part of the query context — fault plan,
    exec config, event tags, explain on/off — but not its
    process-local metrics scopes, explain sink or notes mailbox.
    """
    record = _query_context.current()
    return {
        "trace": tracing.enabled(),
        "parent": tracing.payload(),
        "events": events.enabled(),
        "query": {
            "fault_plan": record.fault_plan,
            "exec_config": record.exec_config,
            "tags": record.tags,
            "explain": record.explain is not None,
        },
    }


@contextmanager
def capture(job_settings: Optional[dict] = None):
    """Record one unit of work and yield the envelope that ships it home.

    The worker half of the hand-off: the block runs under
    ``job_settings`` (default: this thread's :func:`settings`) — the
    flags, the span parent, and the shipped query context with fresh
    process-local parts (no metrics scopes: the parent tees the
    absorbed delta into its own) — and on exit the yielded dict is
    filled with everything the block recorded — ``metrics`` (a registry
    delta), ``spans`` and ``tracks`` (drained from the span buffers)
    and ``events`` (drained from the recorder). Draining is what keeps
    a reused worker from reporting the same work twice. The flags are
    restored afterwards.
    """
    job_settings = settings() if job_settings is None else job_settings
    flags = tracing.enabled(), events.enabled()
    (tracing.enable if job_settings.get("trace") else tracing.disable)()
    (events.enable if job_settings.get("events") else events.disable)()
    parent = job_settings.get("parent")
    ambient = (
        tracing.activate(parent["trace"], parent["span"], name="worker")
        if parent is not None
        else nullcontext()
    )
    shipped = job_settings.get("query", {})
    query = _query_context.scoped(
        fault_plan=shipped.get("fault_plan"),
        exec_config=shipped.get("exec_config"),
        tags=shipped.get("tags", {}),
        explain=[] if shipped.get("explain") else None,
        scopes=(),
        notes=[],
    )
    envelope: dict = {}
    before = registry.snapshot()
    try:
        with query, ambient:
            yield envelope
    finally:
        envelope["metrics"] = registry.delta_since(before)
        envelope["spans"], envelope["tracks"] = tracing.drain()
        envelope["events"] = events.drain()
        (tracing.enable if flags[0] else tracing.disable)()
        (events.enable if flags[1] else events.disable)()


def absorb(envelope: Optional[dict]) -> None:
    """The parent half of the hand-off: fold a :func:`capture` envelope
    into this process (absorbed records keep their origin pid)."""
    if not envelope:
        return
    registry.merge(envelope.get("metrics"))
    tracing.absorb(envelope.get("spans"), envelope.get("tracks"))
    events.absorb(envelope.get("events"))


def _drop_inherited_buffers() -> None:
    # A forked worker inherits the parent's buffered spans, tracks and
    # events, stamped with the parent's pid; capture() would ship them
    # back as duplicates. No locks: one held by another thread at fork
    # time stays held forever in the child. The recorder's ``seq``
    # counter is kept — the child emits under its own pid, so
    # continuing the inherited sequence stays unique.
    tracing._records.clear()
    tracing._tracks.clear()
    events._events.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=_drop_inherited_buffers)


__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "SLOMonitor",
    "SLOObjective",
    "SLOSpec",
    "absorb",
    "add_sim_result",
    "annotate",
    "capture",
    "chrome_trace_document",
    "count",
    "current_path",
    "disable",
    "emit_event",
    "enable",
    "enabled",
    "events",
    "export",
    "format_span_tree",
    "gauge",
    "histogram",
    "metrics",
    "metrics_document",
    "observe",
    "process_peak_rss_bytes",
    "prometheus",
    "prometheus_document",
    "registry",
    "update_process_gauges",
    "reset",
    "settings",
    "slo",
    "span",
    "tracing",
    "validate_chrome_trace",
    "validate_events",
    "validate_prometheus",
    "write_chrome_trace",
    "write_metrics",
    "write_prometheus",
]
