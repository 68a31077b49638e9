"""Spans, events, and metrics for the real (host) execution.

The simulator attributes *virtual* time (``repro.sim.trace``); this
package attributes *wall-clock* time and path decisions in the numpy
execution that produces it — the paper's own methodology (time
breakdowns, per-kernel profiles) applied to the reproduction itself.

Three pieces:

- **Records** (:mod:`repro.telemetry.tracing`): one buffer of spans,
  simulated tracks and events behind one recording setting
  (:data:`OFF`, :data:`EVENTS`, or :data:`SPANS`: events plus spans).
  ``telemetry.span(name, **attrs)`` nests under the ambient span,
  ``telemetry.annotate(**attrs)`` tags it, and
  ``telemetry.emit_event(type, **fields)`` records a lifecycle event on
  it (schema: :mod:`repro.telemetry.events`). A service query and a
  bench experiment each open a trace root.
- **Metrics** (:mod:`repro.telemetry.metrics`): an always-on registry of
  counters, gauges, and timing histograms (``telemetry.count``,
  ``telemetry.gauge``, ``telemetry.observe``).
- **Exporters** (:mod:`repro.telemetry.export`): one Chrome-trace/
  Perfetto JSON writer for spans, simulated tracks, and recorder
  instants; a JSON metrics dump; and the
  structural validator tests and CI run over emitted files.

Work done in another process comes home through one hand-off:
:func:`settings` rides the job to the worker, the worker runs it inside
:func:`capture`, and the parent :func:`absorb`\\ s the envelope.

Capture a trace::

    python -m repro.bench fig13 --trace trace.json --metrics metrics.json

then open ``trace.json`` at https://ui.perfetto.dev. See
``docs/observability.md``.
"""

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
from repro.telemetry.export import (
    chrome_trace_document,
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
    EVENTS,
    NULL_SPAN,
    OFF,
    SPANS,
    add_sim_result,
    annotate,
    current_path,
    emit_event,
    recording,
    set_recording,
    span,
)

#: Convenience aliases onto the process-wide registry.
count = registry.count
gauge = registry.gauge
observe = registry.observe


def reset() -> None:
    """Drop every buffered record and all metrics."""
    tracing.reset()
    registry.reset()


def settings() -> dict:
    """This thread's ambient state, as a job payload for a worker.

    ``recording`` is the recording level; ``parent`` is the ambient
    span (``None`` off-trace) the worker's spans parent under;
    ``query`` is the portable part of the query context — fault plan,
    exec config, event tags, explain on/off — but not its
    process-local metrics scopes, explain sink or notes mailbox.
    """
    record = _query_context.current()
    return {
        "recording": tracing.recording(),
        "parent": tracing.payload(),
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
    recording level, the span parent, and the shipped query context
    with fresh process-local parts (no metrics scopes: the parent tees
    the absorbed delta into its own) — and on exit the yielded dict
    holds ``metrics`` (a registry delta) and ``records`` (drained, so a
    reused worker never reports the same work twice).
    """
    job_settings = settings() if job_settings is None else job_settings
    level = tracing.recording()
    tracing.set_recording(job_settings.get("recording", OFF))
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
        envelope["records"] = tracing.drain()
        tracing.set_recording(level)


def absorb(envelope: Optional[dict]) -> None:
    """The parent half of the hand-off: fold a :func:`capture` envelope
    into this process (absorbed records keep their origin pid)."""
    if not envelope:
        return
    registry.merge(envelope.get("metrics"))
    tracing.absorb(envelope.get("records"))


__all__ = [
    "EVENTS",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "OFF",
    "SLOMonitor",
    "SLOObjective",
    "SLOSpec",
    "SPANS",
    "absorb",
    "add_sim_result",
    "annotate",
    "capture",
    "chrome_trace_document",
    "count",
    "current_path",
    "emit_event",
    "events",
    "export",
    "gauge",
    "histogram",
    "metrics",
    "metrics_document",
    "observe",
    "process_peak_rss_bytes",
    "prometheus",
    "prometheus_document",
    "recording",
    "registry",
    "update_process_gauges",
    "reset",
    "set_recording",
    "settings",
    "slo",
    "span",
    "tracing",
    "validate_chrome_trace",
    "validate_prometheus",
    "write_chrome_trace",
    "write_metrics",
    "write_prometheus",
]
