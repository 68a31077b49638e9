"""The query context: a query's ambient state, in one context variable.

Everything a query sets once and everything below it reads — the fault
plan, the out-of-core execution config, the metrics scopes its counters
tee into, the explain sink its simulated runs land in, the tags its
flight-recorder events carry, and the out-of-core notes mailbox — is
one frozen :class:`QueryContext` record in one
:class:`contextvars.ContextVar`.

- **One reader.** :func:`current` returns the ambient record; the hot
  paths (metrics writes, the engine's fault-plan check, the batched
  join's exec-config check) read it with one context-variable lookup.
- **One setter.** :func:`scoped` replaces fields for the duration of a
  ``with`` block and restores the previous record on exit. Nothing
  mutates a record; the mutable parts (the metrics scopes, the explain
  sink, the notes mailbox) are containers a scope creates and owns.
- **Per-thread isolation for free.** A new thread starts with an empty
  context and so sees :data:`ROOT` (no plan, no config, no scopes, no
  sink, no tags, no mailbox), which is how each join-service worker
  runs its query's scope without seeing another's.
- **Across processes**, :func:`repro.telemetry.settings` ships the
  portable part (plan, config, tags, explain on/off) beside the span
  parent, and :func:`repro.telemetry.capture` adopts it in the worker.

Spans keep their own context variable (:mod:`repro.telemetry.tracing`):
they change on every kernel call, the record once per query.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.context import ExecutionConfig
    from repro.faults import FaultPlan
    from repro.telemetry.metrics import MetricsRegistry


@dataclass(frozen=True)
class QueryContext:
    """One query's ambient state (see the module docstring)."""

    #: Faults the simulator and capacity planning inject.
    fault_plan: Optional["FaultPlan"] = None
    #: How oversized joins execute (``None`` = always in memory).
    exec_config: Optional["ExecutionConfig"] = None
    #: Child registries every process-wide metrics write tees into.
    scopes: Tuple["MetricsRegistry", ...] = ()
    #: Explanations of the simulated runs (``None`` = explain off).
    explain: Optional[list] = None
    #: Fields merged into every flight-recorder event.
    tags: Dict[str, object] = field(default_factory=dict)
    #: Out-of-core run summaries awaiting their operator
    #: (``None`` = nobody opened a mailbox; notes are dropped).
    notes: Optional[List[dict]] = None


#: The record outside every scope.
ROOT = QueryContext()

_current: contextvars.ContextVar = contextvars.ContextVar(
    "repro_query_context", default=ROOT
)

#: The ambient :class:`QueryContext` (one context-variable lookup).
current = _current.get


@contextmanager
def scoped(**fields):
    """Replace ``fields`` of the ambient record inside the block.

    Yields the new record; the previous one is restored on exit, so
    scopes nest.
    """
    token = _current.set(replace(_current.get(), **fields))
    try:
        yield _current.get()
    finally:
        _current.reset(token)
