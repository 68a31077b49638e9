"""The concurrent join service: admission, scheduling, isolation.

:class:`JoinService` runs compiled :mod:`repro.service.plan` queries on
a pool of worker threads with the semantics a shared join server needs:

- **Deterministic admission control.** A query's memory footprint is
  estimated from its compiled spec alone (:attr:`repro.service.plan.
  QueryPlan.estimate_bytes`); a query whose estimate exceeds the service
  budget is rejected at submission — a pure function of (spec, budget),
  never of timing, so the same submission stream always produces the
  same admitted/rejected split and the same event counts.
- **Concurrency headroom.** Admitted queries start only when the sum of
  *running* estimates plus theirs fits the budget; over-budget
  contenders wait (they are never rejected), so load spikes degrade to
  queueing, not errors.
- **Priority scheduling.** The run queue is a max-heap on
  ``(priority, submission order)`` — ties run in submission order, so
  single-worker execution is fully deterministic.
- **Cooperative cancellation and timeouts.** The plan executor calls a
  checkpoint between operator pulls; :meth:`QueryHandle.cancel` and
  per-query deadlines take effect at the next checkpoint (a
  ``timeout=0`` query deterministically times out at its first stage).
- **Per-query isolation.** Each query executes inside one scope of the
  query context (:mod:`repro.context`) holding its fault plan, its
  out-of-core config and notes mailbox, its event tag (``query=<id>``
  on every event it emits, however deep — in pool workers too), its
  metrics scope (a child registry whose snapshot lands on the handle)
  and, for ``explain=True``, its own explain sink. Worker threads start
  from the context's empty root, so concurrent queries never read each
  other's counters, notes, faults, events, or explanations, and
  explain queries run alongside everything else.
"""

from __future__ import annotations

import ctypes
import heapq
import itertools
import sys
import threading
import time
from contextlib import nullcontext
from typing import Callable, List, Optional

from repro import context, telemetry
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    QueryCancelled,
    QueryTimeout,
)
from repro.service import plan as plan_module
from repro.telemetry import MetricsRegistry, tracing

#: Handle states, in lifecycle order.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
REJECTED = "rejected"
CANCELLED = "cancelled"
TIMEOUT = "timeout"
ERROR = "error"

#: glibc ``mallopt`` parameters (``malloc.h``) and the values the
#: service pins: 32 MiB is glibc's largest mmap threshold on 64-bit.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 256 << 20


def _keep_freed_memory() -> None:
    """Pin glibc's allocator so the arrays one query frees serve the
    next query's allocations.

    A finished query frees its relations all at once. Under glibc's
    adaptive thresholds, whether those pages stay in the process or go
    back to the kernel, to be faulted in again by the next query,
    depends on the heap's layout: the same 0.5 M x 0.5 M join cost 0
    or ~6,800 page faults (~15 ms) a query from one process to the
    next. Fixed thresholds make reuse the steady state. One arena for
    the threads started from here on keeps that reuse from multiplying
    the resident set: a query's arrays are freed back to the arena the
    next query allocates from, whichever worker thread runs it. Pool
    workers forked later inherit the setting. No-op off glibc.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
        mallopt(_M_ARENA_MAX, 1)


def _drop_tracebacks(error: BaseException) -> None:
    """Detach an error and its cause/context chain from their frames.

    A failed query's traceback frames hold its relations and, through
    the ``checkpoint`` closure and the frames' ``f_back`` links, the
    handle that stores the error: a cycle only a full collection frees.
    Clearing the frames' locals is not enough, so the handle keeps the
    error without its traceback. ``result()`` re-raises it with a fresh
    one; ``execute_plan`` raises with the full one.
    """
    stack, seen = [error], set()
    while stack:
        error = stack.pop()
        if error is None or id(error) in seen:
            continue
        seen.add(id(error))
        error.__traceback__ = None
        stack += [error.__cause__, error.__context__]


class QueryHandle:
    """One submitted query: status, result, cancellation."""

    def __init__(
        self, query_id: str, spec: dict, priority: int, timeout: Optional[float]
    ) -> None:
        self.id = query_id
        self.spec = spec
        self.priority = priority
        self.timeout = timeout
        self.status = PENDING
        self.estimate_bytes = 0
        #: Deterministic trace id (set at submission while query
        #: tracing is enabled; None otherwise).
        self.trace_id: Optional[str] = None
        self._root_span: Optional[str] = None
        self._submitted_ts = 0.0
        #: Per-query metrics snapshot (set when the query finishes).
        self.metrics: Optional[dict] = None
        #: Simulated seconds + wall seconds (set on success).
        self.result_value = None
        self.error: Optional[BaseException] = None
        self.wall_seconds = 0.0
        self._done = threading.Event()
        self._cancel = threading.Event()

    def cancel(self) -> bool:
        """Request cancellation; True if the query had not finished yet.

        Queued queries are dropped before they start; running queries
        stop at their next checkpoint. Finished queries are unaffected.
        """
        if self._done.is_set():
            return False
        self._cancel.set()
        return True

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None):
        """The query's :class:`~repro.service.plan.QueryResult`.

        Blocks until the query finishes (or ``timeout`` elapses —
        raising :class:`TimeoutError` without affecting the query).
        Re-raises the query's failure: :class:`~repro.errors.
        AdmissionError` for rejections, :class:`~repro.errors.
        QueryCancelled`, :class:`~repro.errors.QueryTimeout`, or the
        original execution error.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"query {self.id} still {self.status}")
        if self.error is not None:
            raise self.error
        return self.result_value


class _RequestQueue:
    """Priority queue: highest priority first, FIFO within a priority."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._counter = itertools.count()

    def push(self, handle: QueryHandle) -> None:
        heapq.heappush(
            self._heap, (-handle.priority, next(self._counter), handle)
        )

    def pop(self) -> Optional[QueryHandle]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class JoinService:
    """A thread-pool query scheduler over the plan layer.

    Usable as a context manager; :meth:`shutdown` drains workers. The
    optional ``stage_hook`` is a test seam: called as ``(handle, stage
    label)`` from every query checkpoint, it lets a test hold one query
    at a known stage while another runs — the deterministic way to
    construct overlap.
    """

    def __init__(
        self,
        system=None,
        workers: int = 2,
        memory_budget_bytes: Optional[int] = None,
        queue_limit: Optional[int] = None,
        stage_hook: Optional[Callable[[QueryHandle, str], None]] = None,
        slo=None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ConfigurationError("memory_budget_bytes must be positive")
        if queue_limit is not None and queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1")
        from repro import ac922

        self.system = system if system is not None else ac922()
        self.memory_budget_bytes = memory_budget_bytes
        self.queue_limit = queue_limit
        self.stage_hook = stage_hook
        #: Rolling SLO evaluator fed one observation per finished (or
        #: rejected) query. Accepts an SLOMonitor, an SLOSpec, or a
        #: plain spec dict; None = no SLO accounting.
        self.slo_monitor = None
        if slo is not None:
            from repro.telemetry import slo as slo_module

            self.slo_monitor = (
                slo
                if isinstance(slo, slo_module.SLOMonitor)
                else slo_module.SLOMonitor(slo)
            )
        _keep_freed_memory()
        self._queue = _RequestQueue()
        self._requests: dict = {}
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._headroom = threading.Condition(self._lock)
        self._running_bytes = 0
        self._submitted = 0
        self._rejected = 0
        self._finished = 0
        self._shutdown = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"join-service-{i}",
                args=(i,),
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        spec: dict,
        priority: int = 0,
        timeout: Optional[float] = None,
        fault_plan=None,
        exec_config=None,
        explain: bool = False,
    ) -> QueryHandle:
        """Validate, admit (or reject), and enqueue one query.

        Admission is deterministic: the spec's estimated memory
        footprint against the service budget, plus the queue-depth
        limit when one is configured. Rejected handles resolve
        immediately; their :meth:`~QueryHandle.result` raises
        :class:`~repro.errors.AdmissionError`.
        """
        if self._shutdown:
            raise ConfigurationError("service is shut down")
        submitted_ts = tracing.wall_now()
        compiled = plan_module.compile_plan(spec)
        estimate = compiled.estimate_bytes
        compiled_ts = tracing.wall_now()
        with self._lock:
            self._submitted += 1
            sequence = self._submitted
            query_id = f"q{sequence:06d}"
        handle = QueryHandle(query_id, spec, priority, timeout)
        handle.estimate_bytes = estimate
        handle._plan = compiled
        handle._fault_plan = fault_plan
        handle._exec_config = exec_config
        handle._explain = explain
        handle._submitted_ts = submitted_ts
        if tracing.recording() == tracing.SPANS:
            # One trace per query, its id a pure function of the
            # workload seed and the submission sequence — the same
            # facts that make admission and results deterministic. A
            # query submitted inside another trace (a bench experiment
            # may run several services on one seed) also folds in its
            # position there, so ids stay unique within the process.
            ambient = tracing.current()
            position = () if ambient is None else (ambient.child_id("query"),)
            handle.trace_id = tracing.derive_trace_id(
                compiled.config.seed, sequence, *position
            )
            handle._root_span = tracing.root_span_id(handle.trace_id)
            tracing.record_span(
                "compile",
                submitted_ts,
                compiled_ts,
                trace_id=handle.trace_id,
                parent_id=handle._root_span,
                query=query_id,
                plan=compiled.name,
            )
        with self._ambient_trace(handle):
            telemetry.emit_event(
                "query.submitted", query=query_id, plan=compiled.name,
                priority=priority, estimate_bytes=estimate,
            )

            reason = None
            if (
                self.memory_budget_bytes is not None
                and estimate > self.memory_budget_bytes
            ):
                reason = (
                    f"estimate {estimate} B exceeds budget "
                    f"{self.memory_budget_bytes} B"
                )
            elif (
                self.queue_limit is not None
                and len(self._queue) >= self.queue_limit
            ):
                reason = f"queue full ({self.queue_limit} pending)"
            if reason is not None:
                handle.status = REJECTED
                handle.error = AdmissionError(f"query {query_id}: {reason}")
                with self._lock:
                    self._rejected += 1
                telemetry.emit_event(
                    "query.rejected", query=query_id, reason=reason
                )
                if self.slo_monitor is not None:
                    self.slo_monitor.record(
                        compiled.name, 0.0, error=True, status=REJECTED
                    )
                self._finish_trace(handle, REJECTED)
                handle._done.set()
                return handle

            telemetry.emit_event("query.admitted", query=query_id)
        with self._lock:
            self._requests[query_id] = handle
            self._queue.push(handle)
            self._work_available.notify()
        return handle

    def _ambient_trace(self, handle: QueryHandle):
        """The handle's trace context as the thread's ambient context
        (a null context when the query was submitted untraced)."""
        if handle.trace_id is None:
            return nullcontext()
        return tracing.activate(
            handle.trace_id, handle._root_span, name="query"
        )

    def _finish_trace(self, handle: QueryHandle, status: str) -> None:
        """Record the query's deterministic root span, submit → now."""
        if handle.trace_id is None:
            return
        tracing.record_span(
            "query",
            handle._submitted_ts,
            tracing.wall_now(),
            trace_id=handle.trace_id,
            span_id=handle._root_span,
            parent_id=None,
            query=handle.id,
            plan=handle._plan.name,
            status=status,
            priority=handle.priority,
        )

    def run(self, spec: dict, **kwargs):
        """Submit and wait — the serial convenience path."""
        return self.submit(spec, **kwargs).result()

    # -- worker side -----------------------------------------------------------

    def _worker_loop(self, index: int) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._shutdown:
                    self._work_available.wait()
                if self._shutdown and not self._queue:
                    return
                handle = self._queue.pop()
                if handle is None:
                    continue
                # Headroom gate: wait (never reject) until the running
                # footprint plus this query fits the budget. A query
                # bigger than... cannot reach here: submission rejected it.
                if self.memory_budget_bytes is not None:
                    while (
                        self._running_bytes + handle.estimate_bytes
                        > self.memory_budget_bytes
                        and self._running_bytes > 0
                        and not handle.cancelled
                    ):
                        self._headroom.wait()
                self._running_bytes += handle.estimate_bytes
            try:
                self._execute(handle, index)
            finally:
                with self._lock:
                    self._running_bytes -= handle.estimate_bytes
                    self._finished += 1
                    self._requests.pop(handle.id, None)
                    self._headroom.notify_all()

    def _execute(self, handle: QueryHandle, worker: int) -> None:
        if handle.cancelled:
            handle.status = CANCELLED
            handle.error = QueryCancelled(
                f"query {handle.id} cancelled before start"
            )
            with self._ambient_trace(handle):
                telemetry.emit_event(
                    "query.finished", query=handle.id, seconds=0.0,
                    status=CANCELLED,
                )
            if self.slo_monitor is not None:
                self.slo_monitor.record(
                    handle._plan.name, 0.0, error=True, status=CANCELLED
                )
            self._finish_trace(handle, CANCELLED)
            handle._done.set()
            return

        handle.status = RUNNING
        if handle.trace_id is not None:
            # The time between admission and a worker picking the query
            # up, measurable only in hindsight.
            tracing.record_span(
                "admission-wait",
                handle._submitted_ts,
                tracing.wall_now(),
                trace_id=handle.trace_id,
                parent_id=handle._root_span,
                query=handle.id,
            )
        with self._ambient_trace(handle):
            telemetry.emit_event(
                "query.started", query=handle.id, worker=worker
            )
        started = time.perf_counter()
        deadline = (
            None if handle.timeout is None else started + handle.timeout
        )

        def checkpoint(stage: str) -> None:
            if self.stage_hook is not None:
                self.stage_hook(handle, stage)
            if handle.cancelled:
                raise QueryCancelled(
                    f"query {handle.id} cancelled at {stage}"
                )
            if deadline is not None and time.perf_counter() >= deadline:
                raise QueryTimeout(
                    f"query {handle.id} exceeded {handle.timeout}s "
                    f"at {stage}"
                )

        status = DONE
        scope = MetricsRegistry()
        query = context.scoped(
            fault_plan=handle._fault_plan,
            exec_config=handle._exec_config,
            scopes=(scope,),
            explain=[] if handle._explain else None,
            tags={"query": handle.id},
            notes=[],
        )
        try:
            with query, self._ambient_trace(handle), \
                    tracing.span("execute", query=handle.id, worker=worker):
                result = handle._plan.execute(
                    system=self.system, checkpoint=checkpoint
                )
                if handle._explain:
                    self._attach_explanation(result)
            handle.result_value = result
        except QueryCancelled as exc:
            status, handle.error = CANCELLED, exc
        except QueryTimeout as exc:
            status, handle.error = TIMEOUT, exc
        except BaseException as exc:  # noqa: BLE001 - reported via handle
            status, handle.error = ERROR, exc
        if handle.error is not None:
            _drop_tracebacks(handle.error)
        handle.wall_seconds = time.perf_counter() - started
        handle.metrics = scope.snapshot()
        handle.status = status
        with self._ambient_trace(handle):
            telemetry.emit_event(
                "query.finished", query=handle.id,
                seconds=handle.wall_seconds, status=status,
            )
        if self.slo_monitor is not None:
            self.slo_monitor.record(
                handle._plan.name, handle.wall_seconds,
                error=status not in (DONE,), status=status,
            )
        self._finish_trace(handle, status)
        handle._done.set()

    @staticmethod
    def _attach_explanation(result) -> None:
        """Append the query's last explained simulated run (from its
        own explain sink) to the result as an ``explain`` stage."""
        from repro import explain as explain_module

        explained = explain_module.drain()
        if explained:
            result.stages.append(
                {
                    "stage": "explain",
                    "operator": "explain",
                    "text": explain_module.format_explanation(explained[-1]),
                }
            )

    # -- lifecycle -------------------------------------------------------------

    def slo_report(self) -> Optional[dict]:
        """The SLO monitor's current report (None when no SLO is set)."""
        if self.slo_monitor is None:
            return None
        return self.slo_monitor.report()

    def stats(self) -> dict:
        with self._lock:
            return {
                "submitted": self._submitted,
                "rejected": self._rejected,
                "finished": self._finished,
                "queued": len(self._queue),
                "running_bytes": self._running_bytes,
                "workers": len(self._workers),
            }

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally wait for queued queries."""
        with self._lock:
            self._shutdown = True
            self._work_available.notify_all()
            self._headroom.notify_all()
        if wait:
            for thread in self._workers:
                thread.join()

    def __enter__(self) -> "JoinService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)
