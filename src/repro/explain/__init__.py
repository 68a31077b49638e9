"""Bottleneck attribution for simulated runs (``repro.explain``).

The paper's argument is not "the Triton join is fast" but *why*: which
resource each algorithm saturates (Fig. 14), where the time goes
(Fig. 15), and what the profilers attribute stalls to (Fig. 18). This
package answers the same questions for any simulated run, post hoc,
from the artifacts the engine already records:

- **critical path** — the dependency/wait chain that determines the
  makespan, with per-task slack (:mod:`repro.explain.critical_path`);
- **utilization timelines** — step-function occupancy per resource,
  from which the Fig. 14 utilization table re-derives
  (:mod:`repro.explain.timeline`);
- **bound classification** — per task, the dominant resource and its
  class: compute-, transfer-, memory-, translation-, dependency-, or
  latency-bound (:mod:`repro.explain.bounds`);
- **run diffs** — two explained runs compared task-by-task and
  resource-by-resource, naming the drivers of a regression or win
  (:mod:`repro.explain.diff`).

Entry points: :func:`explain` turns a :class:`~repro.sim.engine.
SimResult` into an :class:`ExplainedRun`; inside
``repro.context.scoped(explain=sink)`` the engine explains every
simulated run into ``sink`` (``python -m repro.bench ... --explain
out.json`` and ``JoinService.submit(spec, explain=True)`` open one);
:meth:`ExplainedRun.format` renders one as text (``python -m
repro.service --explain`` prints it per query); ``tools/bench_diff.py``
diffs two collections.

Every explanation is self-checking: :meth:`ExplainedRun.verify` returns
the list of violated invariants (utilization outside [0, 1], attributed
time not summing to the makespan, critical path exceeding the
makespan), and CI gates on it staying empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import context as _query_context
from repro.explain import bounds as _bounds
from repro.explain import critical_path as _critical_path
from repro.explain import timeline as _timeline
from repro.explain.bounds import TaskBound, classify_all, seconds_by_bound
from repro.explain.critical_path import (
    PathStep,
    attributed_seconds,
    critical_path,
    slack_by_task,
)
from repro.explain.timeline import (
    ELECTRICAL_LIMIT_BYTES_PER_S,
    average_utilization,
    interconnect_utilization_75,
    utilization_samples,
    utilization_timeline,
)

#: Absolute slop for "sums to the makespan exactly": pure float-addition
#: noise, orders of magnitude below the 1e-6 CI gate.
_SUM_EPSILON = 1e-9


@dataclass
class ExplainedRun:
    """Everything the attribution engine derives from one simulated run."""

    label: str
    makespan_seconds: float
    resource_capacities: Dict[str, float] = field(default_factory=dict)
    #: Per-resource step function (start_s, end_s, utilization in [0,1]).
    timeline: Dict[str, List[Tuple[float, float, float]]] = field(
        default_factory=dict
    )
    average_utilization: Dict[str, float] = field(default_factory=dict)
    #: Fig. 14(a)'s metric: CPU->GPU wire bytes over the electrical limit.
    interconnect_utilization_75: float = 0.0
    critical_path: List[PathStep] = field(default_factory=list)
    #: Task name -> seconds its completion could slip without moving the
    #: makespan ("#<task_id>" suffix disambiguates duplicate names).
    slack_seconds: Dict[str, float] = field(default_factory=dict)
    bounds: List[TaskBound] = field(default_factory=list)
    #: Makespan seconds attributed per bound class; sums to the makespan.
    seconds_by_bound: Dict[str, float] = field(default_factory=dict)
    task_count: int = 0
    retries: int = 0
    fault_events: int = 0
    #: Trace id of the query whose execution this run explains, when the
    #: run happened under an ambient trace context ("" otherwise).
    trace_id: str = ""

    # -- derived views -------------------------------------------------------

    @property
    def critical_path_seconds(self) -> float:
        """Seconds the critical path attributes (== makespan when valid)."""
        return attributed_seconds(self.critical_path)

    @property
    def critical_wait_seconds(self) -> float:
        """Dependency-wait seconds on the path (incl. retry backoff)."""
        return sum(
            step.wait_seconds + step.record.backoff_seconds
            for step in self.critical_path
        )

    def dominant_bound(self) -> Optional[str]:
        """The bound class holding the largest share of the makespan."""
        if not self.seconds_by_bound:
            return None
        return max(
            self.seconds_by_bound,
            key=lambda name: (self.seconds_by_bound[name], name),
        )

    # -- invariants ----------------------------------------------------------

    def verify(self, tolerance: float = 1e-6) -> List[str]:
        """Violated invariants ([] = the explanation is consistent).

        Checks the acceptance gates CI enforces: utilization within
        [0, 1] and finite, the bound-class attribution summing to the
        makespan within ``tolerance``, the critical path attributing
        exactly the makespan and never exceeding it, and non-negative
        waits/slack.
        """
        problems: List[str] = []
        for name, segments in self.timeline.items():
            for start, end, value in segments:
                if not (value == value) or value in (float("inf"),):
                    problems.append(f"utilization of {name!r} is not finite")
                    break
                if value < 0 or value > 1 + 1e-9:
                    problems.append(
                        f"utilization of {name!r} out of [0, 1]: {value!r}"
                    )
                    break
                if end < start:
                    problems.append(f"timeline of {name!r} runs backwards")
                    break
        scale = max(self.makespan_seconds, 1.0)
        if self.seconds_by_bound:
            total = sum(self.seconds_by_bound.values())
            if abs(total - self.makespan_seconds) > tolerance * scale:
                problems.append(
                    f"bound attribution sums to {total!r}, "
                    f"makespan is {self.makespan_seconds!r}"
                )
        if self.critical_path:
            attributed = self.critical_path_seconds
            if abs(attributed - self.makespan_seconds) > tolerance * scale:
                problems.append(
                    f"critical path attributes {attributed!r}, "
                    f"makespan is {self.makespan_seconds!r}"
                )
            last_end = self.critical_path[-1].record.end
            if last_end > self.makespan_seconds + tolerance * scale:
                problems.append("critical path ends past the makespan")
            if any(s.wait_seconds < 0 for s in self.critical_path):
                problems.append("negative wait on the critical path")
        if any(value < -tolerance for value in self.slack_seconds.values()):
            problems.append("negative slack")
        return problems

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "makespan_seconds": self.makespan_seconds,
            "resource_capacities": dict(self.resource_capacities),
            "timeline": {
                name: [list(seg) for seg in segments]
                for name, segments in self.timeline.items()
            },
            "average_utilization": dict(self.average_utilization),
            "interconnect_utilization_75": self.interconnect_utilization_75,
            "critical_path": [step.to_dict() for step in self.critical_path],
            "slack_seconds": dict(self.slack_seconds),
            "bounds": [bound.to_dict() for bound in self.bounds],
            "seconds_by_bound": dict(self.seconds_by_bound),
            "task_count": self.task_count,
            "retries": self.retries,
            "fault_events": self.fault_events,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExplainedRun":
        return cls(
            label=data["label"],
            makespan_seconds=float(data["makespan_seconds"]),
            resource_capacities={
                k: float(v)
                for k, v in data.get("resource_capacities", {}).items()
            },
            timeline={
                name: [tuple(seg) for seg in segments]
                for name, segments in data.get("timeline", {}).items()
            },
            average_utilization={
                k: float(v)
                for k, v in data.get("average_utilization", {}).items()
            },
            interconnect_utilization_75=float(
                data.get("interconnect_utilization_75", 0.0)
            ),
            critical_path=[
                PathStep.from_dict(step)
                for step in data.get("critical_path", ())
            ],
            slack_seconds={
                k: float(v) for k, v in data.get("slack_seconds", {}).items()
            },
            bounds=[
                TaskBound.from_dict(bound) for bound in data.get("bounds", ())
            ],
            seconds_by_bound={
                k: float(v)
                for k, v in data.get("seconds_by_bound", {}).items()
            },
            task_count=int(data.get("task_count", 0)),
            retries=int(data.get("retries", 0)),
            fault_events=int(data.get("fault_events", 0)),
            trace_id=str(data.get("trace_id", "")),
        )

    def format(self, max_rows: int = 12) -> str:
        from repro.explain.report import format_explanation

        return format_explanation(self, max_rows=max_rows)


def _slack_names(records, slack: Dict[int, float]) -> Dict[str, float]:
    """Slack keyed by task name, disambiguating duplicates by id."""
    named: Dict[str, float] = {}
    seen: Dict[str, int] = {}
    for record in records:
        key = record.name
        if key in named:
            # A duplicate name: re-key both occurrences by task id.
            first_id = seen[key]
            named[f"{key}#{first_id}"] = named.pop(key)
            key = f"{key}#{record.task_id}"
        else:
            seen[key] = record.task_id
        named[key] = slack[record.task_id]
    return named


def explain(result, pool=None, label: str = "sim") -> ExplainedRun:
    """Run the full attribution pipeline over one simulated result.

    ``result`` is a :class:`~repro.sim.engine.SimResult` (or anything
    duck-typed like one). ``pool`` is only needed for results predating
    the embedded capacity snapshot. Results lacking task records (e.g.
    hand-built traces) degrade gracefully: the critical path falls back
    to the latest-finishing trace entry and bounds are classified
    without dependency edges.
    """
    records = list(getattr(result, "task_records", ()) or ())
    if not records:
        records = _records_from_trace(getattr(result, "trace", ()) or ())
    capacities = _timeline.capacities_of(result, pool)
    line = utilization_timeline(result, pool)
    steps = critical_path(records)
    slack = slack_by_task(records, result.makespan_seconds)
    task_bounds = classify_all(records, capacities)
    return ExplainedRun(
        label=label,
        makespan_seconds=result.makespan_seconds,
        resource_capacities=capacities,
        timeline=line,
        average_utilization=average_utilization(result, pool, timeline=line),
        interconnect_utilization_75=interconnect_utilization_75(result)
        if getattr(result, "counters", None) is not None
        else 0.0,
        critical_path=steps,
        slack_seconds=_slack_names(records, slack),
        bounds=task_bounds,
        seconds_by_bound=seconds_by_bound(
            task_bounds, result.makespan_seconds
        ),
        task_count=len(records),
        retries=sum(record.retries for record in records),
        fault_events=len(getattr(result, "fault_events", ()) or ()),
    )


def _records_from_trace(trace):
    """Dependency-free records synthesized from bare trace entries."""
    from repro.sim.trace import TaskRecord

    records = []
    for i, entry in enumerate(trace):
        records.append(
            TaskRecord(
                task_id=-(i + 1),  # never collides with real task ids
                name=entry.name,
                phase=entry.phase,
                start=entry.start,
                end=entry.end,
            )
        )
    return records


# -- collection (the query context's explain sink) ------------------------------


def maybe_collect(result) -> None:
    """Called by the engine after every run: explains ``result`` into
    the query context's explain sink (no-op while explain is off)."""
    sink = _query_context.current().explain
    if sink is None:
        return
    from repro.telemetry import tracing

    label = tracing.current_path() or f"sim #{len(sink)}"
    explained = explain(result, label=label)
    explained.trace_id = tracing.current_trace_id() or ""
    sink.append(explained)


def drain() -> List[ExplainedRun]:
    """Return and clear the ambient sink's explanations ([] while
    explain is off) — bench workers drain after each experiment."""
    sink = _query_context.current().explain
    if not sink:
        return []
    collected = list(sink)
    sink.clear()
    return collected


from repro.explain.diff import RunDiff, diff_runs  # noqa: E402
from repro.explain.report import (  # noqa: E402
    format_diff,
    format_explanation,
)

__all__ = [
    "ELECTRICAL_LIMIT_BYTES_PER_S",
    "ExplainedRun",
    "PathStep",
    "RunDiff",
    "TaskBound",
    "attributed_seconds",
    "average_utilization",
    "classify_all",
    "critical_path",
    "diff_runs",
    "drain",
    "explain",
    "format_diff",
    "format_explanation",
    "interconnect_utilization_75",
    "maybe_collect",
    "seconds_by_bound",
    "slack_by_task",
    "utilization_samples",
    "utilization_timeline",
]
