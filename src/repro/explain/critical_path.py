"""Critical-path extraction and per-task slack over recorded schedules.

Works on the :class:`~repro.sim.trace.TaskRecord` list the engine
attaches to every :class:`~repro.sim.engine.SimResult`: each record has
the task's dependency edges, its first-attempt start (the instant its
dependencies were satisfied), and its final completion. The critical
path is the dependency chain that ends at the makespan, walked
backwards through each task's latest-finishing predecessor; per-task
slack is how far a task's completion could slip before the recorded
schedule's makespan moves.

Attribution invariant: the path's waits plus spans tile ``[0,
makespan]`` exactly — every second of the run is attributed to either a
critical task's span (which a retried task further splits into active
time and retry backoff) or a wait edge in front of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import SimulationError
from repro.sim.trace import TaskRecord


@dataclass(frozen=True)
class PathStep:
    """One task on the critical path, plus the wait edge in front of it."""

    record: TaskRecord
    #: Seconds between the previous path task's end (or t=0) and this
    #: task's first-attempt start: dependency wait on an off-path
    #: predecessor, or scheduler idle while everything backed off.
    wait_seconds: float

    @property
    def span_seconds(self) -> float:
        return self.record.span_seconds

    @property
    def attributed_seconds(self) -> float:
        """This step's contribution to the makespan (wait + span)."""
        return self.wait_seconds + self.record.span_seconds

    def to_dict(self) -> dict:
        return {
            "task": self.record.to_dict(),
            "wait_seconds": self.wait_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PathStep":
        return cls(
            record=TaskRecord.from_dict(data["task"]),
            wait_seconds=float(data["wait_seconds"]),
        )


def _by_id(records: Sequence[TaskRecord]) -> Dict[int, TaskRecord]:
    return {record.task_id: record for record in records}


def critical_path(records: Sequence[TaskRecord]) -> List[PathStep]:
    """The longest dependency/wait chain ending at the last completion.

    Starting from the record that finishes last (ties broken by task
    id), repeatedly steps to the latest-finishing dependency. Gaps
    between a predecessor's end and a task's first-attempt start become
    the step's ``wait_seconds``; retry backoff *inside* a span stays on
    the task (exposed via ``record.backoff_seconds``), which is how an
    injected fault shows up as dependency-wait on the path.
    """
    if not records:
        return []
    index = _by_id(records)
    current = max(records, key=lambda r: (r.end, r.task_id))
    chain: List[TaskRecord] = [current]
    while current.dep_ids:
        deps = [index[d] for d in current.dep_ids if d in index]
        if not deps:
            break
        current = max(deps, key=lambda r: (r.end, r.task_id))
        chain.append(current)
    chain.reverse()
    steps: List[PathStep] = []
    previous_end = 0.0
    for record in chain:
        steps.append(
            PathStep(
                record=record,
                wait_seconds=max(record.start - previous_end, 0.0),
            )
        )
        previous_end = record.end
    return steps


def attributed_seconds(steps: Sequence[PathStep]) -> float:
    """Total seconds the path accounts for (== makespan by construction)."""
    return sum(step.attributed_seconds for step in steps)


def _reverse_topological(
    records: Sequence[TaskRecord],
) -> List[TaskRecord]:
    """Records ordered so every successor precedes its dependencies."""
    index = _by_id(records)
    dependents: Dict[int, List[TaskRecord]] = {
        r.task_id: [] for r in records
    }
    for record in records:
        for dep in record.dep_ids:
            if dep in index:
                dependents[dep].append(record)
    # Kahn's algorithm from the sinks backwards: a record is emitted
    # once all its dependents are emitted.
    waiting = {
        r.task_id: len(dependents[r.task_id]) for r in records
    }
    ready = sorted(
        (r for r in records if waiting[r.task_id] == 0),
        key=lambda r: r.task_id,
    )
    ordered: List[TaskRecord] = []
    while ready:
        record = ready.pop()
        ordered.append(record)
        for dep in record.dep_ids:
            if dep not in index:
                continue
            waiting[dep] -= 1
            if waiting[dep] == 0:
                ready.append(index[dep])
    if len(ordered) != len(records):
        raise SimulationError("task records contain a dependency cycle")
    return ordered


def slack_by_task(
    records: Sequence[TaskRecord], makespan: float
) -> Dict[int, float]:
    """Seconds each task could finish later without moving the makespan.

    ``slack(t) = makespan - end(t)`` for sinks; otherwise the minimum
    over successors ``s`` of ``slack(s) + max(0, start(s) - end(t))`` —
    the successor's own slack plus however long it waited on *other*
    dependencies after ``t`` finished. Critical-path tasks of a clean
    run have zero slack.
    """
    index = _by_id(records)
    successors: Dict[int, List[TaskRecord]] = {
        r.task_id: [] for r in records
    }
    for record in records:
        for dep in record.dep_ids:
            if dep in index:
                successors[dep].append(record)
    slack: Dict[int, float] = {}
    for record in _reverse_topological(records):
        succs = successors[record.task_id]
        if not succs:
            slack[record.task_id] = makespan - record.end
        else:
            slack[record.task_id] = min(
                slack[s.task_id] + max(s.start - record.end, 0.0)
                for s in succs
            )
    return slack
