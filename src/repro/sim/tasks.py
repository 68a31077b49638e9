"""Tasks and task graphs for the fluid-flow simulator.

A :class:`Task` is one kernel launch or transfer: it demands total
amounts of shared resources and progresses fluidly — at progress rate
``p`` (fraction of the task per second) it draws ``demand[r] * p`` from
every resource ``r``. All demands complete together, which models how a
GPU kernel's compute overlaps its memory traffic: the task's standalone
duration is the *maximum* of its per-resource times, not their sum.

Per-resource rate caps bound what the task could draw even on an idle
machine: a kernel limited to half the SMs, or a random-access stream
whose achievable link bandwidth is granularity-limited, never exceeds
its cap regardless of free capacity.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.hw.counters import PerfCounters

_task_ids = itertools.count()

#: :class:`PerfCounters`' additive scalar fields, and their getter.
_COUNTER_SCALARS = tuple(
    f.name for f in dataclasses.fields(PerfCounters) if f.name != "stall_seconds"
)
_counter_scalars = operator.attrgetter(*_COUNTER_SCALARS)


@dataclass
class Task:
    """One schedulable unit of work.

    Attributes:
        name: unique-ish human-readable label.
        phase: phase label for breakdowns (e.g. ``"Part 1"``, ``"Join"``).
        demands: total units required per resource name.
        rate_caps: optional per-resource rate limits (units/s).
        min_seconds: lower bound on duration (fixed launch overheads).
        after: tasks that must complete before this one starts.
        counters: hardware counter deltas attributed to this task.
    """

    name: str
    phase: str = ""
    demands: Dict[str, float] = field(default_factory=dict)
    rate_caps: Dict[str, float] = field(default_factory=dict)
    min_seconds: float = 0.0
    after: List["Task"] = field(default_factory=list)
    counters: PerfCounters = field(default_factory=PerfCounters)
    # Free-form metadata (e.g. standalone memory vs compute seconds used
    # for the stall-reason attribution of Figs. 15b and 18f).
    meta: Dict[str, float] = field(default_factory=dict)

    # Scheduling state, managed by the engine.
    task_id: int = field(default_factory=lambda: next(_task_ids))
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    remaining_fraction: float = 1.0

    def __post_init__(self) -> None:
        for resource, amount in self.demands.items():
            if amount < 0:
                raise ConfigurationError(
                    f"task {self.name!r}: negative demand on {resource!r}"
                )
        if self.min_seconds < 0:
            raise ConfigurationError("min_seconds cannot be negative")
        if not self.demands and self.min_seconds == 0:
            # A pure synchronization point (barrier) is allowed but must
            # be explicit: give it an epsilon duration instead of zero so
            # the engine's event loop always advances.
            self.min_seconds = 0.0

    def __hash__(self) -> int:
        return self.task_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Task) and other.task_id == self.task_id

    def depends_on(self, *tasks: "Task") -> "Task":
        """Add predecessors and return self (builder style)."""
        self.after.extend(tasks)
        return self

    @property
    def task_class(self) -> str:
        """The task's class label: its phase, or its name when unphased.

        Retry budgets (:class:`repro.faults.RetryPolicy.class_budgets`)
        and trace breakdowns group tasks by this label.
        """
        return self.phase or self.name

    def standalone_seconds(self) -> float:
        """Duration on an idle machine (max over per-resource times)."""
        times = [self.min_seconds]
        for resource, amount in self.demands.items():
            if amount == 0:
                continue
            cap = self.rate_caps.get(resource)
            if cap is None:
                raise SimulationError(
                    f"task {self.name!r}: no rate cap for {resource!r}; "
                    "standalone time needs caps or an engine run"
                )
            times.append(amount / cap)
        return max(times)

    @property
    def duration(self) -> float:
        if self.start_time is None or self.end_time is None:
            raise SimulationError(f"task {self.name!r} has not run")
        return self.end_time - self.start_time


def chain(tasks: Sequence[Task]) -> List[Task]:
    """Serialize tasks into a stream: each waits for its predecessor."""
    ordered = list(tasks)
    for previous, current in zip(ordered, ordered[1:]):
        current.after.append(previous)
    return ordered


class TaskGraph:
    """A DAG of tasks forming one simulated execution."""

    def __init__(self, tasks: Iterable[Task] = ()) -> None:
        self.tasks: List[Task] = []
        self._ids = set()
        for task in tasks:
            self.add(task)

    def add(self, task: Task) -> Task:
        if task.task_id in self._ids:
            return task
        self.tasks.append(task)
        self._ids.add(task.task_id)
        return task

    def extend(self, tasks: Iterable[Task]) -> None:
        for task in tasks:
            self.add(task)

    def validate(self) -> Dict[int, List[Task]]:
        """Check that the graph is closed: every dependency is in it.

        Returns each task's successors by task id, one entry per
        ``after`` edge (a repeated dependency appears repeatedly). A
        cycle is found by the engine: its tasks never become ready, and
        the run raises :class:`SimulationError` when it ends with tasks
        unfinished.
        """
        successors: Dict[int, List[Task]] = {t.task_id: [] for t in self.tasks}
        for task in self.tasks:
            for dep in task.after:
                if dep.task_id not in self._ids:
                    raise SimulationError(
                        f"task {task.name!r} depends on {dep.name!r} "
                        "which is not in the graph"
                    )
                successors[dep.task_id].append(task)
        return successors

    def reset(self) -> None:
        """Clear scheduling state so the graph can be re-simulated."""
        for task in self.tasks:
            task.start_time = None
            task.end_time = None
            task.remaining_fraction = 1.0

    def total_counters(self) -> PerfCounters:
        """Every task's counters totalled once, field by field in task
        order: the same float sums as merging them task by task."""
        counters = [task.counters for task in self.tasks]
        columns = zip(*map(_counter_scalars, counters))
        total = PerfCounters(
            **{
                name: functools.reduce(operator.add, column, 0.0)
                for name, column in zip(_COUNTER_SCALARS, columns)
            }
        )
        stalls = total.stall_seconds
        for task_counters in counters:
            for category, seconds in task_counters.stall_seconds.items():
                stalls[category] = stalls.get(category, 0.0) + seconds
        return total
