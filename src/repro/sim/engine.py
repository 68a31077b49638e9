"""The fluid-flow simulation engine.

Advances simulated time through a task DAG. At every scheduling point the
engine solves a rate-allocation problem: each running task gets a
progress rate bounded by its own rate caps, then rates are scaled down
iteratively on over-committed resources (proportional sharing) until all
resource capacities are respected. The next event is the earliest task
completion at the resulting rates; dependent tasks become ready and the
allocation is re-solved.

Proportional sharing matches the hardware behaviour we need: two
concurrent kernels issuing memory traffic split the NVLink roughly in
proportion to their demand, and a compute-bound kernel coexists with a
transfer without slowing it — which is exactly the concurrent-kernel
overlap the Triton join exploits (section 5.2, Figure 11).

One scheduling loop serves clean and faulted runs. A task starts once
all of its dependencies have finished: per-task indegree counters drop
as predecessors complete, and newly ready tasks wait in a min-heap keyed
by task id, so tasks that become ready together start in creation order.

When a fault plan is ambient (:func:`repro.faults.active`), the loop
also consults it at every scheduling point: bandwidth faults scale
resource capacities over simulated-time windows (a step advances at most
to the next window boundary, so degraded and nominal intervals never
blend), and task faults fail finishing tasks — transiently (retried
after exponential backoff in simulated time, under the plan's
:class:`~repro.faults.RetryPolicy`) or permanently (raising
:class:`~repro.errors.TaskFailedError`). Every injected event lands in
``SimResult.fault_events`` and on the telemetry counters. A clean run is
the empty-plan case of the same loop: nominal capacities throughout, no
boundary clip, no retries.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

from repro import explain, faults, telemetry
from repro.errors import ConfigurationError, SimulationError, TaskFailedError
from repro.faults import FaultEvent
from repro.hw.counters import PerfCounters
from repro.sim.resources import ResourcePool
from repro.sim.tasks import Task, TaskGraph
from repro.sim.trace import (
    OccupancyInterval,
    PhaseBreakdown,
    TaskRecord,
    TraceEntry,
)

_EPSILON = 1e-12
_CONVERGENCE = 1e-9
_MAX_SCALING_ROUNDS = 10_000


def _is_gpu_task(task: Task) -> bool:
    """Whether the task touches GPU-side resources (for ladder routing)."""
    return any(
        name.startswith(("gpu", "nvlink")) for name in task.demands
    )


@dataclass
class SimResult:
    """Outcome of simulating one task graph.

    The engine hands over the timeline as plain rows: :attr:`trace` and
    :attr:`task_records` build their objects on first read, as most runs
    (a service query's) read neither.
    """

    makespan_seconds: float
    counters: PerfCounters
    resource_busy_units: Dict[str, float] = field(default_factory=dict)
    #: Faults injected during this run (empty for clean runs).
    fault_events: Tuple[FaultEvent, ...] = ()
    #: Per-scheduling-step resource draw (units/s), tiling the active
    #: timeline. The raw material for utilization timelines and fig14
    #: re-derivation (see :mod:`repro.explain`).
    occupancy: Tuple[OccupancyInterval, ...] = ()
    #: Nominal capacities of the pool the run was simulated against, so
    #: post-hoc analysis does not need the pool object back.
    resource_capacities: Dict[str, float] = field(default_factory=dict)
    #: ``(name, phase, start, end)`` per timeline entry, in the order the
    #: engine retired them.
    trace_rows: List[Tuple[str, str, float, float]] = field(
        default_factory=list, repr=False
    )
    #: The :class:`TaskRecord` fields, in declaration order, per
    #: completed task, in the order the engine retired them.
    record_rows: List[tuple] = field(default_factory=list, repr=False)

    @cached_property
    def trace(self) -> List[TraceEntry]:
        """Every task occurrence, failed attempts included, by start."""
        entries = [TraceEntry(*row) for row in self.trace_rows]
        entries.sort(key=lambda entry: (entry.start, entry.end))
        return entries

    @cached_property
    def task_records(self) -> Tuple[TaskRecord, ...]:
        """One record per completed task occurrence: dependency edges,
        demands, and retry accounting for critical-path attribution."""
        records = [TaskRecord(*row) for row in self.record_rows]
        records.sort(key=lambda r: (r.start, r.end, r.task_id))
        return tuple(records)

    def phase_breakdown(self) -> PhaseBreakdown:
        """Wall-clock seconds attributed to each phase label.

        Overlapping tasks of different phases split the overlapped wall
        time proportionally to their demand-weighted activity; the
        breakdown's total equals the makespan.
        """
        return PhaseBreakdown.from_trace(self.trace, self.makespan_seconds)

    def resource_utilization(self, pool: ResourcePool) -> Dict[str, float]:
        """Average utilization of each resource over the makespan."""
        if self.makespan_seconds <= 0:
            return {name: 0.0 for name in self.resource_busy_units}
        return {
            name: units / pool.capacity(name) / self.makespan_seconds
            for name, units in self.resource_busy_units.items()
        }


def _merged_occupancy(
    intervals: List[OccupancyInterval],
) -> Tuple[OccupancyInterval, ...]:
    """Coalesce adjacent intervals with identical usage (fewer samples)."""
    merged: List[OccupancyInterval] = []
    for interval in intervals:
        if (
            merged
            and merged[-1].end == interval.start
            and merged[-1].usage == interval.usage
        ):
            merged[-1] = OccupancyInterval(
                start=merged[-1].start,
                end=interval.end,
                usage=merged[-1].usage,
            )
        else:
            merged.append(interval)
    return tuple(merged)


class SimEngine:
    """Simulates task graphs against a resource pool."""

    def __init__(self, pool: ResourcePool) -> None:
        self.pool = pool
        #: Each resource's position in the pool.
        self._order = {name: i for i, name in enumerate(pool.names())}

    # -- rate allocation ------------------------------------------------------

    @staticmethod
    def _base_rate(
        task: Task, capacities: Dict[str, float]
    ) -> Tuple[float, List[Tuple[str, float]]]:
        """A task's rate on an otherwise idle machine, and its draws.

        The rate is bounded by the task's floor and by each resource's
        cap (its own rate cap, else the resource's capacity). The draws
        are the task's positive demands in demand order.
        """
        cap = math.inf
        if task.min_seconds > 0:
            cap = 1.0 / task.min_seconds
        draws = []
        for resource, amount in task.demands.items():
            if amount <= 0:
                continue
            resource_cap = task.rate_caps.get(resource, capacities[resource])
            bound = resource_cap / amount
            if bound < cap:
                cap = bound
            draws.append((resource, amount))
        return cap, draws

    def _allocate_rates(
        self,
        running: List[Task],
        base: Dict[int, Tuple[float, List[Tuple[str, float]]]],
        capacities: Dict[str, float],
    ) -> Tuple[Dict[int, float], Dict[str, float]]:
        """Progress rates (fraction/s) for the running tasks, and the draw.

        Starts every task at its base rate (``base``, by task id) and
        iteratively scales down the users of the most over-committed
        resource until feasible. ``capacities`` are the pool's
        capacities at this step (degraded inside fault windows). The
        draw is the units/s each used resource delivers at the returned
        rates, keyed in the order the running tasks first use them.
        """
        rates: Dict[int, float] = {}
        # Per used resource, the (task_id, amount) draws of tasks at a
        # finite rate, in running order. A task at an infinite rate
        # completes instantly and scaling leaves it infinite, so it
        # never counts.
        users: Dict[str, List[Tuple[int, float]]] = {}
        usage: Dict[str, float] = {}
        for task in running:
            tid = task.task_id
            cap, draws = base[tid]
            rates[tid] = cap
            if cap != math.inf:
                for resource, amount in draws:
                    if resource in users:
                        users[resource].append((tid, amount))
                        usage[resource] += amount * cap
                    else:
                        users[resource] = [(tid, amount)]
                        usage[resource] = amount * cap
        # Ties between equally over-committed resources go to the first
        # in pool order.
        used = sorted(users, key=self._order.__getitem__)

        for _ in range(_MAX_SCALING_ROUNDS):
            worst_name = None
            worst_ratio = 1.0 + _CONVERGENCE
            for name in used:
                ratio = usage[name] / capacities[name]
                if ratio > worst_ratio:
                    worst_ratio = ratio
                    worst_name = name
            if worst_name is None:
                return rates, usage
            scale = 1.0 / worst_ratio
            for tid, _ in users[worst_name]:
                rates[tid] *= scale
            # Each sum runs in running order from zero, as the first did.
            for name in used:
                total = 0.0
                for tid, amount in users[name]:
                    total += amount * rates[tid]
                usage[name] = total
        raise SimulationError("rate allocation did not converge")

    def _effective_capacities(
        self, plan: "faults.FaultPlan", now: float
    ) -> Dict[str, float]:
        """Pool capacities after the plan's bandwidth faults at ``now``."""
        capacities = self.pool.capacities()
        for name, capacity in capacities.items():
            factor = plan.bandwidth_factor(name, now)
            if factor != 1.0:
                capacities[name] = capacity * factor
        return capacities

    # -- main loop --------------------------------------------------------------

    def run(self, graph: TaskGraph) -> SimResult:
        """Simulate the graph to completion and return the result.

        Consults the ambient fault plan (:func:`repro.faults.active`) if
        one is set and it injects anything into the engine; otherwise the
        run is clean. Raises :class:`ConfigurationError` when a task
        demands a resource the pool lacks.
        """
        plan = faults.active()
        if plan is not None and not plan.affects_engine():
            plan = None
        successors = graph.validate()
        names = self.pool.names()
        for task in graph.tasks:
            for resource in task.demands:
                if resource not in names:
                    raise ConfigurationError(
                        f"task {task.name!r} demands unknown resource "
                        f"{resource!r}"
                    )
        graph.reset()

        indegree = {task.task_id: len(task.after) for task in graph.tasks}
        #: min-heap of (task_id, task) whose dependencies have all finished.
        ready = [(task.task_id, task) for task in graph.tasks if not task.after]
        heapq.heapify(ready)
        running: List[Task] = []
        #: min-heap of (resume_time, task_id, task) backing-off retries.
        blocked: List[Tuple[float, int, Task]] = []
        nominal = capacities = self.pool.capacities()
        attempts: Dict[int, int] = {}  # failed attempts so far, per task
        class_retries: Dict[str, int] = {}  # retries spent per task class
        events: List[FaultEvent] = []
        now = 0.0
        trace: List[Tuple[str, str, float, float]] = []
        busy: Dict[str, float] = dict.fromkeys(names, 0.0)
        occupancy: List[OccupancyInterval] = []
        records: List[tuple] = []
        first_start: Dict[int, float] = {}  # dependencies satisfied at
        failed_active: Dict[int, float] = {}  # seconds lost to doomed attempts
        backoff_total: Dict[int, float] = {}  # seconds waited out in backoff

        def resolve_completion(task: Task) -> bool:
            """Handle a task reaching 100% progress at ``now`` under a plan.

            Returns True when the task is genuinely done; False when an
            injected transient fault requeued it for retry. Raises
            :class:`TaskFailedError` on permanent faults and exhausted
            retry budgets.
            """
            attempt = attempts.get(task.task_id, 0)
            fault = plan.task_fault(task.name, task.task_class, attempt)
            if fault is None:
                return True

            label = task.task_class
            # The doomed attempt still occupied the hardware: record it
            # on the timeline under a failed-attempt name.
            trace.append(
                (
                    f"{task.name} [attempt {attempt + 1} failed]",
                    label,
                    task.start_time,
                    now,
                )
            )

            def fail(kind: str, detail: str) -> TaskFailedError:
                events.append(FaultEvent(now, kind, task.name, detail))
                telemetry.registry.count(f"faults.{kind}")
                telemetry.emit_event(
                    "fault.injected", kind=kind, target=task.name,
                    detail=detail,
                )
                return TaskFailedError(
                    f"task {task.name!r} {detail} at t={now:.6f}s",
                    task_name=task.name,
                    phase=label,
                    time_s=now,
                    gpu=_is_gpu_task(task),
                    attempts=attempt + 1,
                )

            policy = plan.retry or faults.DEFAULT_RETRY_POLICY
            if not fault.transient:
                raise fail("task_permanent", "failed permanently")
            if attempt + 1 >= policy.max_attempts:
                raise fail(
                    "retry_exhausted",
                    f"failed {attempt + 1}x, retry budget exhausted",
                )
            budget = policy.budget_for(label)
            used = class_retries.get(label, 0)
            if budget is not None and used >= budget:
                raise fail(
                    "retry_exhausted",
                    f"failed, class {label!r} retry budget exhausted",
                )

            # Transient: requeue the whole task after backoff.
            class_retries[label] = used + 1
            attempts[task.task_id] = attempt + 1
            backoff = policy.backoff(attempt)
            failed_active[task.task_id] = failed_active.get(
                task.task_id, 0.0
            ) + (now - task.start_time)
            backoff_total[task.task_id] = (
                backoff_total.get(task.task_id, 0.0) + backoff
            )
            events.append(
                FaultEvent(
                    now,
                    "task_transient",
                    task.name,
                    f"attempt {attempt + 1} failed; retry after "
                    f"{backoff:g}s backoff",
                )
            )
            telemetry.registry.count("faults.task_transient")
            telemetry.registry.count("faults.retries")
            telemetry.emit_event(
                "fault.injected", kind="task_transient", target=task.name,
                detail=f"attempt {attempt + 1} failed; backoff {backoff:g}s",
            )
            task.remaining_fraction = 1.0
            task.start_time = None
            task.end_time = None
            heapq.heappush(blocked, (now + backoff, task.task_id, task))
            return False

        def complete(task: Task) -> None:
            """Retire a task that reached 100% progress at ``now``."""
            running.remove(task)
            if plan is not None and not resolve_completion(task):
                return
            tid = task.task_id
            # TaskRecord's fields, in declaration order.
            records.append(
                (
                    tid,
                    task.name,
                    task.task_class,
                    first_start[tid],
                    now,
                    dict(task.demands),
                    tuple([dep.task_id for dep in task.after]),
                    task.min_seconds,
                    attempts.get(tid, 0),
                    backoff_total.get(tid, 0.0),
                    failed_active.get(tid, 0.0) + (now - task.start_time),
                )
            )
            trace.append((task.name, task.task_class, task.start_time, now))
            for succ in successors[tid]:
                indegree[succ.task_id] -= 1
                if not indegree[succ.task_id]:
                    heapq.heappush(ready, (succ.task_id, succ))

        #: Per task id, its base rate and draws at ``capacities``.
        base: Dict[int, Tuple[float, List[Tuple[str, float]]]] = {}
        while ready or running or blocked:
            # Release retries whose backoff has elapsed, then start every
            # task whose dependencies have all finished.
            while blocked and blocked[0][0] <= now + _EPSILON:
                _, _, task = heapq.heappop(blocked)
                task.start_time = now
                base[task.task_id] = self._base_rate(task, capacities)
                running.append(task)
            while ready:
                _, task = heapq.heappop(ready)
                task.start_time = now
                first_start[task.task_id] = now
                base[task.task_id] = self._base_rate(task, capacities)
                running.append(task)

            if not running:
                # Everything live is backing off (an acyclic graph always
                # has a ready task otherwise): jump to the earliest resume.
                now = max(now, blocked[0][0])
                continue

            if plan is not None:
                stepped = self._effective_capacities(plan, now)
                if stepped != capacities:
                    capacities = stepped
                    for task in running:
                        base[task.task_id] = self._base_rate(task, capacities)
            rates, usage = self._allocate_rates(running, base, capacities)

            # Time until the earliest completion at current rates, unless
            # zero-work tasks (pure barriers) complete instantly first.
            instant: List[Task] = []
            stalled = None
            dt = math.inf
            for task in running:
                rate = rates[task.task_id]
                if rate == math.inf:
                    instant.append(task)
                elif rate <= _EPSILON:
                    if stalled is None:
                        stalled = task
                else:
                    step = task.remaining_fraction / rate
                    if step < dt:
                        dt = step
            if instant:
                for task in instant:
                    task.end_time = now
                    task.remaining_fraction = 0.0
                    complete(task)
                continue
            if stalled is not None:
                raise SimulationError(
                    f"task {stalled.name!r} cannot make progress"
                )
            if not math.isfinite(dt):
                raise SimulationError("no finite completion time")

            # Clip the step to the next capacity-change boundary and to
            # the next retry resume, so neither is skipped over.
            clipped = False
            boundary = plan.next_boundary(now) if plan is not None else None
            if boundary is not None and now + dt > boundary:
                dt = boundary - now
                clipped = True
            if blocked and now + dt > blocked[0][0]:
                dt = max(blocked[0][0] - now, 0.0)
                clipped = True

            # Advance progress and account busy units.
            end = now + dt
            finished: List[Task] = []
            for task in running:
                progressed = rates[task.task_id] * dt
                for resource, amount in base[task.task_id][1]:
                    busy[resource] += amount * progressed
                task.remaining_fraction -= progressed
                if task.remaining_fraction <= _EPSILON:
                    task.remaining_fraction = 0.0
                    task.end_time = end
                    finished.append(task)
            if dt > 0:
                occupancy.append(OccupancyInterval(now, end, usage))
            now = end
            if not finished and not clipped:
                raise SimulationError("time advanced without completions")
            for task in finished:
                complete(task)

        if len(records) != len(graph.tasks):
            # Tasks on a cycle never become ready.
            raise SimulationError("task graph contains a cycle")

        # Bandwidth windows that actually overlapped the run, rendered
        # as drop/restore instants on the simulated timeline.
        for fault in plan.bandwidth if plan is not None else ():
            if fault.start_s > now:
                continue
            events.append(
                FaultEvent(
                    fault.start_s,
                    "bandwidth_drop",
                    fault.resource,
                    f"capacity x{fault.factor:g}",
                )
            )
            telemetry.registry.count("faults.bandwidth_drop")
            telemetry.emit_event(
                "fault.injected", kind="bandwidth_drop",
                target=fault.resource,
                detail=f"capacity x{fault.factor:g}",
            )
            if math.isfinite(fault.end_s) and fault.end_s <= now:
                events.append(
                    FaultEvent(
                        fault.end_s,
                        "bandwidth_restore",
                        fault.resource,
                        "capacity restored",
                    )
                )
        events.sort(key=lambda e: (e.time_s, e.kind, e.target))
        result = SimResult(
            makespan_seconds=now,
            trace_rows=trace,
            counters=graph.total_counters(),
            resource_busy_units=busy,
            fault_events=tuple(events),
            occupancy=_merged_occupancy(occupancy),
            record_rows=records,
            resource_capacities=nominal,
        )
        # Capture the virtual-time schedule as its own trace track (a
        # no-op off-trace) so one Chrome-trace file shows the host spans
        # alongside the simulated kernel timeline they produced.
        telemetry.add_sim_result(result)
        # Post-hoc attribution (critical path, utilization timelines,
        # bound classes) when ``bench --explain`` turned collection on.
        explain.maybe_collect(result)
        return result
