"""Golden fingerprint of the simulator's output, float for float.

One sha256 pins the exact ``repr`` of every :class:`SimResult` field
over a corpus of seeded random task graphs, each run clean and under
every checked-in fault plan (``tests/data/fault_plans/``). Any change
to a simulated float, a trace order, a task record or a fault event
changes the hash; a refactor of the engine must leave it unchanged.

Graphs are built directly (no operators, no run cache) so the corpus
is independent of test order. Task ids come from a process-global
counter, so records are rendered with graph-relative indices instead.
"""

import hashlib
from pathlib import Path

import numpy as np

from repro import faults
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.sim.engine import SimEngine
from repro.sim.resources import Resource, ResourcePool
from repro.sim.tasks import Task, TaskGraph, chain

PLAN_DIR = Path(__file__).parent / "data" / "fault_plans"

#: Canonical resource names (so the corpus plans' ``nvlink_*`` windows
#: bite), at capacities that put task durations in the millisecond
#: range the plans' bandwidth windows cover.
CAPACITIES = {
    "nvlink_to_gpu": 1000.0,
    "nvlink_to_cpu": 1000.0,
    "gpu_mem_bw": 4000.0,
    "gpu_sm": 8000.0,
    "cpu_mem_bw": 500.0,
    "cpu_cores": 2000.0,
}
NAMES = tuple(CAPACITIES)
KINDS = ("join", "part", "copy", "scan")

GRAPHS = 100
GOLDEN_SHA256 = (
    "41cdac42343b480b9e1d8cd4d5d806d71754edb9b50caca9efc6b9034665800a"
)


def _pool():
    return ResourcePool({n: Resource(n, c) for n, c in CAPACITIES.items()})


def _random_graph(seed):
    """A seeded DAG with barriers, floors, caps and shared dependencies."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(2, 15))
    tasks = []
    for i in range(count):
        kind = KINDS[int(rng.integers(len(KINDS)))]
        name = f"{kind}[{i}]"
        phase = kind if rng.random() < 0.8 else ""
        roll = rng.random()
        if roll < 0.1:
            # Barrier: no demands, no floor -- completes instantly.
            task = Task(name=name, phase=phase)
        else:
            demands = {}
            caps = {}
            for resource in rng.choice(
                NAMES, size=int(rng.integers(1, 4)), replace=False
            ):
                resource = str(resource)
                demands[resource] = float(
                    CAPACITIES[resource] * rng.uniform(0.0005, 0.005)
                )
                if rng.random() < 0.3:
                    caps[resource] = float(
                        CAPACITIES[resource] * rng.uniform(0.2, 0.9)
                    )
            if rng.random() < 0.1:
                demands[str(rng.choice(NAMES))] = 0.0
            min_seconds = (
                float(rng.uniform(0.0005, 0.004)) if roll < 0.3 else 0.0
            )
            task = Task(
                name=name,
                phase=phase,
                demands=demands,
                rate_caps=caps,
                min_seconds=min_seconds,
            )
        if tasks:
            for j in range(i):
                if rng.random() < 0.25:
                    task.after.append(tasks[j])
            if task.after and rng.random() < 0.1:
                # A repeated edge: dependencies count with multiplicity.
                task.after.append(task.after[0])
        tasks.append(task)
    if count > 3 and rng.random() < 0.3:
        # A stream of unrelated tasks, serialized with chain().
        chain([t for t in tasks if not t.after][:3])
    return TaskGraph(tasks)


def _fingerprint(graph, result):
    index = {task.task_id: i for i, task in enumerate(graph.tasks)}
    records = [
        (
            r.name, r.phase, r.start, r.end, sorted(r.demands.items()),
            tuple(index[d] for d in r.dep_ids), r.min_seconds, r.retries,
            r.backoff_seconds, r.active_seconds,
        )
        for r in result.task_records
    ]
    return repr(
        (
            result.makespan_seconds,
            [(e.name, e.phase, e.start, e.end) for e in result.trace],
            sorted(result.resource_busy_units.items()),
            result.occupancy,
            records,
            result.fault_events,
        )
    )


def _outcome(graph, plan):
    try:
        with faults.injected(plan):
            result = SimEngine(_pool()).run(graph)
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}", ()
    return _fingerprint(graph, result), result.fault_events


def test_simulated_results_match_the_golden_fingerprint():
    plans = [None] + [
        FaultPlan.load(path) for path in sorted(PLAN_DIR.glob("*.json"))
    ]
    digest = hashlib.sha256()
    kinds = set()
    errors = 0
    for seed in range(GRAPHS):
        for plan in plans:
            text, events = _outcome(_random_graph(seed), plan)
            digest.update(text.encode())
            digest.update(b"\n")
            kinds.update(event.kind for event in events)
            errors += text.startswith("TaskFailedError")
    # The corpus exercises every engine path the plans can reach.
    assert kinds >= {
        "bandwidth_drop", "bandwidth_restore", "task_transient",
    }
    assert errors > 0
    assert digest.hexdigest() == GOLDEN_SHA256
