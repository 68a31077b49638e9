"""Golden fingerprints of the simulator's output, float for float.

The engine sha256 pins the exact ``repr`` of every :class:`SimResult`
field over a corpus of seeded random task graphs, each run clean and
under every checked-in fault plan (``tests/data/fault_plans/``). Any
change to a simulated float, a trace order, a task record or a fault
event changes the hash; a refactor of the engine must leave it
unchanged. Those graphs are built directly (no operators, no run
cache) so the corpus is independent of test order.

The builder sha256 pins the graphs the operators build: every task's
demands, rate caps, floor, edges, counters and metadata, plus the
result of simulating it, for each service query template and a set of
operator shapes. A refactor of the kernel costing or of a graph
builder must leave it unchanged.

Task ids come from a process-global counter, so records are rendered
with graph-relative indices instead.
"""

import hashlib
from pathlib import Path

import numpy as np

from repro import faults
from repro.aggregate.group_by import (
    NoPartitioningAggregation,
    TritonAggregation,
)
from repro.data.generator import generate_workload
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.hw.specs import ac922, v100_pcie, xeon_system
from repro.join import (
    CoProcessingJoin,
    CpuRadixJoin,
    MultiGpuTritonJoin,
    TritonJoin,
    run_cache,
)
from repro.partition.prefix_sum import PrefixSumLocation
from repro.service.loadgen import query_templates
from repro.service.plan import execute_plan
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
BUILDER_SHA256 = (
    "05ab4c14d9b50bf5debe9af1b884a0c5f0046fac4d39402b2c6bf834fe41ad68"
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


def _graph_fingerprint(graph):
    index = {task.task_id: i for i, task in enumerate(graph.tasks)}
    return repr(
        [
            (
                task.name, task.phase, list(task.demands.items()),
                list(task.rate_caps.items()), task.min_seconds,
                [index[dep.task_id] for dep in task.after],
                repr(task.counters), list(task.meta.items()),
            )
            for task in graph.tasks
        ]
    )


def _operator_shapes():
    """(label, thunk) pairs: each thunk runs one operator shape."""
    small = generate_workload(512, 512, scale_divisor=65536, seed=3)
    skewed = generate_workload(
        256, 512, scale_divisor=65536, zipf_theta=1.0, seed=5
    )
    huge = generate_workload(4096, 4096, scale_divisor=2**20, seed=9)
    system = ac922()
    yield "triton", lambda: TritonJoin(system).run(small)
    yield "triton-skewed", lambda: TritonJoin(system).run(skewed)
    yield "triton-serial", lambda: TritonJoin(system, overlap=False).run(small)
    yield "triton-spill", lambda: TritonJoin(
        system, cache_bytes=2**30
    ).run(small)
    yield "triton-nocache", lambda: TritonJoin(
        system, degraded=True
    ).run(small)
    yield "triton-gpu-ps", lambda: TritonJoin(
        system, prefix_sum=PrefixSumLocation.GPU
    ).run(small)
    yield "triton-aggregate", lambda: TritonJoin(
        system, aggregate=True
    ).run(small)
    yield "triton-3pass", lambda: TritonJoin(system).run(huge)
    yield "triton-pcie", lambda: TritonJoin(v100_pcie()).run(small)
    yield "multi-gpu", lambda: MultiGpuTritonJoin(system).run(small)
    yield "coprocess", lambda: CoProcessingJoin(
        system, cpu_fraction=0.3
    ).run(small)
    yield "cpu-radix", lambda: CpuRadixJoin(system).run(small)
    yield "cpu-radix-xeon", lambda: CpuRadixJoin(xeon_system()).run(small)
    yield "groupby-triton", lambda: TritonAggregation(system).run(
        small.probe, 2**20
    )
    yield "groupby-nopart", lambda: NoPartitioningAggregation(system).run(
        small.probe, 2**20
    )


def test_built_graphs_match_the_builder_fingerprint(monkeypatch):
    """Every graph an operator builds, task by task, plus its result."""
    recorded = []
    original = SimEngine.run

    def recording_run(engine, graph):
        text = _graph_fingerprint(graph)
        result = original(engine, graph)
        recorded.append(text + _fingerprint(graph, result))
        return result

    monkeypatch.setattr(SimEngine, "run", recording_run)
    was_enabled = run_cache.enabled()
    run_cache.disable()
    try:
        digest = hashlib.sha256()
        shapes = [
            (template["name"], lambda t=template: execute_plan(t))
            for template in query_templates()
        ] + list(_operator_shapes())
        for label, thunk in shapes:
            recorded.clear()
            thunk()
            assert recorded, f"{label} simulated no graph"
            digest.update(label.encode())
            for text in recorded:
                digest.update(text.encode())
                digest.update(b"\n")
    finally:
        if was_enabled:
            run_cache.enable()
    assert digest.hexdigest() == BUILDER_SHA256
