"""Per-layer timing for the traced benchmark run, measured from outside.

The program is not changed: :func:`install` wraps the public functions
that enter each layer and rebinds every module-level name that refers
to them (``batched_radix_join``, for one, is imported by name into four
join modules, so wrapping ``repro.join.batched`` alone would time
nothing). Each wrapper pushes a frame on a per-thread stack; when the
frame closes, its duration minus the time its nested frames took is
the layer's self time.

A service query runs on a service worker thread, not on the client
thread that waits for it. The worker-side tree is rooted at
``QueryPlan.execute``; its tally is handed to the client keyed by the
result object, and :func:`service_breakdown` splits the rest of the
client's latency into submission, the service's own overhead around
the plan, and queue wait.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

#: Label of the client's root frame: its self time is the operation's
#: time outside every layer.
UNATTRIBUTED = "unattributed"


class Tally:
    """Self and total seconds per label, plus named counts."""

    def __init__(self) -> None:
        self.times = {}  # label -> [self seconds, total seconds]
        self.counts = {}

    def add_time(self, label: str, self_s: float, total_s: float) -> None:
        row = self.times.setdefault(label, [0.0, 0.0])
        row[0] += self_s
        row[1] += total_s

    def add_count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def merge(self, other: "Tally") -> None:
        for label, (self_s, total_s) in other.times.items():
            self.add_time(label, self_s, total_s)
        for name, value in other.counts.items():
            self.add_count(name, value)

    def self_s(self, label: str) -> float:
        return self.times.get(label, (0.0,))[0]

    def total_s(self, label: str) -> float:
        return self.times.get(label, (0.0, 0.0))[1]


class Tracer:
    """Frame stacks per thread, and the hand-off of worker-side tallies."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._handoff = {}
        self._handoff_lock = threading.Lock()

    def _state(self):
        state = self._local.__dict__
        if "stack" not in state:
            state["stack"] = []
            state["tally"] = Tally()
        return state

    def wrap(self, label, fn, observe=None, handoff=False):
        """``fn`` timed as ``label``.

        ``observe(tally, elapsed, args, result)`` records counts after a
        successful call. With ``handoff``, a root frame's tally is parked
        under ``id(result)`` for :meth:`take_handoff`.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state["stack"]
            frame = [0.0]  # seconds spent in nested frames
            stack.append(frame)
            started = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                state["tally"].add_time(label, elapsed - frame[0], elapsed)
                if stack:
                    stack[-1][0] += elapsed
                elif handoff:
                    tally, state["tally"] = state["tally"], Tally()
                    if result is not None:
                        with tracer._handoff_lock:
                            tracer._handoff[id(result)] = tally
            if observe is not None:
                observe(state["tally"], elapsed, args, result)
            return result

        return wrapper

    def operation(self, fn):
        """Run ``fn()`` as one client operation; returns (result, tally).

        The client thread's root frame is labelled ``unattributed``: its
        self time is the operation's time outside every layer frame.
        """
        state = self._state()
        state["tally"] = Tally()
        result = self.wrap(UNATTRIBUTED, fn)()
        tally, state["tally"] = state["tally"], Tally()
        return result, tally

    def take_handoff(self, result) -> Tally:
        with self._handoff_lock:
            return self._handoff.pop(id(result), Tally())


def _rebind(original, replacement) -> int:
    """Point every ``repro`` module-level name bound to ``original`` at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def _wrap_function(tracer, module, name, label, observe=None) -> None:
    original = getattr(module, name)
    wrapped = tracer.wrap(label, original, observe=observe)
    if _rebind(original, wrapped) == 0:
        raise RuntimeError(f"no binding of {module.__name__}.{name} found")


def _wrap_method(tracer, cls, name, label, observe=None, handoff=False):
    original = cls.__dict__[name]
    setattr(
        cls, name,
        tracer.wrap(label, original, observe=observe, handoff=handoff),
    )


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _observe_sim(tally, elapsed, args, result):
    tally.add_count("sim.tasks", len(args[1].tasks))


def _observe_pool(tally, elapsed, args, result):
    tally.add_count("exec.pool_jobs", 1)
    tally.add_count("exec.pool_job_s", result.wall_seconds)
    tally.add_count("exec.pool_lock_wait_s", elapsed - result.wall_seconds)
    tally.add_count("exec.pool_occupancy_sum", result.occupancy)
    tally.add_count("exec.morsels", len(args[2]))
    tally.add_count("exec.steals", result.steals)
    tally.add_count("exec.morsels_recovered", result.recovered)


def install(tracer: Tracer, experiments=()) -> None:
    """Wrap each layer's entry points; ``experiments`` maps bench
    experiment names to their modules (each module's ``run``)."""
    from repro.advisor import JoinAdvisor
    from repro.data import generator
    from repro.exec import outofcore
    from repro.exec.pool import MorselPool
    from repro.exec.spill import SpillManager
    from repro.hashing import batch as hashing_batch
    from repro.join import batched, run_cache
    from repro.join.base import JoinOperator
    from repro.kernels import scatter
    from repro.service.plan import QueryPlan
    from repro.service.server import JoinService
    from repro.sim.engine import SimEngine

    # Importing every operator module first makes __subclasses__ complete.
    import repro.bench.experiments  # noqa: F401
    import repro.join  # noqa: F401

    _wrap_function(tracer, generator, "generate_pk_fk", "data.generate")
    _wrap_function(tracer, batched, "batched_radix_join", "join.functional")
    _wrap_function(tracer, scatter, "counting_order", "kernels.scatter")
    _wrap_function(
        tracer, scatter, "counting_order_and_offsets", "kernels.scatter"
    )
    _wrap_function(
        tracer, hashing_batch, "grouped_bucket_chaining_join", "kernels.probe"
    )
    _wrap_function(tracer, outofcore, "out_of_core_join", "exec.ooc")
    _wrap_function(tracer, run_cache, "run_key", "run_cache.key")

    for cls in set(_subclasses(JoinOperator)):
        if "run" in cls.__dict__:
            _wrap_method(tracer, cls, "run", "join.run")
        if "build_graph" in cls.__dict__:
            _wrap_method(tracer, cls, "build_graph", "join.graph")
    _wrap_method(tracer, SimEngine, "run", "sim.run", observe=_observe_sim)
    _wrap_method(tracer, SpillManager, "spill", "exec.spill")
    _wrap_method(tracer, MorselPool, "run", "exec.pool", observe=_observe_pool)
    _wrap_method(tracer, JoinAdvisor, "recommend_split", "advisor.split")
    _wrap_method(tracer, QueryPlan, "execute", "plan.execute", handoff=True)
    _wrap_method(tracer, JoinService, "submit", "service.submit")
    for name, module in experiments:
        _wrap_function(tracer, module, "run", f"bench.{name}")


def service_breakdown(
    tally: Tally, worker: Tally, handle, wait_s: float
) -> None:
    """Fold a service query's worker-side tally into the client's.

    ``wait_s`` is the client's time from ``submit`` returning to the
    result arriving. It splits into ``handle.wall_seconds`` (the plan
    tree plus the service's own work around it on the worker) and the
    queue wait (before a worker took the query, and the wake-up after).
    That wait was inside the client's root frame, so it comes off the
    root's self time; what stays there is the client's own overhead.
    """
    tally.merge(worker)
    plan_s = worker.total_s("plan.execute")
    tally.add_time("service.exec_overhead", handle.wall_seconds - plan_s, 0.0)
    tally.add_time("service.queue_wait", wait_s - handle.wall_seconds, 0.0)
    tally.times[UNATTRIBUTED][0] -= wait_s


def tiling_error(tally: Tally, wall_s: float, tolerance_s: float):
    """Why this operation's self times fail to tile ``wall_s`` (or None).

    Every self time must be non-negative and together they must sum to
    the operation's wall time.
    """
    negative = {
        label: row[0]
        for label, row in tally.times.items()
        if row[0] < -tolerance_s
    }
    if negative:
        return f"negative self times {negative}"
    total = sum(row[0] for row in tally.times.values())
    if abs(total - wall_s) > tolerance_s:
        return f"self times sum to {total:.6f}s, wall {wall_s:.6f}s"
    return None
