"""The operator skeleton, the join interface and results, and the
reference join.

Every operator — join, aggregation or sort — both *executes* (numpy,
correct results; a join's summarized as a match count and payload
checksum) and *simulates* (a task graph against the hardware model,
yielding runtime, throughput, counters, and phase breakdowns) through
one skeleton, :class:`Operator`. The two sides share their planning
code, and tests cross-check them; :meth:`Operator.cost` is the
simulated side alone.
"""

from __future__ import annotations

import abc
import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro import telemetry
from repro.data.generator import Workload
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.explain.timeline import ELECTRICAL_LIMIT_BYTES_PER_S
from repro.hw.counters import PerfCounters
from repro.hw.specs import SystemSpec
from repro.partition.planner import RadixPlan, plan_radix_join
from repro.sim.engine import SimEngine, SimResult
from repro.sim.resources import ResourcePool
from repro.sim.tasks import TaskGraph
from repro.units import G_TUPLES

#: Bytes per materialized join result tuple (<key, R-payload> pairs in
#: the paper's default early-materialization setup).
RESULT_TUPLE_BYTES = 16

#: The modulus of a join summary's checksums. 2**62 divides 2**64, so a
#: wrapping int64 sum reduces exactly, and the summaries of disjoint
#: partition ranges merge exactly (:func:`merge_matches`).
CHECKSUM_MOD = 2**62


@dataclass(frozen=True)
class JoinMatch:
    """Functional outcome of a join: match count plus checksums.

    Checksums make results comparable without materializing gigabytes:
    ``payload_checksum`` sums the matched build-side payloads and
    ``key_checksum`` sums the matched probe keys (both mod
    :data:`CHECKSUM_MOD`).
    """

    matches: int
    key_checksum: int
    payload_checksum: int

    @classmethod
    def from_arrays(
        cls, probe_keys: np.ndarray, build_payloads: np.ndarray
    ) -> "JoinMatch":
        # One wrapping int64 sum, then one reduction.
        mod = np.int64(CHECKSUM_MOD)
        return cls(
            matches=int(len(probe_keys)),
            key_checksum=int(probe_keys.sum(dtype=np.int64) % mod),
            payload_checksum=int(build_payloads.sum(dtype=np.int64) % mod),
        )


#: The summary of a join that matched nothing.
NO_MATCH = JoinMatch(matches=0, key_checksum=0, payload_checksum=0)


def merge_matches(left: JoinMatch, right: JoinMatch) -> JoinMatch:
    """Combine two disjoint partition ranges' join summaries exactly."""
    return JoinMatch(
        matches=left.matches + right.matches,
        key_checksum=(left.key_checksum + right.key_checksum) % CHECKSUM_MOD,
        payload_checksum=(left.payload_checksum + right.payload_checksum)
        % CHECKSUM_MOD,
    )


@dataclass
class JoinRun:
    """One measured join execution: functional result + simulated cost."""

    name: str
    workload: Workload
    match: JoinMatch
    seconds: float
    counters: PerfCounters
    sim: Optional[SimResult] = None
    uses_gpu: bool = True
    notes: dict = field(default_factory=dict)

    @property
    def throughput_g_tuples_per_s(self) -> float:
        """The paper's metric: (|R| + |S|) / runtime (section 6.1)."""
        if self.seconds <= 0:
            raise ConfigurationError("runtime must be positive")
        return self.workload.total_nominal_tuples / self.seconds / G_TUPLES

    @property
    def interconnect_utilization(self) -> float:
        """Fig. 14a's metric against the 75 GB/s electrical limit."""
        return self.counters.interconnect_utilization(
            ELECTRICAL_LIMIT_BYTES_PER_S, self.seconds
        )

    @property
    def iommu_requests_per_tuple(self) -> float:
        tuples = self.workload.total_nominal_tuples
        if tuples == 0:
            return 0.0
        return self.counters.iommu_requests / tuples


def _traced_run(run_method):
    """Wrap an operator's ``run`` in telemetry (outermost layer).

    Sits outside the run-cache wrapper so cache hits still appear as
    spans (annotated ``run_cache=hit`` by the cache) and as flight-
    recorder events (``run.end`` with ``cache_hit=true``). Per-run
    latency always lands in the ``join.run_seconds`` timing histogram —
    the registry is always on, and one observation per *run* (not per
    kernel) is what the percentile reports are built from. With
    recording off the wrapper costs one check and a clock read per run
    call.

    A workload with an empty side (a filter may leave one) gets the
    operator's ``empty_run`` before any telemetry or cache lookup.
    """
    @functools.wraps(run_method)
    def wrapper(self, workload):
        empty = self.empty_run(workload)
        if empty is not None:
            return empty
        if not telemetry.recording():
            started = time.perf_counter()
            result = run_method(self, workload)
            telemetry.registry.observe(
                "join.run_seconds", time.perf_counter() - started
            )
            return result
        name = self.name
        telemetry.emit_event("run.start", operator=name)
        # A cache hit is visible as the hits counter moving while the
        # wrapped call runs — the cache layer sits just inside this one.
        hits_before = telemetry.registry.counter("run_cache.hits")
        started = time.perf_counter()
        try:
            with telemetry.span(
                f"run:{name}",
                operator=type(self).__name__,
                build_rows=workload.build.nominal_rows,
                probe_rows=workload.probe.nominal_rows,
            ):
                return run_method(self, workload)
        finally:
            seconds = time.perf_counter() - started
            telemetry.registry.observe("join.run_seconds", seconds)
            telemetry.emit_event(
                "run.end",
                operator=name,
                seconds=seconds,
                cache_hit=(
                    telemetry.registry.counter("run_cache.hits")
                    > hits_before
                ),
            )

    return wrapper


@dataclass(frozen=True)
class Operator(abc.ABC):
    """An operator bound to one system spec: a frozen record of its
    configuration, with the one skeleton joins, aggregations and sorts
    run through.

    :meth:`run` gives an input with nothing to process the family's
    ``empty_run``, with no planning. Otherwise :meth:`prepare` plans the
    run, ``functional`` processes the materialized rows in a
    ``functional`` span, :meth:`simulate` prices the input, and
    ``record`` makes the family's run record; the facts ``prepare``
    returns are keyword arguments to every hook. :meth:`cost` is the
    skeleton without the functional step.
    """

    system: SystemSpec

    def run(self, input, *args, **kwargs):
        """Execute and simulate one input (and the family's further
        inputs, such as an aggregation's group count)."""
        empty = self.empty_run(input)
        if empty is not None:
            return empty
        facts = self.prepare(input, *args, **kwargs)
        facts.update(self.buffers(input, **facts))
        with telemetry.span("functional"):
            output = self.functional(input, **facts)
        sim = self.simulate(input, **facts)
        return self.record(input, output, sim, **facts)

    def cost(self, input, *args, **kwargs) -> SimResult:
        """The simulated run of one input, with no functional step."""
        return self.simulate(input, **self.prepare(input, *args, **kwargs))

    def prepare(self, input, *args, **kwargs) -> dict:
        """Plan one run: the facts the hooks share (none by default)."""
        return {}

    def buffers(self, input, **facts) -> dict:
        """Arrays a run's functional step fills for :meth:`simulate`
        (none by default; a cost-only call has none)."""
        return {}

    @abc.abstractmethod
    def build_graph(self, input, **facts) -> TaskGraph:
        """The simulated execution DAG for one input."""

    def resources(self) -> ResourcePool:
        """The resource pool the graph runs on."""
        return ResourcePool.for_system(self.system)

    def simulate(self, input, **facts) -> SimResult:
        """The input's task graph run on :meth:`resources`, in a
        ``simulate`` span."""
        graph = self.build_graph(input, **facts)
        with telemetry.span("simulate", tasks=len(graph.tasks)):
            return SimEngine(self.resources()).run(graph)


@dataclass(frozen=True)
class JoinOperator(Operator):
    """An equi-join operator on a :class:`Workload`: its own run-cache
    key (:mod:`repro.join.run_cache`). Cost models, task builders and
    ``name`` derive from the fields."""

    #: Whether the operator's runs use the GPU.
    uses_gpu = True

    def __init_subclass__(cls, **kwargs) -> None:
        """Give every subclass its own traced, memoized ``run``.

        The wrapper (see :mod:`repro.join.run_cache`) is inert until the
        cache is explicitly enabled — the benchmark CLI does, tests that
        monkeypatch operator internals never see it. A subclass that
        inherits the skeleton gets a wrapped copy in its own class body
        too, so per-class instrumentation finds it there.
        """
        super().__init_subclass__(**kwargs)
        from repro.join import run_cache

        run = inspect.unwrap(cls.__dict__.get("run", cls.run))
        cls.run = _traced_run(run_cache.cached_run(run))

    def empty_run(self, workload: Workload) -> Optional[JoinRun]:
        """A workload with an empty side matches nothing, at no cost."""
        if len(workload.build) and len(workload.probe):
            return None
        return JoinRun(
            name=self.name,
            workload=workload,
            match=NO_MATCH,
            seconds=0.0,
            counters=PerfCounters(),
            uses_gpu=False,
        )

    def plan(self, workload: Workload) -> RadixPlan:
        """The workload's radix-join plan (pass bits) on this system."""
        return plan_radix_join(
            workload.build.nominal_rows,
            workload.probe.nominal_rows,
            workload.build.tuple_bytes,
            self.system,
        )

    def record(
        self, workload: Workload, match: JoinMatch, sim: SimResult, **facts
    ) -> JoinRun:
        """The run, with the operator's and the executor's notes."""
        run = JoinRun(
            name=self.name,
            workload=workload,
            match=match,
            seconds=sim.makespan_seconds,
            counters=sim.counters,
            sim=sim,
            uses_gpu=self.uses_gpu,
        )
        self.annotate(run, **facts)
        # The out-of-core executor leaves one summary note per execution
        # in the exec context's mailbox; a run takes those its join made.
        from repro.exec import context as exec_context

        notes = exec_context.consume_notes()
        if notes:
            run.notes["out_of_core"] = notes[0] if len(notes) == 1 else notes
        return run

    def annotate(self, run: JoinRun, **facts) -> None:
        """Add the operator's notes to a finished run."""


def reference_join(build: Relation, probe: Relation) -> JoinMatch:
    """Ground-truth equi-join via sorted-array lookup (for verification).

    Joins probe keys against build keys and returns the same summary as
    the operators, so any operator's result can be asserted equal.
    Assumes unique build keys (the paper's PK/FK workloads).
    """
    if len(build) == 0:
        return NO_MATCH
    order = np.argsort(build.keys, kind="stable")
    sorted_keys = build.keys[order]
    if build.payload_columns:
        payload = build.payloads[next(iter(build.payloads))][order]
    else:
        payload = np.zeros(len(build), dtype=np.int64)
    pos = np.searchsorted(sorted_keys, probe.keys)
    pos_clamped = np.minimum(pos, len(sorted_keys) - 1)
    hit = sorted_keys[pos_clamped] == probe.keys
    return JoinMatch.from_arrays(probe.keys[hit], payload[pos_clamped[hit]])


def result_bytes(matches_nominal: float) -> float:
    """Bytes written for materializing a join result."""
    return matches_nominal * RESULT_TUPLE_BYTES


def nominal_matches(workload: Workload) -> float:
    """Expected nominal match count for a PK/FK workload (= |S|)."""
    return float(workload.probe.nominal_rows)


def build_payload_column(relation: Relation) -> np.ndarray:
    """The payload column used as the hash table value.

    Relations without payload columns (the Fig. 22 join-index mode) fall
    back to the key itself, which keeps checksums implementation-
    independent (keys are unique and travel with the tuple through any
    reordering).
    """
    if relation.payload_columns:
        return relation.payloads[next(iter(relation.payloads))]
    return relation.keys


def split_gpu_cpu(total: float, gpu_fraction: float) -> Tuple[float, float]:
    """Split an amount of traffic between GPU-resident and spilled parts."""
    if not 0.0 <= gpu_fraction <= 1.0:
        raise ConfigurationError("gpu_fraction must be in [0, 1]")
    gpu_part = total * gpu_fraction
    return gpu_part, total - gpu_part
