"""Join operator interface, results, and the reference join.

Every operator both *executes* the join (numpy, correct results,
summarized as a match count and payload checksum) and *simulates* it
(a task graph against the hardware model, yielding runtime, throughput,
counters, and phase breakdowns). The two sides share their planning
code, and tests cross-check them.
"""

from __future__ import annotations

import abc
import functools
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro import telemetry
from repro.data.generator import Workload
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.hw.counters import PerfCounters
from repro.hw.specs import SystemSpec
from repro.sim.engine import SimResult
from repro.units import G_TUPLES

#: Bytes per materialized join result tuple (<key, R-payload> pairs in
#: the paper's default early-materialization setup).
RESULT_TUPLE_BYTES = 16


@dataclass(frozen=True)
class JoinMatch:
    """Functional outcome of a join: match count plus checksums.

    Checksums make results comparable without materializing gigabytes:
    ``payload_checksum`` sums the matched build-side payloads and
    ``key_checksum`` sums the matched probe keys (both mod 2**62).
    """

    matches: int
    key_checksum: int
    payload_checksum: int

    @classmethod
    def from_arrays(
        cls, probe_keys: np.ndarray, build_payloads: np.ndarray
    ) -> "JoinMatch":
        # One wrapping int64 sum, then one reduction: 2**62 divides
        # 2**64, so the wrapped sum is exact modulo 2**62.
        mod = np.int64(2**62)
        return cls(
            matches=int(len(probe_keys)),
            key_checksum=int(probe_keys.sum(dtype=np.int64) % mod),
            payload_checksum=int(build_payloads.sum(dtype=np.int64) % mod),
        )


#: The summary of a join that matched nothing.
NO_MATCH = JoinMatch(matches=0, key_checksum=0, payload_checksum=0)


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
        raise_bw = 75e9
        return self.counters.interconnect_utilization(raise_bw, self.seconds)

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

    A workload with an empty side never reaches the operator: the join
    matches nothing, and every operator's planner needs rows on both
    sides (a filter, an operator's own bloom filter among them, may
    leave a side empty). No operator runs, so that run costs zero
    seconds and records no telemetry.
    """
    @functools.wraps(run_method)
    def wrapper(self, workload):
        if len(workload.build) == 0 or len(workload.probe) == 0:
            return JoinRun(
                name=getattr(self, "name", type(self).__name__),
                workload=workload,
                match=NO_MATCH,
                seconds=0.0,
                counters=PerfCounters(),
                uses_gpu=False,
            )
        if not telemetry.recording():
            started = time.perf_counter()
            result = run_method(self, workload)
            telemetry.registry.observe(
                "join.run_seconds", time.perf_counter() - started
            )
            return result
        name = getattr(self, "name", type(self).__name__)
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

    wrapper.__wrapped_by_run_cache__ = True
    return wrapper


class JoinOperator(abc.ABC):
    """An equi-join operator bound to one system spec."""

    name: str
    uses_gpu: bool = True

    def __init__(self, system: SystemSpec) -> None:
        self.system = system

    def __init_subclass__(cls, **kwargs) -> None:
        """Memoize each concrete operator's ``run`` across experiments.

        The wrapper (see :mod:`repro.join.run_cache`) is inert until the
        cache is explicitly enabled — the benchmark CLI does, tests that
        monkeypatch operator internals never see it.
        """
        super().__init_subclass__(**kwargs)
        run = cls.__dict__.get("run")
        if run is not None and not getattr(
            run, "__wrapped_by_run_cache__", False
        ):
            from repro.join import run_cache

            cls.run = _traced_run(run_cache.cached_run(run))

    @abc.abstractmethod
    def run(self, workload: Workload) -> JoinRun:
        """Execute and simulate the join for one workload."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.system.name!r})"


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


def attach_out_of_core_notes(run: JoinRun) -> None:
    """Annotate a run with any out-of-core executions its join made.

    The out-of-core executor (:mod:`repro.exec.outofcore`) deposits one
    summary note per execution into the ambient exec context; operators
    call this right after their functional phase to drain the mailbox
    into ``run.notes["out_of_core"]`` (a single dict, or a list when one
    join fanned out into several executions — the co-processing split
    joins each side separately).
    """
    from repro.exec import context as exec_context

    notes = exec_context.consume_notes()
    if notes:
        run.notes["out_of_core"] = notes[0] if len(notes) == 1 else notes


def split_gpu_cpu(total: float, gpu_fraction: float) -> Tuple[float, float]:
    """Split an amount of traffic between GPU-resident and spilled parts."""
    if not 0.0 <= gpu_fraction <= 1.0:
        raise ConfigurationError("gpu_fraction must be in [0, 1]")
    gpu_part = total * gpu_fraction
    return gpu_part, total - gpu_part
