"""Group-by aggregation operators (an extension beyond the paper's joins).

Two operators aggregate a relation's payload column grouped by its key:

- :class:`TritonAggregation` — the GPU-partitioned strategy: a
  Hierarchical first pass spreads groups over radix partitions (cached
  in the interleaved hybrid cache), a Shared second pass refines within
  GPU memory, and per-partition scratchpad tables aggregate. Exactly the
  Triton join's skeleton with the probe phase replaced by in-place
  aggregation, so its out-of-core behaviour (graceful degradation,
  TLB quietness) carries over. Functionally, pass 1 is real (one
  counting scatter by the hashed key's radix window) and one grouping
  over the partition-major rows aggregates every partition at once:
  hash partitions are disjoint in keys, so no group spans two of them.
- :class:`NoPartitioningAggregation` — one global aggregation table
  updated with atomics; like the no-partitioning join it cliffs when the
  table outgrows GPU memory or the TLB reach.

Aggregation state is 16 bytes per distinct group (key + accumulator),
so the *group cardinality*, not the input size, decides when state goes
out of core — the interesting regime the paper's joins cannot show.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.hashing.functions import hash_u64, radix_window
from repro.hw.gpu import GpuModel, MemoryRequest
from repro.hw.interconnect import AccessPattern, Op
from repro.hw.tlb import MemSpace
from repro.join.base import CHECKSUM_MOD, Operator
from repro.join.caching import plan_cache
from repro.join.triton import first_pass_task
from repro.kernels.scatter import counting_order_and_offsets
from repro.partition.hierarchical import HierarchicalPartitioner
from repro.partition.planner import RadixPlan, plan_radix_join
from repro.partition.shared import SharedPartitioner
from repro.sim.engine import SimResult
from repro.sim.kernels import GpuKernelBuilder
from repro.sim.tasks import TaskGraph, chain
from repro.units import G_TUPLES

#: Bytes per aggregation table entry: 8-byte group key + 8-byte state.
ENTRY_BYTES = 16
#: Issue slots per input tuple (hash + atomic accumulate with replays).
UPDATE_SLOTS_PER_TUPLE = 4.0
#: Pipeline depth of the partitioned aggregation: the input is refined
#: and aggregated in this many equal chunks (as the Triton join's).
PIPELINE_CHUNKS = 8


class AggregateFunction(enum.Enum):
    """Supported per-group accumulators."""

    SUM = "sum"
    COUNT = "count"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class AggregationResult:
    """Functional outcome: group count plus an order-independent checksum."""

    groups: int
    checksum: int

    @classmethod
    def from_arrays(cls, keys: np.ndarray, values: np.ndarray) -> "AggregationResult":
        mod = np.int64(CHECKSUM_MOD)
        mixed = (keys % mod) ^ (values % mod)
        return cls(groups=int(len(keys)), checksum=int(mixed.sum() % mod))


def _accumulate(
    function: AggregateFunction, keys: np.ndarray, values: np.ndarray
):
    """Vectorized per-group accumulation; returns (group_keys, states).

    Sums accumulate in int64 with wrap-around semantics (like the CUDA
    atomics they model) rather than via float64 ``bincount`` weights,
    which would lose precision for payloads above 2^53.
    """
    group_keys, inverse = np.unique(keys, return_inverse=True)
    values = np.asarray(values, dtype=np.int64)
    if function is AggregateFunction.COUNT:
        states = np.bincount(inverse, minlength=len(group_keys))
    elif function is AggregateFunction.SUM:
        states = np.zeros(len(group_keys), dtype=np.int64)
        with np.errstate(over="ignore"):
            np.add.at(states, inverse, values)
    elif function is AggregateFunction.MIN:
        states = np.full(len(group_keys), np.iinfo(np.int64).max)
        np.minimum.at(states, inverse, values)
    else:
        states = np.full(len(group_keys), np.iinfo(np.int64).min)
        np.maximum.at(states, inverse, values)
    return group_keys.astype(np.int64), states.astype(np.int64)


def _values(relation: Relation) -> np.ndarray:
    """The aggregated column: the first payload, or ones without one."""
    if relation.payload_columns:
        return relation.payloads[next(iter(relation.payloads))]
    return np.ones(len(relation), dtype=np.int64)


def _emit_task(builder: GpuKernelBuilder, groups_nominal: int):
    """Write one entry per group back to CPU memory."""
    return builder.build(
        "emit",
        [
            MemoryRequest(
                total_bytes=groups_nominal * ENTRY_BYTES,
                access_bytes=128,
                op=Op.WRITE,
                space=MemSpace.CPU,
                pattern=AccessPattern.SEQUENTIAL,
            )
        ],
        phase="Emit",
    )


def reference_aggregate(
    relation: Relation, function: AggregateFunction = AggregateFunction.SUM
) -> AggregationResult:
    """Ground-truth aggregation for verification."""
    keys, states = _accumulate(function, relation.keys, _values(relation))
    return AggregationResult.from_arrays(keys, states)


@dataclass
class AggregationRun:
    """One measured aggregation: functional result + simulated cost."""

    name: str
    result: AggregationResult
    seconds: float
    input_rows_nominal: int
    sim: Optional[SimResult] = None

    @property
    def throughput_g_tuples_per_s(self) -> float:
        if self.seconds <= 0:
            raise ConfigurationError("runtime must be positive")
        return self.input_rows_nominal / self.seconds / G_TUPLES


@dataclass(frozen=True)
class AggregationOperator(Operator):
    """A group-by operator: the skeleton over a relation, whose nominal
    group count every hook gets as the fact ``groups_nominal``."""

    function: AggregateFunction = AggregateFunction.SUM

    @functools.cached_property
    def builder(self) -> GpuKernelBuilder:
        return GpuKernelBuilder(GpuModel(self.system))

    def empty_run(self, relation: Relation) -> Optional[AggregationRun]:
        """No rows, no groups: the result of empty arrays, at no cost."""
        if len(relation):
            return None
        empty = relation.keys
        return AggregationRun(self.name, self.result(empty, empty), 0.0, 0)

    def prepare(self, relation: Relation, groups_nominal: int) -> dict:
        if groups_nominal <= 0:
            raise ConfigurationError("groups_nominal must be positive")
        return {"groups_nominal": groups_nominal}

    def functional(self, relation: Relation, **facts):
        """Aggregate the materialized rows: one global grouping."""
        return self.result(
            *_accumulate(self.function, relation.keys, _values(relation))
        )

    def memo_key(self, relation: Relation):
        """The groups are fixed by the function, the result type and the
        key and value columns, whatever the plan: the partitioned and
        global strategies share entries."""
        columns = (relation.keys,)
        if relation.payload_columns:
            columns += (_values(relation),)
        return ("aggregate", self.function, type(self).result), columns

    def result(self, group_keys: np.ndarray, states: np.ndarray):
        """The run's result from its groups' keys and states."""
        return AggregationResult.from_arrays(group_keys, states)

    def record(
        self, relation: Relation, result, sim: SimResult, **facts
    ) -> AggregationRun:
        return AggregationRun(
            self.name, result, sim.makespan_seconds, relation.nominal_rows, sim
        )


@dataclass(frozen=True)
class NoPartitioningAggregation(AggregationOperator):
    """Global-table hash aggregation on the GPU (the baseline)."""

    name = "GPU No-Partitioning Aggregation"

    def build_graph(self, relation: Relation, groups_nominal: int) -> TaskGraph:
        rows = relation.nominal_rows
        table_bytes = groups_nominal * ENTRY_BYTES
        in_gpu = table_bytes <= self.system.gpu_memory_capacity - (1 << 30)
        space = MemSpace.GPU if in_gpu else MemSpace.CPU
        update = self.builder.build(
            name="aggregate",
            phase="Aggregate",
            requests=[
                MemoryRequest(
                    total_bytes=rows * relation.tuple_bytes,
                    access_bytes=128,
                    op=Op.READ,
                    space=MemSpace.CPU,
                    pattern=AccessPattern.SEQUENTIAL,
                ),
                # Read-modify-write of the group's accumulator.
                MemoryRequest(
                    total_bytes=rows * ENTRY_BYTES,
                    access_bytes=ENTRY_BYTES,
                    op=Op.READ,
                    space=space,
                    pattern=AccessPattern.RANDOM,
                    footprint_bytes=table_bytes,
                ),
                MemoryRequest(
                    total_bytes=rows * ENTRY_BYTES,
                    access_bytes=ENTRY_BYTES,
                    op=Op.WRITE,
                    space=space,
                    pattern=AccessPattern.RANDOM,
                    footprint_bytes=table_bytes,
                ),
            ],
            instructions=rows * UPDATE_SLOTS_PER_TUPLE,
            tuples=rows,
        )
        emit = _emit_task(self.builder, groups_nominal)
        return TaskGraph(chain([update, emit]))


@dataclass(frozen=True)
class TritonAggregation(AggregationOperator):
    """GPU-partitioned hash aggregation (the Triton strategy)."""

    name = "GPU Triton Aggregation"
    first_pass = HierarchicalPartitioner()
    second_pass = SharedPartitioner()

    def prepare(self, relation: Relation, groups_nominal: int) -> dict:
        """The radix plan: the groups' state is the build side."""
        facts = super().prepare(relation, groups_nominal)
        facts["plan"] = plan_radix_join(
            groups_nominal, relation.nominal_rows, ENTRY_BYTES, self.system
        )
        return facts

    def functional(self, relation: Relation, plan: RadixPlan, **_):
        """Partition by the pass-1 hash window, then group once.

        Hash partitions are disjoint in keys, so grouping the
        partition-major rows as one array gives each partition's groups
        and states, with no cross-partition merge.
        """
        bits1 = min(plan.bits1, 10)
        (keys, values), _ = counting_order_and_offsets(
            radix_window(hash_u64(relation.keys), bits1),
            1 << bits1,
            columns=(relation.keys, _values(relation)),
        )
        return self.result(*_accumulate(self.function, keys, values))

    def build_graph(
        self, relation: Relation, groups_nominal: int, plan: RadixPlan
    ) -> TaskGraph:
        rows = relation.nominal_rows
        tuple_bytes = relation.tuple_bytes
        state_bytes = float(rows * tuple_bytes)
        cache = plan_cache(state_bytes, self.system.gpu_memory_capacity)
        scratch = self.system.gpu.usable_scratchpad_bytes

        # Pass 1 partitions the input into the hybrid cache; then, per
        # chunk, the spilled state is copied in, refined and aggregated.
        g = cache.gpu_fraction
        tasks = [
            first_pass_task(
                self.builder, self.first_pass, rows, tuple_bytes,
                plan.fanout1, g, self.system,
            )
        ]
        # The chunks are equal shares, so they issue the same requests.
        chunk_rows = rows / PIPELINE_CHUNKS
        chunk_bytes = chunk_rows * tuple_bytes
        spilled = chunk_bytes * (1 - g)
        chunk_requests = [
            MemoryRequest(
                total_bytes=chunk_bytes,
                access_bytes=128,
                op=Op.READ,
                space=MemSpace.GPU,
                pattern=AccessPattern.SEQUENTIAL,
            )
        ]
        if spilled > 0:
            chunk_requests.append(
                MemoryRequest(
                    total_bytes=spilled,
                    access_bytes=128,
                    op=Op.READ,
                    space=MemSpace.CPU,
                    pattern=AccessPattern.SEQUENTIAL,
                )
            )
        slots = chunk_rows * UPDATE_SLOTS_PER_TUPLE
        if plan.bits2:
            fanout2 = 1 << plan.bits2
            profile = self.second_pass.write_profile(
                fanout2, tuple_bytes, scratch, MemSpace.GPU
            )
            chunk_requests.append(
                MemoryRequest(
                    total_bytes=chunk_bytes,
                    access_bytes=profile.flush_bytes,
                    op=Op.WRITE,
                    space=MemSpace.GPU,
                    pattern=AccessPattern.RANDOM,
                    stream_count=fanout2,
                )
            )
            slots += chunk_rows * profile.issue_slots_per_tuple
        tasks.extend(
            self.builder.build(
                f"aggregate[{c}]",
                chunk_requests,
                instructions=slots,
                phase="Aggregate",
                tuples=chunk_rows,
                sm_fraction=0.5,
            )
            for c in range(PIPELINE_CHUNKS)
        )
        tasks.append(_emit_task(self.builder, groups_nominal))
        return TaskGraph(chain(tasks))
