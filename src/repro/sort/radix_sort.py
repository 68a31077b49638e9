"""Out-of-core MSD radix sort built on the GPU partitioners.

The sort runs as repeated partitioning passes over the key's bit
windows, most significant digit first:

- **Pass 1** (out-of-core): partition by the top B1 key bits with the
  Hierarchical algorithm, CPU memory to CPU memory over the link —
  after this pass, buckets are globally ordered and each fits GPU
  memory.
- **Refinement passes** (in-core): each bucket streams to the GPU once
  and is sorted locally (modeled as Shared-partitioner passes over the
  remaining bit windows within GPU memory).

Unlike the joins, sorting orders by the *raw key bits* (no hashing), so
the functional side uses the same bit-window selectors the cost side
plans with.

This mirrors the hybrid sorts of the related work (Stehle & Jacobsen;
the NVLink sorting study the paper cites) and demonstrates the
substrate's claim: any multi-pass scatter operator inherits the Triton
machinery.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.hw.cpu import CpuModel
from repro.hw.gpu import GpuModel, MemoryRequest
from repro.hw.interconnect import AccessPattern, Op
from repro.hw.tlb import MemSpace
from repro.join.base import Operator
from repro.kernels.scatter import counting_order_and_offsets
from repro.partition.hierarchical import HierarchicalPartitioner
from repro.partition.shared import SharedPartitioner
from repro.partition.swwc import CpuSwwcPartitioner
from repro.sim.engine import SimResult
from repro.sim.kernels import CpuTaskBuilder, GpuKernelBuilder
from repro.sim.tasks import TaskGraph, chain
from repro.units import G_TUPLES

#: Key bits to sort by (full 63-bit non-negative int64 range).
KEY_BITS = 63
#: The GPU sort's out-of-core MSD digit: the key's top bits.
FIRST_PASS_BITS = 8
#: In-core refinement digit width (Shared with 8 bits per pass keeps
#: buffers at 32 tuples in a 64 KiB scratchpad for 8-byte keys... the
#: passes run in GPU memory where granularity matters less).
REFINE_BITS = 8
#: The CPU sort's LSD digit width.
DIGIT_BITS = 11


@dataclass
class SortRun:
    """One measured sort: the (verified) functional result + cost."""

    name: str
    rows_nominal: int
    seconds: float
    is_sorted: bool
    passes: int
    sim: Optional[SimResult] = None

    @property
    def throughput_g_tuples_per_s(self) -> float:
        if self.seconds <= 0:
            raise ConfigurationError("runtime must be positive")
        return self.rows_nominal / self.seconds / G_TUPLES


@dataclass(frozen=True)
class _RadixSort(Operator):
    """A sort on the operator skeleton: its input is a relation, its
    functional output the sorted relation, checked for order."""

    def empty_run(self, relation: Relation) -> Optional[SortRun]:
        """No rows are already sorted, at no cost."""
        if len(relation):
            return None
        return SortRun(self.name, 0, 0.0, True, 0)

    def record(
        self, relation: Relation, ordered: Relation, sim: SimResult, **_
    ) -> SortRun:
        return SortRun(
            name=self.name,
            rows_nominal=relation.nominal_rows,
            seconds=sim.makespan_seconds,
            is_sorted=bool(np.all(np.diff(ordered.keys) >= 0)),
            passes=self.passes,
            sim=sim,
        )


@dataclass(frozen=True)
class GpuRadixSort(_RadixSort):
    """MSD radix sort over the fast interconnect."""

    name = "GPU Radix Sort (out-of-core)"
    first_pass = HierarchicalPartitioner()
    refine = SharedPartitioner()
    #: Refinement digit passes over the bits below the MSD digit.
    refine_passes = math.ceil((KEY_BITS - FIRST_PASS_BITS) / REFINE_BITS)
    passes = 1 + refine_passes

    @functools.cached_property
    def builder(self) -> GpuKernelBuilder:
        return GpuKernelBuilder(GpuModel(self.system))

    def functional(self, relation: Relation) -> Relation:
        """MSD pass + per-bucket refinement, all actually executed."""
        # The MSD digit: the key's top FIRST_PASS_BITS of KEY_BITS.
        shifted = relation.keys.astype(np.uint64) >> np.uint64(
            KEY_BITS - FIRST_PASS_BITS
        )
        selector = (shifted & np.uint64((1 << FIRST_PASS_BITS) - 1)).astype(
            np.int64
        )
        # The MSD selector is a dense bit window: one counting scatter
        # stages the buckets and yields their offsets. The per-bucket
        # refinement argsorts below stay — they order raw 63-bit keys.
        order, offsets = counting_order_and_offsets(
            selector, 1 << FIRST_PASS_BITS
        )
        staged = relation.take(order)
        pieces = [
            np.argsort(staged.keys[lo:hi], kind="stable") + lo
            for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist())
            if hi > lo
        ]
        return staged.take(np.concatenate(pieces)) if pieces else staged

    def build_graph(self, relation: Relation) -> TaskGraph:
        """The out-of-core MSD pass, then the in-GPU refinement."""
        rows = relation.nominal_rows
        tuple_bytes = relation.tuple_bytes
        scratch = self.system.gpu.usable_scratchpad_bytes

        # Pass 1: out-of-core MSD scatter, CPU memory to CPU memory.
        work = self.first_pass.gpu_work(
            rows, tuple_bytes, 1 << FIRST_PASS_BITS,
            MemSpace.CPU, MemSpace.CPU, scratch,
        )
        pass1 = self.builder.build(
            "msd_pass", work.requests, instructions=work.issue_slots,
            phase="MSD Pass", tuples=rows,
        )

        # Refinement: each bucket streams to the GPU once (read + write
        # back sorted), with the remaining digits processed in GPU
        # memory at GPU-memory speeds.
        refine_profile = self.refine.write_profile(
            1 << REFINE_BITS, tuple_bytes, scratch, MemSpace.GPU
        )
        passes = self.refine_passes
        refine = self.builder.build(
            "refine",
            [
                MemoryRequest(
                    total_bytes=rows * tuple_bytes,
                    access_bytes=128,
                    op=Op.READ,
                    space=MemSpace.CPU,
                    pattern=AccessPattern.SEQUENTIAL,
                    duplex=True,
                ),
                MemoryRequest(
                    total_bytes=rows * tuple_bytes * max(passes - 1, 0) * 2,
                    access_bytes=refine_profile.flush_bytes,
                    op=Op.WRITE,
                    space=MemSpace.GPU,
                    pattern=AccessPattern.RANDOM,
                    stream_count=1 << REFINE_BITS,
                ),
                MemoryRequest(
                    total_bytes=rows * tuple_bytes,
                    access_bytes=128,
                    op=Op.WRITE,
                    space=MemSpace.CPU,
                    pattern=AccessPattern.SEQUENTIAL,
                    duplex=True,
                ),
            ],
            instructions=rows * passes * refine_profile.issue_slots_per_tuple,
            phase="Refine",
            tuples=rows,
        )
        return TaskGraph(chain([pass1, refine]))


@dataclass(frozen=True)
class CpuRadixSort(_RadixSort):
    """Multi-core LSD radix sort baseline on one CPU socket.

    The classic Wassenberg & Sanders-style engineering the paper's SWWC
    partitioning descends from: ``ceil(KEY_BITS / DIGIT_BITS)`` stable
    counting passes, each streaming the data through CPU memory with
    SWWC write combining. Functionally delegates to numpy's stable sort
    (same result); the cost side reuses :class:`CpuSwwcPartitioner`.
    """

    name = "CPU Radix Sort"
    passes = math.ceil(KEY_BITS / DIGIT_BITS)

    @functools.cached_property
    def builder(self) -> CpuTaskBuilder:
        return CpuTaskBuilder(CpuModel(self.system.cpu))

    def functional(self, relation: Relation) -> Relation:
        return relation.take(np.argsort(relation.keys, kind="stable"))

    def build_graph(self, relation: Relation) -> TaskGraph:
        """One task: every counting pass's SWWC traffic and work."""
        rows = float(relation.nominal_rows)
        per_pass = CpuSwwcPartitioner(self.builder.cpu).work(
            rows, relation.tuple_bytes, 1 << DIGIT_BITS
        )
        return TaskGraph([
            self.builder.build(
                "lsd_passes",
                read_bytes=self.passes * per_pass.read_bytes,
                write_bytes=self.passes * per_pass.write_bytes,
                operations=self.passes * per_pass.operations,
                phase="LSD Passes",
                tuples=rows,
            )
        ])
