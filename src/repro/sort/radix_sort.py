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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.hw.gpu import GpuModel, MemoryRequest
from repro.hw.interconnect import AccessPattern, Op
from repro.hw.specs import SystemSpec
from repro.hw.tlb import MemSpace
from repro.join.base import simulate
from repro.kernels.scatter import counting_order_and_offsets
from repro.partition.hierarchical import HierarchicalPartitioner
from repro.partition.shared import SharedPartitioner
from repro.sim.engine import SimResult
from repro.sim.kernels import GpuKernelBuilder
from repro.sim.resources import ResourcePool
from repro.sim.tasks import TaskGraph, chain
from repro.units import G_TUPLES

#: Key bits to sort by (full 63-bit non-negative int64 range).
KEY_BITS = 63
#: In-core refinement digit width (Shared with 8 bits per pass keeps
#: buffers at 32 tuples in a 64 KiB scratchpad for 8-byte keys... the
#: passes run in GPU memory where granularity matters less).
REFINE_BITS = 8


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


class GpuRadixSort:
    """MSD radix sort over the fast interconnect."""

    def __init__(self, system: SystemSpec, first_pass_bits: int = 8) -> None:
        if not 1 <= first_pass_bits <= 16:
            raise ConfigurationError("first_pass_bits must be in [1, 16]")
        self.system = system
        self.first_pass_bits = first_pass_bits
        self.gpu = GpuModel(system)
        self.builder = GpuKernelBuilder(self.gpu)
        self.first_pass = HierarchicalPartitioner()
        self.refine = SharedPartitioner()
        self.name = "GPU Radix Sort (out-of-core)"

    # -- functional -----------------------------------------------------------

    def _functional_sort(self, relation: Relation) -> Relation:
        """MSD pass + per-bucket refinement, all actually executed."""
        # The MSD digit: the key's top ``first_pass_bits`` of KEY_BITS.
        bits = self.first_pass_bits
        shifted = relation.keys.astype(np.uint64) >> np.uint64(KEY_BITS - bits)
        selector = (shifted & np.uint64((1 << bits) - 1)).astype(np.int64)
        # The MSD selector is a dense bit window: one counting scatter
        # stages the buckets and yields their offsets. The per-bucket
        # refinement argsorts below stay — they order raw 63-bit keys.
        order, offsets = counting_order_and_offsets(
            selector, 1 << self.first_pass_bits
        )
        staged = relation.take(order)
        pieces = []
        for index in range(1 << self.first_pass_bits):
            lo, hi = int(offsets[index]), int(offsets[index + 1])
            if hi == lo:
                continue
            inner = np.argsort(staged.keys[lo:hi], kind="stable") + lo
            pieces.append(inner)
        if pieces:
            final_order = np.concatenate(pieces)
            return staged.take(final_order)
        return staged

    # -- cost ------------------------------------------------------------------

    def run(self, relation: Relation) -> SortRun:
        sorted_relation = self._functional_sort(relation)
        is_sorted = bool(np.all(np.diff(sorted_relation.keys) >= 0))

        rows = relation.nominal_rows
        tuple_bytes = relation.tuple_bytes
        scratch = self.system.gpu.usable_scratchpad_bytes
        fanout1 = 1 << self.first_pass_bits

        # Pass 1: out-of-core MSD scatter, CPU memory to CPU memory.
        work = self.first_pass.gpu_work(
            rows, tuple_bytes, fanout1, MemSpace.CPU, MemSpace.CPU, scratch
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
        passes = math.ceil((KEY_BITS - self.first_pass_bits) / REFINE_BITS)
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
        sim = simulate(
            TaskGraph(chain([pass1, refine])),
            ResourcePool.for_system(self.system),
        )
        return SortRun(
            name=self.name,
            rows_nominal=rows,
            seconds=sim.makespan_seconds,
            is_sorted=is_sorted,
            passes=1 + passes,
            sim=sim,
        )


class CpuRadixSort:
    """Multi-core LSD radix sort baseline on one CPU socket.

    The classic Wassenberg & Sanders-style engineering the paper's SWWC
    partitioning descends from: ``ceil(KEY_BITS / digit_bits)`` stable
    counting passes, each streaming the data through CPU memory with
    SWWC write combining. Functionally delegates to numpy's stable sort
    (same result); the cost side reuses :class:`CpuSwwcPartitioner`.
    """

    def __init__(self, system: SystemSpec, digit_bits: int = 11) -> None:
        if not 1 <= digit_bits <= 16:
            raise ConfigurationError("digit_bits must be in [1, 16]")
        self.system = system
        self.digit_bits = digit_bits
        from repro.hw.cpu import CpuModel
        from repro.partition.swwc import CpuSwwcPartitioner

        self.cpu = CpuModel(system.cpu)
        self.partitioner = CpuSwwcPartitioner(self.cpu)
        self.name = "CPU Radix Sort"

    def _functional_sort(self, relation: Relation) -> Relation:
        order = np.argsort(relation.keys, kind="stable")
        return relation.take(order)

    def run(self, relation: Relation) -> SortRun:
        sorted_relation = self._functional_sort(relation)
        is_sorted = bool(np.all(np.diff(sorted_relation.keys) >= 0))

        rows = relation.nominal_rows
        tuple_bytes = relation.tuple_bytes
        passes = math.ceil(KEY_BITS / self.digit_bits)
        per_pass = self.partitioner.work(
            float(rows), tuple_bytes, 1 << self.digit_bits
        )
        mem_bytes = passes * (per_pass.read_bytes + per_pass.write_bytes)
        mem_seconds = mem_bytes / self.system.cpu.memory.bandwidth_bytes_per_s
        compute_seconds = self.cpu.compute_time(passes * per_pass.operations)
        seconds = max(mem_seconds, compute_seconds)
        return SortRun(
            name=self.name,
            rows_nominal=rows,
            seconds=seconds,
            is_sorted=is_sorted,
            passes=passes,
        )
