"""The GPU no-partitioning hash join baseline.

One global hash table over the build relation, probed by the probe
relation — no data reorganization. On a GPU with a fast interconnect
this is the natural first approach, and the paper shows exactly where it
breaks (Figs. 13, 14, 19):

- While the table fits GPU memory, throughput is high (~2.5 G tuples/s
  with perfect hashing).
- Once the table outgrows GPU memory it lives in (or partially spills
  to) CPU memory: every build/probe access becomes a random 16-byte
  NVLink access, and with linear probing the table also outgrows the
  32 GiB TLB reach, collapsing throughput by orders of magnitude.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from repro.data.generator import Workload
from repro.hashing.bucket_chaining import BucketChainingTable
from repro.hashing.hash_table import HashScheme, TableProfile, profile_for
from repro.hashing.linear_probing import LinearProbingTable
from repro.hashing.perfect import PerfectTable
from repro.hw.gpu import GpuModel, MemoryRequest
from repro.hw.interconnect import AccessPattern, Op
from repro.hw.tlb import MemSpace
from repro.join import base
from repro.join.base import JoinOperator, JoinRun
from repro.sim.kernels import GpuKernelBuilder
from repro.sim.tasks import TaskGraph, chain
from repro.units import next_power_of_two

#: Issue slots per tuple for hashing plus table bookkeeping (atomics on
#: a global table replay heavily compared to scratchpad tables).
BUILD_SLOTS_PER_TUPLE = 6.0
PROBE_SLOTS_PER_TUPLE = 4.0
#: The relation read stream stalls on the dependent per-tuple table
#: accesses; calibrated against the measured in-core NP-join link
#: utilization of ~64% (Fig. 14a) and its 2.5 G tuples/s peak (Fig. 13).
SEQ_READ_EFFICIENCY = 0.64
#: GPU memory the join runtime itself occupies (result allocator,
#: kernel working space); the hash table is cached in GPU memory only
#: if it fits into the remainder.
RUNTIME_RESERVED_BYTES = 1 << 30


@dataclass(frozen=True)
class NoPartitioningJoin(JoinOperator):
    """Global-hash-table join on the GPU.

    Args:
        system: hardware to run on.
        scheme: hashing scheme (the paper evaluates all three).
        cache_bytes: GPU memory used to cache (part of) the hash table.
            ``None`` reproduces the paper's default: the table lives in
            GPU memory iff it fits entirely, otherwise in CPU memory.
    """

    scheme: HashScheme = HashScheme.PERFECT
    cache_bytes: Optional[float] = None

    @property
    def name(self) -> str:
        return f"GPU No-Partitioning Join ({self.scheme.value})"

    @functools.cached_property
    def builder(self) -> GpuKernelBuilder:
        return GpuKernelBuilder(GpuModel(self.system))

    # -- functional -----------------------------------------------------------

    def functional(self, workload: Workload) -> base.JoinMatch:
        table = self._build_table(workload.build)
        idx, values = table.probe(workload.probe.keys)
        return base.JoinMatch.from_arrays(workload.probe.keys[idx], values)

    def memo_key(self, workload: Workload):
        """The summary is fixed by the scheme and the three arrays the
        kernels read."""
        build = workload.build
        arrays = (
            build.keys, base.build_payload_column(build), workload.probe.keys
        )
        return ("no_partitioning", self.scheme), arrays

    def _build_table(self, build):
        values = base.build_payload_column(build)
        if self.scheme is HashScheme.PERFECT:
            return PerfectTable(build.keys, values)
        if self.scheme is HashScheme.LINEAR_PROBING:
            return LinearProbingTable(build.keys, values)
        buckets = next_power_of_two(max(len(build), 1))
        return BucketChainingTable(build.keys, values, buckets=buckets)

    # -- cost -----------------------------------------------------------------

    def _table_profile(self, workload: Workload) -> TableProfile:
        rows = workload.build.nominal_rows
        if self.scheme is HashScheme.BUCKET_CHAINING:
            # A global table needs one bucket per build tuple on average
            # to keep chains short (unlike the in-scratchpad 2048-bucket
            # per-partition tables).
            return profile_for(self.scheme, rows, buckets=next_power_of_two(rows))
        return profile_for(self.scheme, rows)

    def _gpu_fraction(self, table_bytes: float) -> float:
        capacity = self.system.gpu_memory_capacity - RUNTIME_RESERVED_BYTES
        if self.cache_bytes is None:
            # Paper default: all-or-nothing placement.
            return 1.0 if table_bytes <= capacity else 0.0
        cache = min(self.cache_bytes, capacity, table_bytes)
        return cache / table_bytes if table_bytes > 0 else 1.0

    def build_graph(self, workload: Workload) -> TaskGraph:
        """The build kernel, then the probe kernel."""
        profile = self._table_profile(workload)
        g = self._gpu_fraction(profile.table_bytes)
        build_rows = workload.build.nominal_rows
        probe_rows = workload.probe.nominal_rows
        tuple_bytes = workload.build.tuple_bytes

        gpu_foot = profile.table_bytes * g
        cpu_foot = profile.table_bytes - gpu_foot

        def table_requests(accesses: float, op: Op):
            """Random 16-byte table accesses, split by table placement."""
            return [
                MemoryRequest(
                    total_bytes=part * 16,
                    access_bytes=16,
                    op=op,
                    space=space,
                    pattern=AccessPattern.RANDOM,
                    footprint_bytes=max(footprint, 16.0),
                )
                for part, space, footprint in zip(
                    base.split_gpu_cpu(accesses, g),
                    (MemSpace.GPU, MemSpace.CPU),
                    (gpu_foot, cpu_foot),
                )
                if part > 0
            ]

        build_task = self.builder.build(
            name="build",
            phase="Build",
            requests=[
                MemoryRequest(
                    total_bytes=build_rows * tuple_bytes,
                    access_bytes=128,
                    op=Op.READ,
                    space=MemSpace.CPU,
                    pattern=AccessPattern.SEQUENTIAL,
                    efficiency=SEQ_READ_EFFICIENCY,
                )
            ]
            + table_requests(
                build_rows * profile.build_accesses_per_tuple, Op.WRITE
            ),
            instructions=build_rows * BUILD_SLOTS_PER_TUPLE,
            tuples=build_rows,
        )

        probe_requests = [
            MemoryRequest(
                total_bytes=probe_rows * workload.probe.tuple_bytes,
                access_bytes=128,
                op=Op.READ,
                space=MemSpace.CPU,
                pattern=AccessPattern.SEQUENTIAL,
                efficiency=SEQ_READ_EFFICIENCY,
            )
        ] + table_requests(
            probe_rows * profile.probe_accesses_per_tuple, Op.READ
        ) + [
            MemoryRequest(
                total_bytes=base.result_bytes(base.nominal_matches(workload)),
                access_bytes=128,
                op=Op.WRITE,
                space=MemSpace.CPU,
                pattern=AccessPattern.SEQUENTIAL,
            )
        ]
        probe_task = self.builder.build(
            name="probe",
            phase="Probe",
            requests=probe_requests,
            instructions=probe_rows * PROBE_SLOTS_PER_TUPLE,
            tuples=probe_rows,
        )

        return TaskGraph(chain([build_task, probe_task]))

    def annotate(self, run: JoinRun) -> None:
        table_bytes = self._table_profile(run.workload).table_bytes
        run.notes["table_bytes"] = table_bytes
        run.notes["gpu_fraction"] = self._gpu_fraction(table_bytes)
