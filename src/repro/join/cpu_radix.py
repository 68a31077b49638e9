"""The multi-core CPU radix join baseline (section 6.1).

A tuned port of the Balkesen et al. radix join: one SWWC partitioning
pass with 12-14 radix bits (two passes when the SWWC buffers outgrow the
per-core cache — the Xeon's fate above 1408 M tuples), followed by
cache-resident per-partition joins with either bucket chaining or the
array join ("perfect hashing"). The same operator models both the
POWER9 and the Xeon host via their :class:`CpuSpec`s.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.data.generator import Workload
from repro.hashing.hash_table import HashScheme
from repro.hw.cpu import CpuModel
from repro.join import base
from repro.join.base import JoinOperator, JoinRun
from repro.join.batched import batched_radix_join, reference_radix_join
from repro.partition.swwc import CpuSwwcPartitioner
from repro.sim.kernels import CpuTaskBuilder
from repro.sim.tasks import TaskGraph, chain

#: Partition size target: ~128 K tuples keeps a partition's build side
#: plus hash table inside the per-core cache.
TARGET_PARTITION_TUPLES = 131072
#: The paper's single-pass radix window (section 6.1: 12-14 bits).
MIN_RADIX_BITS = 12
MAX_RADIX_BITS = 14

#: CPU operations per tuple in the join phase.
JOIN_OPS = {
    HashScheme.BUCKET_CHAINING: (4.0, 4.0),  # (build, probe)
    HashScheme.PERFECT: (2.0, 2.0),
}


def radix_bits_for(build_rows: int) -> int:
    """Single-pass radix bits (clamped to the paper's 12-14 window)."""
    needed = math.ceil(math.log2(max(build_rows / TARGET_PARTITION_TUPLES, 1)))
    return min(MAX_RADIX_BITS, max(MIN_RADIX_BITS, needed))


@dataclass(frozen=True)
class CpuRadixJoin(JoinOperator):
    """Radix-partitioned hash join on one CPU socket.

    ``reference=True`` switches the functional layer to
    :func:`~repro.join.batched.reference_radix_join`, the per-partition
    Python loop (one scratchpad table per partition); the default
    batched path computes identical results in single vectorized
    passes. Tests cross-check both.
    """

    scheme: HashScheme = HashScheme.PERFECT
    reference: bool = False

    uses_gpu = False

    def __post_init__(self) -> None:
        if self.scheme not in JOIN_OPS:
            raise ValueError(f"unsupported CPU join scheme: {self.scheme}")

    @property
    def name(self) -> str:
        return f"CPU Radix Join ({self.system.cpu.name}, {self.scheme.value})"

    @functools.cached_property
    def builder(self) -> CpuTaskBuilder:
        return CpuTaskBuilder(CpuModel(self.system.cpu))

    @functools.cached_property
    def partitioner(self) -> CpuSwwcPartitioner:
        return CpuSwwcPartitioner(self.builder.cpu)

    # -- functional -----------------------------------------------------------

    def functional(self, workload: Workload) -> base.JoinMatch:
        join = reference_radix_join if self.reference else batched_radix_join
        bits = radix_bits_for(workload.build.nominal_rows)
        return join(workload.build, workload.probe, bits)

    # -- cost -----------------------------------------------------------------

    def build_graph(self, workload: Workload) -> TaskGraph:
        """SWWC partitioning of both relations, then the partition joins."""
        fanout = 1 << radix_bits_for(workload.build.nominal_rows)
        tuple_bytes = workload.build.tuple_bytes
        total_tuples = (
            workload.build.nominal_rows + workload.probe.nominal_rows
        )
        partitioner = self.partitioner
        part_work = partitioner.work(total_tuples, tuple_bytes, fanout)
        partition_task = self.builder.build(
            name="partition",
            phase="Partition",
            read_bytes=part_work.read_bytes,
            write_bytes=part_work.write_bytes,
            operations=part_work.operations,
            tuples=total_tuples,
        )

        build_ops, probe_ops = JOIN_OPS[self.scheme]
        join_reads = total_tuples * tuple_bytes
        result_writes = base.result_bytes(base.nominal_matches(workload))
        # POWER lacks non-temporal stores: result writes pay RFO traffic.
        write_bytes = result_writes * (
            1.0 if partitioner.non_temporal_stores else 2.0
        )
        join_task = self.builder.build(
            name="join",
            phase="Join",
            read_bytes=join_reads,
            write_bytes=write_bytes,
            operations=(
                workload.build.nominal_rows * build_ops
                + workload.probe.nominal_rows * probe_ops
            ),
            tuples=total_tuples,
        )
        return TaskGraph(chain([partition_task, join_task]))

    def annotate(self, run: JoinRun) -> None:
        bits = radix_bits_for(run.workload.build.nominal_rows)
        run.notes["radix_bits"] = bits
        run.notes["passes"] = self.partitioner.passes_needed(1 << bits)
