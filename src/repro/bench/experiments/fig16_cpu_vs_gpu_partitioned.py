"""Figure 16: CPU-partitioned vs. GPU-partitioned join (+ co-processing).

Pits the reimplemented Sioulas-style CPU-partitioned radix join against
the Triton join (panel a: end-to-end throughput) and compares the raw
partitioning rates of the two processors (panel b). The shape that must
reproduce: the GPU partitions 1.5-1.7x faster than the CPU, and the
Triton join ends up 1.2-1.3x faster end-to-end.

Panel (c) extends the figure beyond the paper: instead of *choosing*
a processor, the cost-based co-processing join
(:class:`repro.join.coprocess.CoProcessingJoin`) splits the same join's
partition ranges across both processors concurrently, with the split
fraction searched by :meth:`repro.advisor.JoinAdvisor.recommend_split`.
The row to beat is the max of panel (a)'s single-backend rows at every
size — the CI gate (``tools/bench_diff.py --check-coprocess
fig16-explain.json``) checks the attribution invariants, then holds the
co-processing run to that plus both resource pools staying busy.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.bench.experiments.fig04_partition_locations import (
    cpu_partition_throughput,
    gpu_partition_throughput,
)
from repro.bench.harness import ExperimentTable
from repro.bench.workloads import DEFAULT_SCALE_DIVISOR, default_workload
from repro.hw.specs import ac922
from repro.hw.tlb import MemSpace
from repro.join import CoProcessingJoin, CpuPartitionedJoin, TritonJoin
from repro.units import GIB

DEFAULT_SIZES = (128, 512, 2048)
TUPLE_BYTES = 16


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    scale_divisor: float = DEFAULT_SCALE_DIVISOR,
) -> Tuple[ExperimentTable, ExperimentTable, ExperimentTable]:
    """Regenerate Figure 16 (a) and (b), plus the co-processing panel (c)."""
    system = ac922()
    columns = [f"{size}M" for size in sizes]

    # One pass per size so the explain document's simulated runs come out
    # grouped and index-aligned per size: CPU-partitioned, Triton, then
    # the co-processing run (its split-search candidates carry a
    # distinct "[split search]" label).
    cpp_op = CpuPartitionedJoin(system)
    triton_op = TritonJoin(system)
    co_op = CoProcessingJoin(system)
    cpp_values = {}
    triton_values = {}
    co_values = {}
    split_notes = []
    for size in sizes:
        workload = default_workload(size, size, scale_divisor=scale_divisor)
        cpp_values[f"{size}M"] = cpp_op.run(workload).throughput_g_tuples_per_s
        triton_values[f"{size}M"] = triton_op.run(
            workload
        ).throughput_g_tuples_per_s
        co_run = co_op.run(workload)
        co_values[f"{size}M"] = co_run.throughput_g_tuples_per_s
        utilization = co_run.notes["utilization"]
        split_notes.append(
            f"{size}M: cpu_fraction={co_run.notes['cpu_fraction']:.3f} "
            f"(idle gpu {utilization['gpu_idle_fraction']:.0%}, "
            f"cpu {utilization['cpu_idle_fraction']:.0%})"
        )

    end_to_end = ExperimentTable(
        experiment="fig16a",
        title="Fig. 16(a): end-to-end join, CPU- vs. GPU-partitioned",
        columns=columns,
        unit="G tuples/s",
    )
    end_to_end.add_row("CPU-Partitioned Radix Join", cpp_values)
    end_to_end.add_row("Triton Join (GPU-Partitioned)", triton_values)
    end_to_end.add_note(
        "paper (a): CPU-partitioned 1.3-1.8, Triton 1.2-1.3x faster"
    )

    partitioning = ExperimentTable(
        experiment="fig16b",
        title="Fig. 16(b): partitioning throughput, CPU vs. GPU",
        columns=columns,
        unit="GiB/s",
    )
    cpu_values = {}
    gpu_values = {}
    for size in sizes:
        data_gib = 2 * size * 1e6 * TUPLE_BYTES / GIB
        fanout = TritonJoin(system).plan(
            default_workload(size, size, scale_divisor=scale_divisor)
        ).fanout1
        cpu_values[f"{size}M"] = cpu_partition_throughput(
            system, data_gib, fanout
        )
        gpu_values[f"{size}M"] = gpu_partition_throughput(
            system, data_gib, fanout, MemSpace.CPU
        )
    partitioning.add_row("CPU", cpu_values)
    partitioning.add_row("GPU (NVLink 2.0)", gpu_values)
    partitioning.add_note("paper (b): CPU 32-41.8 GiB/s, GPU 55.3-63.2 GiB/s")

    coprocessing = ExperimentTable(
        experiment="fig16c",
        title="Fig. 16(c): co-processing both processors vs. either alone",
        columns=columns,
        unit="G tuples/s",
    )
    coprocessing.add_row("CPU-Partitioned Radix Join", cpp_values)
    coprocessing.add_row("Triton Join (GPU-Partitioned)", triton_values)
    coprocessing.add_row("Co-Processing (CPU+GPU)", co_values)
    coprocessing.add_note(
        "split fraction searched by JoinAdvisor.recommend_split "
        "(golden section, seeded by the panel-b throughput ratio)"
    )
    for note in split_notes:
        coprocessing.add_note(note)
    return end_to_end, partitioning, coprocessing
