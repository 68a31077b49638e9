"""Extension: out-of-core sorting on the partitioning substrate.

The paper's partitioners descend from GPU sorting work and its related
work evaluates NVLink sorting; this experiment races the GPU MSD radix
sort (whose scatter passes *are* the Hierarchical/Shared partitioners)
against the multi-core CPU LSD radix sort across data sizes, in the
spirit of the join comparison: the GPU should win by streaming over the
fast interconnect even when the data is far out of core.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bench.harness import ExperimentTable
from repro.data.relation import Relation
from repro.hw.specs import ac922
from repro.sort import CpuRadixSort, GpuRadixSort

DEFAULT_SIZES_M = (256, 1024, 4096)


def _materialized_rows(rows_nominal: int) -> int:
    return max(4096, min(rows_nominal, 200_000))


def _input(rows_nominal: int, seed: int = 41) -> Relation:
    rng = np.random.default_rng(seed)
    materialized = _materialized_rows(rows_nominal)
    keys = rng.integers(0, 2**62, size=materialized).astype(np.int64)
    return Relation(keys, {"attr0": keys}, nominal_rows=rows_nominal)


def run(sizes_m: Sequence[int] = DEFAULT_SIZES_M) -> ExperimentTable:
    """Sort throughput (16-byte tuples, 63-bit keys) by processor."""
    system = ac922()
    table = ExperimentTable(
        experiment="ext_sort",
        title="Extension: out-of-core radix sort, GPU vs. CPU",
        columns=[f"{m}M" for m in sizes_m],
        unit="G tuples/s",
    )
    ops = {
        "CPU Radix Sort (POWER9)": CpuRadixSort(system),
        "GPU Radix Sort (NVLink 2.0)": GpuRadixSort(system),
    }
    # One input per materialized size, rescaled per column: the runs
    # share arrays, so the run cache's functional memo sorts each once.
    inputs = {}
    for name, op in ops.items():
        values = {}
        for m in sizes_m:
            rows = int(m * 1e6)
            size = _materialized_rows(rows)
            if size not in inputs:
                inputs[size] = _input(rows)
            run_result = op.run(inputs[size].with_nominal_rows(rows))
            assert run_result.is_sorted
            values[f"{m}M"] = run_result.throughput_g_tuples_per_s
        table.add_row(name, values)
    table.add_note(
        "expected: the GPU sorts faster than the CPU at every size, "
        "bounded by the interconnect rather than GPU memory capacity"
    )
    return table
