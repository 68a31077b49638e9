"""Extension experiments: multi-GPU scaling and group-by aggregation.

Both build on the paper's machinery (see ``repro.join.multi_gpu`` and
``repro.aggregate``) and probe directions the paper lists as related or
future work: scaling the Triton join across the AC922's two GPUs, and
carrying the GPU-partitioned strategy to group-by aggregation
(section 2.2's claim).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bench.harness import ExperimentTable
from repro.bench.workloads import DEFAULT_SCALE_DIVISOR, default_workload
from repro.data.relation import Relation
from repro.hw.specs import ac922
from repro.join import TritonJoin
from repro.join.multi_gpu import MultiGpuTritonJoin
from repro.aggregate import (
    AggregateFunction,
    NoPartitioningAggregation,
    TritonAggregation,
)

DEFAULT_SIZES = (512, 2048)


def run_multi_gpu(
    sizes: Sequence[int] = DEFAULT_SIZES,
    scale_divisor: float = DEFAULT_SCALE_DIVISOR,
) -> ExperimentTable:
    """Triton join on 1 vs. 2 GPUs (one per AC922 socket)."""
    system = ac922()
    table = ExperimentTable(
        experiment="ext_multi_gpu",
        title="Extension: multi-GPU Triton join",
        columns=[f"{size}M" for size in sizes],
        unit="G tuples/s",
    )
    ops = {
        "1 GPU": TritonJoin(system),
        "2 GPUs (radix ownership + X-bus exchange)": MultiGpuTritonJoin(
            system, gpu_count=2
        ),
    }
    for name, op in ops.items():
        values = {}
        for size in sizes:
            workload = default_workload(size, size, scale_divisor=scale_divisor)
            values[f"{size}M"] = op.run(workload).throughput_g_tuples_per_s
        table.add_row(name, values)
    table.add_note("expected: near-linear scaling, shaped by the exchange")
    return table


def _aggregation_input(rows_nominal: int, groups: int, seed: int = 17) -> Relation:
    rng = np.random.default_rng(seed)
    materialized = max(4096, min(rows_nominal, 250_000))
    keys = rng.integers(1, groups + 1, size=materialized).astype(np.int64)
    values = rng.integers(0, 1000, size=materialized).astype(np.int64)
    return Relation(
        keys, {"attr0": values}, nominal_rows=rows_nominal, name="F"
    )


def run_aggregation(
    input_m_tuples: float = 2048.0,
    group_counts: Sequence[int] = (1_000_000, 100_000_000, 2_000_000_000),
) -> ExperimentTable:
    """Group-by aggregation: partitioned vs. global-table, by group count."""
    system = ac922()
    rows = int(input_m_tuples * 1e6)
    table = ExperimentTable(
        experiment="ext_aggregation",
        title=f"Extension: group-by SUM over {input_m_tuples:.0f}M tuples",
        columns=[f"{g:.0e} groups" for g in group_counts],
        unit="G tuples/s",
    )
    ops = {
        "No-Partitioning Aggregation": NoPartitioningAggregation(
            system, AggregateFunction.SUM
        ),
        "Triton Aggregation": TritonAggregation(system, AggregateFunction.SUM),
    }
    # One input per materialized group universe, shared by the runs, so
    # the run cache's functional memo groups each once.
    inputs = {}
    for name, op in ops.items():
        values = {}
        for groups in group_counts:
            universe = min(groups, 100_000)
            if universe not in inputs:
                inputs[universe] = _aggregation_input(rows, universe)
            run = op.run(inputs[universe], groups_nominal=groups)
            values[f"{groups:.0e} groups"] = run.throughput_g_tuples_per_s
        table.add_row(name, values)
    table.add_note(
        "expected: the global table cliffs once 16 B x groups exceeds "
        "GPU memory / TLB reach; the partitioned strategy does not"
    )
    return table


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    scale_divisor: float = DEFAULT_SCALE_DIVISOR,
):
    """Both extension tables."""
    return run_multi_gpu(sizes, scale_divisor), run_aggregation()
