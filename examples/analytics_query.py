"""Composing operators: an analytics query on the Triton machinery.

Runs a star-schema-style query end to end:

    SELECT   SUM(f.value)
    FROM     fact f JOIN dim d ON f.dim_key = d.key
    WHERE    d.key survives a predicate with 25% selectivity
    GROUP BY f.dim_key

as three composed operators on the simulated AC922: a Bloom-filter
semi-join pushdown (only matching fact tuples travel), the Triton join
(aggregate mode — no result materialization), and a group-by aggregation
over the surviving fact tuples. Every stage is functionally verified.

A final section re-plans the same join through the advisor's
co-processing path: :meth:`~repro.advisor.JoinAdvisor.recommend_split`
searches the CPU/GPU split ratio, the chosen plan is printed, and the
:class:`~repro.join.coprocess.CoProcessingJoin` run's explain summary
shows both processors busy on one join.

Run:
    python examples/analytics_query.py
"""

from __future__ import annotations

import numpy as np

from repro import ac922, context, explain, generate_workload, reference_join
from repro.advisor import JoinAdvisor
from repro.aggregate import (
    AggregateFunction,
    TritonAggregation,
    reference_aggregate,
)
from repro.data.relation import Relation
from repro.join import CoProcessingJoin, TritonJoin
from repro.join.filters import BloomFilteredTritonJoin
from repro.units import GIB

DIM_M_TUPLES = 256        # dimension table (build side)
FACT_M_TUPLES = 2048      # fact table (probe side)
SELECTIVITY = 0.25        # fraction of fact rows whose dim key survives


def main() -> None:
    system = ac922()
    workload = generate_workload(
        DIM_M_TUPLES,
        FACT_M_TUPLES,
        probe_hit_rate=SELECTIVITY,
        scale_divisor=16384,
        seed=71,
    )
    data_gib = workload.total_nominal_bytes / GIB
    print(
        f"Query: join {DIM_M_TUPLES}M-row dim with {FACT_M_TUPLES}M-row "
        f"fact ({data_gib:.0f} GiB), {100 * SELECTIVITY:.0f}% selective, "
        f"then SUM GROUP BY dim key\n"
    )

    # Stage 1+2: filtered join (aggregate mode: the join emits no
    # materialized result; matching fact tuples flow to the aggregation).
    join_op = BloomFilteredTritonJoin(
        system, inner=TritonJoin(system, aggregate=True)
    )
    join_run = join_op.run(workload)
    assert join_run.match == reference_join(workload.build, workload.probe)
    print(
        f"filtered join:  {join_run.seconds * 1e3:8.1f} ms "
        f"(Bloom pass rate {100 * join_run.notes['pass_rate']:.0f}%, "
        f"{join_run.match.matches:,} matches)"
    )

    # Stage 3: aggregate the surviving fact tuples by dim key.
    surviving = workload.probe.take(
        np.nonzero(np.isin(workload.probe.keys, workload.build.keys))[0]
    )
    surviving = surviving.with_nominal_rows(
        int(workload.probe.nominal_rows * SELECTIVITY)
    )
    agg_op = TritonAggregation(system, AggregateFunction.SUM)
    agg_run = agg_op.run(
        surviving, groups_nominal=workload.build.nominal_rows
    )
    assert agg_run.result == reference_aggregate(surviving)
    print(
        f"aggregation:    {agg_run.seconds * 1e3:8.1f} ms "
        f"({agg_run.result.groups:,} groups in the sample)"
    )

    total = join_run.seconds + agg_run.seconds
    tuples = workload.total_nominal_tuples
    print(
        f"\nquery total:    {total * 1e3:8.1f} ms "
        f"({tuples / total / 1e9:.2f} G input tuples/s)"
    )
    print(
        "\nThe pushdown keeps 75% of the fact table off the partitioning"
        "\npath entirely; the join and aggregation then run the same"
        "\nGPU-partitioned, cache-interleaved machinery back to back."
    )

    # Co-processing: let the advisor split the same join across both
    # processors and show what the simulator saw.
    advisor = JoinAdvisor(system)
    plan = advisor.recommend_split(DIM_M_TUPLES, FACT_M_TUPLES)
    print(
        f"\nco-processing plan (advisor): cpu_fraction="
        f"{plan.cpu_fraction:.3f} (seeded at {plan.seeded_fraction:.3f}, "
        f"{len(plan.estimates)} candidates costed)"
        f"\n  predicted {plan.seconds * 1e3:.1f} ms vs "
        f"{min(plan.seconds_all_gpu, plan.seconds_all_cpu) * 1e3:.1f} ms "
        f"best single backend "
        f"({plan.speedup_vs_best_single:.2f}x)"
    )
    # Every simulated run inside the scope is explained into the sink.
    sink = []
    with context.scoped(explain=sink):
        co_run = CoProcessingJoin(
            system, cpu_fraction=plan.cpu_fraction
        ).run(workload)
    assert co_run.match == reference_join(workload.build, workload.probe)
    explained = [run for run in sink if "[split search]" not in run.label]
    print(
        f"co-processing:  {co_run.seconds * 1e3:8.1f} ms "
        f"(vs {join_run.seconds * 1e3:.1f} ms filtered single-GPU join; "
        f"no pushdown here)"
    )
    if explained:
        print()
        print(explain.format_explanation(explained[-1]))


if __name__ == "__main__":
    main()


def run_for_test() -> float:
    """Entry point used by the example smoke tests."""
    main()
    return 0.0
