"""Extension: concurrent join service under a query mix.

The headline service experiment: drive a seeded zipf mix of plan
templates (the :mod:`repro.service.loadgen` mix — different sizes,
algorithms, and plan shapes) through :class:`repro.service.server.
JoinService` at several worker counts, and make two claims:

- **Correctness under concurrency.** Every completed query's result
  checksum equals a serial reference executed directly through the
  plan layer, at every worker count. The ``incorrect`` row is all
  zeros.
- **Determinism.** Re-running the same seed at the highest worker
  count reproduces the results digest and the rejected tally exactly —
  scheduling order may vary, results may not.

Both are exported as gauges the perf smoke can snapshot:
``service.incorrect`` (total across all runs, 0 = clean),
``service.digest_stable`` (1.0 = same-seed re-run byte-identical) and
``service.qps`` (highest worker count). The full 1000-query audit runs
via ``tools/load_gen.py`` and is gated by ``tools/bench_diff.py
--check-service``; this table is the in-harness view.
"""

from __future__ import annotations

from repro import telemetry
from repro.bench.harness import ExperimentTable
from repro.service.loadgen import run_load
from repro.units import MIB

DEFAULT_QUERIES = 150
DEFAULT_WORKER_COUNTS = (1, 2, 4)
DEFAULT_SEED = 0
DEFAULT_THETA = 1.2

#: Declared peak host memory for ``repro.bench --jobs`` admission
#: control: the template relations are min-materialized (scale divisor
#: 65536), so even the big-state template stays far under this.
MEMORY_BUDGET_BYTES = 256 * MIB


def run(
    queries: int = DEFAULT_QUERIES,
    worker_counts=DEFAULT_WORKER_COUNTS,
    seed: int = DEFAULT_SEED,
    theta: float = DEFAULT_THETA,
) -> ExperimentTable:
    """Service latency/correctness across worker counts + determinism."""
    worker_counts = tuple(worker_counts)
    columns = [f"workers={n}" for n in worker_counts]
    table = ExperimentTable(
        experiment="ext_service",
        title=f"Extension: concurrent join service "
        f"({queries} queries, zipf theta {theta:g}, seed {seed})",
        columns=columns,
        unit="per run",
    )

    reports = {}
    for workers, column in zip(worker_counts, columns):
        reports[column] = run_load(
            queries=queries,
            workers=workers,
            seed=seed,
            theta=theta,
            recording=None,
        )

    # Determinism claim: same seed, same worker count, second run —
    # the deterministic section must match byte-for-byte.
    rerun = run_load(
        queries=queries,
        workers=worker_counts[-1],
        seed=seed,
        theta=theta,
        recording=None,
    )
    last = reports[columns[-1]]["deterministic"]
    digest_stable = float(
        rerun["deterministic"]["results_digest"] == last["results_digest"]
        and rerun["deterministic"]["rejected"] == last["rejected"]
    )

    def row(label, pick):
        table.add_row(label, {c: pick(reports[c]) for c in columns})

    row("p50 ms", lambda r: r["latency"]["percentiles"]["p50"] * 1e3)
    row("p90 ms", lambda r: r["latency"]["percentiles"]["p90"] * 1e3)
    row("p99 ms", lambda r: r["latency"]["percentiles"]["p99"] * 1e3)
    row("qps", lambda r: r["latency"]["qps"])
    row("completed", lambda r: float(r["latency"]["completed"]))
    row("rejected", lambda r: float(r["deterministic"]["rejected"]))
    row("incorrect", lambda r: float(r["deterministic"]["incorrect"]))

    incorrect_total = sum(
        r["deterministic"]["incorrect"] + r["deterministic"]["failed"]
        for r in list(reports.values()) + [rerun]
    )
    qps = reports[columns[-1]]["latency"]["qps"]
    telemetry.gauge("service.incorrect", float(incorrect_total))
    telemetry.gauge("service.digest_stable", digest_stable)
    telemetry.gauge("service.qps", qps)
    telemetry.update_process_gauges()

    table.add_note(
        f"every completed query checksum equals its serial plan-layer "
        f"reference; digest {last['results_digest']} "
        f"{'reproduced' if digest_stable else 'DID NOT reproduce'} on a "
        f"same-seed re-run at workers={worker_counts[-1]}"
    )
    table.add_note(
        "full 1000-query audit: tools/load_gen.py + tools/bench_diff.py "
        "--check-service against BENCH_service.json"
    )
    return table
