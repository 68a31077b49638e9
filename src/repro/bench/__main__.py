"""Command-line experiment runner.

Run any paper experiment (or all of them) from the shell::

    python -m repro.bench list
    python -m repro.bench fig13
    python -m repro.bench fig13 --sizes 128,2048 --divisor 16384
    python -m repro.bench all --divisor 65536
    python -m repro.bench all --jobs 4

Each experiment prints the same table its benchmark produces; the
``--divisor`` flag trades functional-array size for speed (cost models
always use nominal sizes). ``--jobs N`` fans the ``all`` run out over N
worker processes; output stays in deterministic experiment order
regardless of completion order, and a per-experiment timing table is
appended. Identical (operator, workload) runs shared between figures
are memoized (see :mod:`repro.join.run_cache`); ``--no-cache`` turns
that off. With ``--jobs`` the cache is per worker process (hits only
within each worker's share of the experiments); workers report their
hit/miss tallies as metrics deltas that merge into one registry — the
identical code path the serial runner reads. To profile one experiment,
run the module under cProfile: ``python -m cProfile -s cumulative -m
repro.bench fig13``.

``--memory-budget 512M`` activates an ambient out-of-core
:class:`repro.exec.ExecutionConfig`: any join whose materialized
relations exceed the budget is radix-spilled to disk shards and
streamed back morsel by morsel (``--oc-workers N`` fans the morsels
out over the persistent worker pool; ``--morsel-rows`` and
``--spill-dir`` tune granularity and shard placement — see
docs/performance.md). With ``all --jobs N`` the same budget also
gates *admission*: experiments declare their peak host memory via a
module-level ``MEMORY_BUDGET_BYTES`` and the parallel scheduler only
keeps a set of experiments in flight whose declared budgets sum under
the cap.

``--trace out.json`` records wall-clock spans (experiment > operator
run > functional/simulate > kernels), each simulated execution's
virtual timeline, and the flight recorder's fault, worker and ladder
instants into one Chrome-trace file for https://ui.perfetto.dev;
``--metrics out.json`` dumps the metrics registry (cache tallies,
kernel path counts). ``--explain out.json`` runs the bottleneck
attribution engine (:mod:`repro.explain`) over every simulated
execution — critical path, per-resource utilization, bound classes —
prints a one-line summary per experiment, and writes the full
explanations as ``{"experiments": {name: [run, ...]}}`` (the input
format of ``tools/bench_diff.py``). Each experiment is one trace root
(``experiment:<name>``), exactly as each service query is, and its
``experiment.start``/``experiment.end`` events fall inside it. All
three work with ``--jobs``: every worker ships its metrics and records
home in one :func:`repro.telemetry.capture` envelope per experiment
(explanations travel beside it) and they are absorbed here. Note that
with the run cache on, a figure that replays a memoized (operator,
workload) run does not re-simulate it, so the explanation appears only
under the experiment that ran it first.

``--events out.jsonl`` writes the flight recorder's structured
lifecycle events (schema: :mod:`repro.telemetry.events`) as JSONL;
without ``--trace`` or ``--explain`` the run records events alone, with
no span timing. ``--prom out.prom`` exports the final metrics registry
in Prometheus text format. Both compose with ``--jobs``. See
docs/observability.md.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time

from repro import context, faults, telemetry
from repro import explain as explain_mod
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import ExperimentTable
from repro.exec import DEFAULT_MORSEL_ROWS, ExecutionConfig, shutdown_pool
from repro.join import run_cache
from repro.telemetry import tracing
from repro.units import parse_bytes

#: Assumed peak host memory for experiments that do not declare their
#: own ``MEMORY_BUDGET_BYTES`` module attribute (admission control for
#: ``all --jobs N --memory-budget SIZE``).
DEFAULT_EXPERIMENT_BUDGET = 256 * 1024 * 1024


def experiment_budget_bytes(name: str) -> int:
    """The experiment's declared peak host memory for job admission."""
    return int(
        getattr(
            ALL_EXPERIMENTS[name],
            "MEMORY_BUDGET_BYTES",
            DEFAULT_EXPERIMENT_BUDGET,
        )
    )


def _explain_summary(runs) -> str:
    """One line summarizing an experiment's collected explanations."""
    dominant = {}
    problems = 0
    for run in runs:
        name = run.dominant_bound() or "unknown"
        dominant[name] = dominant.get(name, 0) + 1
        problems += len(run.verify())
    classes = ", ".join(
        f"{name} x{count}"
        for name, count in sorted(dominant.items(), key=lambda kv: -kv[1])
    )
    line = f"[explain: {len(runs)} simulated runs; dominant {classes}"
    if problems:
        line += f"; INVARIANT PROBLEMS: {problems}"
    return line + "]\n"


def _render_one(name: str, sizes, divisor) -> "tuple[str, list]":
    """Run one experiment; returns (rendered tables, explanation dicts).

    Explanations are drained here — in whichever process ran the
    experiment — so a reused pool worker never re-reports them, and
    they travel to the parent as plain dicts (the JSON document form).
    """
    module = ALL_EXPERIMENTS[name]
    kwargs = {}
    signature = inspect.signature(module.run)
    if sizes is not None and "sizes" in signature.parameters:
        kwargs["sizes"] = sizes
    if divisor is not None and "scale_divisor" in signature.parameters:
        kwargs["scale_divisor"] = divisor
    started = time.time()
    with tracing.trace_query(
        tracing.derive_trace_id("experiment", name),
        name=f"experiment:{name}",
        divisor=divisor,
    ):
        telemetry.emit_event("experiment.start", experiment=name)
        result = module.run(**kwargs)
        elapsed = time.time() - started
        telemetry.emit_event(
            "experiment.end", experiment=name, seconds=elapsed
        )
    telemetry.registry.observe("bench.experiment_seconds", elapsed)
    tables = result if isinstance(result, tuple) else (result,)
    chunks = []
    for table in tables:
        chunks.append(table.format())
        chunks.append("")
    explanations = explain_mod.drain()
    if explanations:
        chunks.append(_explain_summary(explanations))
    chunks.append(f"[{name}: {elapsed:.1f}s]\n")
    return "\n".join(chunks), [run.to_dict() for run in explanations]


def _run_one(name: str, sizes, divisor, explained=None) -> float:
    started = time.time()
    output, explanations = _render_one(name, sizes, divisor)
    print(output)
    if explained is not None and explanations:
        explained.setdefault(name, []).extend(explanations)
    return time.time() - started


def _worker(
    name: str, sizes, divisor, use_cache: bool, telemetry_settings: dict
):
    """Process-pool entry point.

    Returns ``(name, output, seconds, telemetry envelope, explanation
    dicts)``. The experiment runs inside :func:`telemetry.capture` under
    the parent's ``telemetry_settings`` — which carry the parent's
    fault plan, out-of-core config and explain switch — and
    explanations are drained after it, so a pool process reused for
    several experiments never reports the same work twice (summing
    cumulative per-worker stats would).
    """
    if use_cache:
        run_cache.enable()
    started = time.time()
    with telemetry.capture(telemetry_settings) as envelope:
        try:
            output, explanations = _render_one(name, sizes, divisor)
        finally:
            # A worker's morsel pool must not outlive its experiment:
            # the bench pool reuses this process for other experiments,
            # and the tempdir-leak / stray-process guards in CI check
            # for exactly this kind of residue.
            shutdown_pool()
        seconds = time.time() - started
        telemetry.update_process_gauges()
    return name, output, seconds, envelope, explanations


def _timing_table(seconds_by_name, workers=1) -> ExperimentTable:
    """The per-experiment wall-clock summary.

    Cache tallies come from the telemetry metrics registry (the run
    memo's ``run_cache.hits`` / ``run_cache.misses``, the match memo's
    ``run_cache.match_hits`` / ``run_cache.match_misses`` and the
    functional memo's ``run_cache.functional_hits`` /
    ``run_cache.functional_misses``) —
    with ``--jobs`` the workers' deltas were already merged into it, so
    serial and parallel runs read the same counters.
    """
    table = ExperimentTable(
        experiment="timing",
        title="Wall-clock per experiment",
        columns=["seconds"],
        unit="s",
    )
    for name, seconds in seconds_by_name:
        table.add_row(name, {"seconds": round(seconds, 2)})
    table.add_row(
        "total", {"seconds": round(sum(s for _, s in seconds_by_name), 2)}
    )
    for label, prefix in (
        ("run cache", ""),
        ("match memo", "match_"),
        ("functional memo", "functional_"),
    ):
        hits = telemetry.registry.counter(f"run_cache.{prefix}hits")
        misses = telemetry.registry.counter(f"run_cache.{prefix}misses")
        if hits or misses:
            note = f"{label}: {hits} hits, {misses} misses"
            if workers > 1:
                note += (
                    f" (summed over {workers} worker processes; "
                    "each worker has its own cache)"
                )
            table.add_note(note)
    return table


def _run_all(
    sizes, divisor, jobs: int, explained=None, memory_budget=None
) -> None:
    if jobs <= 1:
        timings = [
            (name, _run_one(name, sizes, divisor, explained=explained))
            for name in ALL_EXPERIMENTS
        ]
        print(_timing_table(timings).format())
        return
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    use_cache = run_cache.enabled()
    settings = telemetry.settings()

    names = list(ALL_EXPERIMENTS)
    budgets = {name: experiment_budget_bytes(name) for name in names}
    results = {}
    timings_by_name = {}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        queued = list(names)
        running = {}  # future -> name
        in_flight = 0

        def admit():
            """Submit queued experiments while budget headroom allows.

            Submission == admission here: the executor caps concurrent
            processes at ``jobs``, and never submitting more than the
            memory budget covers means whatever subset is running also
            fits. An oversized experiment is admitted alone rather
            than starved.
            """
            nonlocal in_flight
            index = 0
            while index < len(queued) and len(running) < jobs:
                name = queued[index]
                need = budgets[name]
                if (
                    memory_budget is not None
                    and running
                    and in_flight + need > memory_budget
                ):
                    index += 1
                    continue
                future = pool.submit(
                    _worker, name, sizes, divisor, use_cache, settings
                )
                running[future] = name
                in_flight += need
                queued.pop(index)

        admit()
        printed = 0
        while running:
            done, _ = wait(set(running), return_when=FIRST_COMPLETED)
            for future in done:
                finished = running.pop(future)
                in_flight -= budgets[finished]
                results[finished] = future.result()
            admit()
            # Print the contiguous prefix now available — output stays
            # in deterministic experiment order regardless of completion
            # (and of the admission scheduler's reorderings).
            while printed < len(names) and names[printed] in results:
                name, output, seconds, envelope, explanations = results.pop(
                    names[printed]
                )
                print(output)
                timings_by_name[name] = seconds
                telemetry.absorb(envelope)
                if explained is not None and explanations:
                    explained.setdefault(name, []).extend(explanations)
                printed += 1
    timings = [(name, timings_by_name[name]) for name in names]
    table = _timing_table(timings, workers=jobs)
    if memory_budget is not None:
        table.add_note(
            f"admission control: concurrent experiments capped at "
            f"{memory_budget} declared bytes"
        )
    print(table.format())


def _dispatch(args, sizes, explained, memory_budget) -> int:
    """Run what ``main``'s arguments name; returns the exit code."""
    if args.experiment == "all":
        _run_all(
            sizes,
            args.divisor,
            args.jobs,
            explained=explained,
            memory_budget=memory_budget,
        )
        return 0
    if args.experiment not in ALL_EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; try "
            f"'python -m repro.bench list'",
            file=sys.stderr,
        )
        return 2
    _run_one(args.experiment, sizes, args.divisor, explained=explained)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment name (see 'list'), or 'all', or 'list'",
    )
    parser.add_argument(
        "--sizes",
        help="comma-separated relation sizes in M tuples (e.g. 128,2048)",
    )
    parser.add_argument(
        "--divisor",
        type=float,
        default=None,
        help="nominal-to-materialized scale divisor (default per experiment)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for 'all' (default 1: in-process)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable memoization of identical join runs across figures",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record wall-clock spans + simulated timelines into a "
        "Chrome-trace JSON file (open at https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="dump the metrics registry (cache tallies, kernel path "
        "counts, timing histograms) as JSON",
    )
    parser.add_argument(
        "--faults",
        metavar="PATH",
        default=None,
        help="inject faults from a FaultPlan JSON file (see "
        "docs/robustness.md); an empty plan is a no-op and results "
        "stay byte-identical to a run without --faults",
    )
    parser.add_argument(
        "--explain",
        metavar="PATH",
        default=None,
        help="attribute bottlenecks for every simulated run (critical "
        "path, utilization timelines, bound classes) and write the "
        "explanations as JSON (the tools/bench_diff.py input format)",
    )
    parser.add_argument(
        "--memory-budget",
        metavar="SIZE",
        default=None,
        help="host-memory budget (e.g. 512M, 2GiB): joins whose "
        "relations exceed it spill to disk shards and stream morsels "
        "(docs/performance.md), and with 'all --jobs N' the same "
        "budget caps how many experiments run concurrently by their "
        "declared MEMORY_BUDGET_BYTES",
    )
    parser.add_argument(
        "--oc-workers",
        type=int,
        default=0,
        metavar="N",
        help="morsel-pool worker processes for out-of-core joins "
        "(default 0: morsels run serially in-process)",
    )
    parser.add_argument(
        "--morsel-rows",
        type=int,
        default=None,
        metavar="ROWS",
        help="combined build+probe rows per morsel (default "
        f"{DEFAULT_MORSEL_ROWS})",
    )
    parser.add_argument(
        "--spill-dir",
        metavar="PATH",
        default=None,
        help="parent directory for spill shards (default: system tmp); "
        "the spill manager creates and removes its own subdirectory",
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="turn on the flight recorder and write the structured "
        "event stream (experiment/run lifecycle, spills, morsel "
        "dispatch/steal/recovery, worker death/respawn/stall, faults, "
        "ladder fallbacks) as JSONL — see docs/observability.md",
    )
    parser.add_argument(
        "--prom",
        metavar="PATH",
        default=None,
        help="write the metrics registry in Prometheus text exposition "
        "format (counters as _total, timings as _bucket/_sum/_count)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.experiment == "list":
        for name, module in sorted(ALL_EXPERIMENTS.items()):
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:18s} {doc}")
        return 0

    sizes = None
    if args.sizes:
        try:
            sizes = tuple(int(s) for s in args.sizes.split(","))
        except ValueError:
            parser.error(f"--sizes must be comma-separated integers, got {args.sizes!r}")

    memory_budget = None
    if args.memory_budget:
        try:
            memory_budget = parse_bytes(args.memory_budget)
        except ValueError as error:
            parser.error(str(error))
    exec_config = None
    if (
        memory_budget is not None
        or args.oc_workers
        or args.morsel_rows is not None
        or args.spill_dir is not None
    ):
        exec_config = ExecutionConfig(
            budget_bytes=memory_budget,
            morsel_rows=(
                args.morsel_rows
                if args.morsel_rows is not None
                else DEFAULT_MORSEL_ROWS
            ),
            workers=args.oc_workers,
            spill_dir=args.spill_dir,
        )

    fault_plan = None
    if args.faults:
        fault_plan = faults.FaultPlan.load(args.faults)
        if fault_plan.is_empty():
            # An empty plan must leave every code path (and every output
            # byte) identical to a run without --faults.
            fault_plan = None
        else:
            print(f"[fault plan: {fault_plan.summary()}]", file=sys.stderr)
    if not args.no_cache:
        run_cache.enable()
    explained = {} if args.explain else None
    # Span labels name each explanation (experiment / operator /
    # simulate), so --explain records spans even without --trace.
    if args.trace or args.explain:
        telemetry.set_recording(telemetry.SPANS)
    elif args.events:
        telemetry.set_recording(telemetry.EVENTS)
    try:
        # Everything the run simulates sees the --faults plan, the
        # out-of-core config and the explain sink; --jobs workers adopt
        # them through telemetry.settings().
        with context.scoped(
            fault_plan=fault_plan,
            exec_config=exec_config,
            explain=[] if args.explain else None,
            notes=[],
        ):
            return _dispatch(args, sizes, explained, memory_budget)
    finally:
        # Write artifacts before run_cache.clear(): clearing the cache
        # also resets its registry counters.
        if args.trace:
            telemetry.write_chrome_trace(args.trace)
        if args.metrics:
            telemetry.write_metrics(args.metrics)
        if args.events:
            written = telemetry.events.write_jsonl(
                args.events, tracing.events()
            )
            print(
                f"[events: {written} -> {args.events}]", file=sys.stderr
            )
        if args.prom:
            telemetry.prometheus.write_prometheus(args.prom)
        if args.explain:
            with open(args.explain, "w") as handle:
                json.dump(
                    {"experiments": explained or {}},
                    handle,
                    indent=1,
                    sort_keys=True,
                )
                handle.write("\n")
        shutdown_pool()
        run_cache.disable()
        run_cache.clear()
        telemetry.set_recording(telemetry.OFF)
        tracing.reset()


if __name__ == "__main__":
    raise SystemExit(main())
