"""CLI for the concurrent join service.

Submit one or more plan-spec JSON files (or the built-in analytics
plan) to a :class:`~repro.service.server.JoinService` and print each
query's per-stage table, result digest, and the service's admission
tallies::

    python -m repro.service --analytics
    python -m repro.service --plan query.json --plan query2.json \\
        --workers 4 --memory-budget 64M --events events.jsonl
    python -m repro.service --analytics --explain
    python -m repro.service --describe --analytics   # plan tree only
    python -m repro.service --analytics --trace-out trace.json --slo

``--memory-budget`` is the admission budget: queries whose estimated
build+probe footprint exceeds it are rejected deterministically at
submission (exit code 1 if any query was rejected or failed). See
``docs/service.md``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import faults as faults_module
from repro.errors import ReproError
from repro.service import analytics_spec, compile_plan
from repro.service.server import JoinService
from repro.telemetry import events, export, tracing
from repro.telemetry import slo as slo_module
from repro.units import parse_bytes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run query plans through the concurrent join service.",
    )
    parser.add_argument(
        "--plan",
        action="append",
        default=[],
        metavar="PATH",
        help="plan-spec JSON file to submit (repeatable)",
    )
    parser.add_argument(
        "--analytics",
        action="store_true",
        help="submit the built-in analytics plan "
        "(the examples/analytics_query.py composition)",
    )
    parser.add_argument(
        "--describe",
        action="store_true",
        help="print each plan's operator tree and exit without executing",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="service worker threads (default 2)",
    )
    parser.add_argument(
        "--memory-budget",
        metavar="SIZE",
        default=None,
        help="admission budget (e.g. 64M, 1GiB): queries whose "
        "estimated relation footprint exceeds it are rejected",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-query wall-clock deadline (cooperative: checked "
        "between plan stages)",
    )
    parser.add_argument(
        "--priority",
        type=int,
        default=0,
        help="priority for all submitted queries (higher runs first)",
    )
    parser.add_argument(
        "--faults",
        metavar="PATH",
        default=None,
        help="inject faults from a FaultPlan JSON file into every "
        "query (carried per query, not process-global)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="collect and print each query's bottleneck explanation "
        "(each query explains into its own sink, so explain queries "
        "run concurrently)",
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="turn on the flight recorder and write the query "
        "lifecycle + operator event stream as JSONL",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="trace every query end to end and write the merged "
        "Chrome trace (open at https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--slo",
        metavar="SPEC",
        nargs="?",
        const="",
        default=None,
        help="evaluate the run against an SLO spec JSON file and "
        "print each objective's burn rate (no argument: the default "
        "spec)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print results as JSON instead of tables",
    )
    args = parser.parse_args(argv)

    specs = []
    for path in args.plan:
        try:
            with open(path) as handle:
                specs.append((path, json.load(handle)))
        except (OSError, ValueError) as error:
            parser.error(f"--plan {path}: {error}")
    if args.analytics:
        specs.append(("<analytics>", analytics_spec()))
    if not specs:
        parser.error("nothing to run: pass --plan and/or --analytics")

    fault_plan = None
    if args.faults:
        try:
            with open(args.faults) as handle:
                fault_plan = faults_module.FaultPlan.from_json(handle.read())
        except (OSError, ValueError) as error:
            parser.error(f"--faults: {error}")

    memory_budget = None
    if args.memory_budget:
        try:
            memory_budget = parse_bytes(args.memory_budget)
        except ValueError as error:
            parser.error(str(error))

    if args.describe:
        for origin, spec in specs:
            try:
                plan = compile_plan(spec)
            except ReproError as error:
                print(f"{origin}: invalid plan: {error}", file=sys.stderr)
                return 1
            print(plan.describe())
        return 0

    slo_spec = None
    if args.slo is not None:
        if args.slo:
            try:
                slo_spec = slo_module.load_spec(args.slo)
            except (OSError, ValueError, ReproError) as error:
                parser.error(f"--slo {args.slo}: {error}")
        else:
            slo_spec = slo_module.default_spec()

    level = (
        tracing.SPANS if args.trace_out
        else tracing.EVENTS if args.events
        else tracing.OFF
    )
    if level:
        tracing.set_recording(level)
        tracing.reset()

    failed = 0
    service = JoinService(
        workers=args.workers,
        memory_budget_bytes=memory_budget,
        slo=slo_spec,
    )
    try:
        handles = []
        for origin, spec in specs:
            try:
                handles.append(
                    (
                        origin,
                        service.submit(
                            spec,
                            priority=args.priority,
                            timeout=args.timeout,
                            fault_plan=fault_plan,
                            explain=args.explain,
                        ),
                    )
                )
            except ReproError as error:
                print(f"{origin}: invalid plan: {error}", file=sys.stderr)
                failed += 1
        for origin, handle in handles:
            try:
                result = handle.result()
            except ReproError as error:
                print(
                    f"{origin}: query {handle.id} {handle.status}: {error}",
                    file=sys.stderr,
                )
                failed += 1
                continue
            if args.json:
                print(json.dumps(result.to_dict(), sort_keys=True))
            else:
                print(result.table().format())
                for stage in result.stages:
                    if stage.get("stage") == "explain":
                        print()
                        print(stage["text"])
                print()
        stats = service.stats()
        slo_report = service.slo_report()
    finally:
        service.shutdown(wait=True)

    if not args.json:
        print(
            f"service: {stats['submitted']} submitted, "
            f"{stats['rejected']} rejected, {stats['finished']} finished "
            f"on {stats['workers']} workers"
        )
    if args.events:
        written = events.write_jsonl(args.events, tracing.events())
        if not args.json:
            print(f"wrote {written} events to {args.events}")
    if args.trace_out:
        document = export.write_chrome_trace(args.trace_out)
        problems = tracing.validate_trace_tree(tracing.records())
        if problems:
            for problem in problems:
                print(f"trace problem: {problem}", file=sys.stderr)
            failed += 1
        if not args.json:
            print(
                f"wrote {len(document['traceEvents'])} trace events "
                f"to {args.trace_out}"
            )
    if level:
        tracing.set_recording(tracing.OFF)
        tracing.reset()
    if slo_report is not None:
        if not slo_report["ok"]:
            failed += 1
        if not args.json:
            for verdict in slo_report["objectives"]:
                state = "ok" if verdict["ok"] else "VIOLATED"
                print(
                    f"slo {verdict['name']}: {state} "
                    f"(burn rate {verdict['burn_rate']:.2f})"
                )
        else:
            print(json.dumps(slo_report, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
