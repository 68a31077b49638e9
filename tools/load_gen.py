#!/usr/bin/env python
"""Concurrency/determinism load generator for the join service.

Drives thousands of queries through :class:`repro.service.server.
JoinService` — a zipf-popular mix of plan templates (different sizes,
algorithms, and plan shapes), random priorities, optional admission
budget — and then audits the whole run:

- **Correctness**: every completed query's result checksum is compared
  against a serial reference executed directly through the plan layer
  (one reference per template, computed outside the service). The
  report's ``incorrect`` count must be zero.
- **Determinism**: the report separates deterministic facts
  (``results_digest`` — a hash over every query's result checksum in
  submission order — plus per-type event counts and the rejected
  tally) from wall-clock facts (latency percentiles, qps). Re-running
  with the same seed must reproduce the deterministic section
  byte-for-byte; ``tools/bench_diff.py --check-service`` gates on that
  against the committed ``BENCH_service.json`` baseline.
- **Latency**: per-query wall seconds feed a
  :class:`repro.telemetry.histogram.Histogram`; the report carries
  p50/p90/p99.
- **Tracing** (``--trace-out``): every query gets a deterministic
  trace id; service spans, pool-worker morsel spans, simulated
  resource tracks and recorder instants merge into one Chrome trace
  file, and the report
  gains a ``tracing`` section (trace/span counts + structural
  problems, which must be empty).
- **SLOs** (``--slo`` / ``--slo-out``): the run is evaluated against a
  declarative SLO spec (:mod:`repro.telemetry.slo`); the report gains
  an ``slo`` section with per-objective error budgets and burn rates,
  gated by ``tools/bench_diff.py --check-slo``.

The workload mix and audit loop live in :mod:`repro.service.loadgen`
(shared with the ``ext_service`` benchmark experiment); this file is
the CLI.

Run::

    PYTHONPATH=src python tools/load_gen.py --queries 1000 --workers 4 \\
        --seed 0 --report report.json --events events.jsonl \\
        --trace-out trace.json --slo --slo-out slo.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import ReproError  # noqa: E402
from repro.service.loadgen import (  # noqa: E402,F401  (re-exported)
    SCALE_DIVISOR,
    query_templates,
    run_load,
    zipf_weights,
)
from repro.telemetry import events, export, tracing  # noqa: E402
from repro.telemetry import slo as slo_mod  # noqa: E402
from repro.units import parse_bytes  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/load_gen.py",
        description="Drive a concurrent query mix through the join "
        "service and audit correctness + determinism.",
    )
    parser.add_argument("--queries", type=int, default=1000)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--theta",
        type=float,
        default=1.2,
        help="zipf skew of template popularity (default 1.2)",
    )
    parser.add_argument(
        "--budget",
        metavar="SIZE",
        default=None,
        help="admission budget (e.g. 8M): queries whose estimate "
        "exceeds it are rejected deterministically",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the JSON report (the --check-service input)",
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="write the flight-recorder JSONL event log",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the serial reference checks (latency-only runs)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="trace every query and write the merged Chrome trace "
        "(service spans + pool morsel spans + sim tracks)",
    )
    parser.add_argument(
        "--slo",
        metavar="SPEC",
        nargs="?",
        const="",
        default=None,
        help="evaluate the run against an SLO spec JSON file "
        "(no argument: the committed default spec)",
    )
    parser.add_argument(
        "--slo-out",
        metavar="PATH",
        default=None,
        help="write the SLO report (objectives, budgets, burn rates) "
        "as its own JSON file",
    )
    parser.add_argument(
        "--oc-workers",
        type=int,
        default=0,
        metavar="N",
        help="route big-state queries through an N-process morsel pool "
        "(results identical; traced runs then show pool-worker spans)",
    )
    args = parser.parse_args(argv)
    if args.queries < 1 or args.workers < 1:
        parser.error("--queries and --workers must be >= 1")
    if args.oc_workers < 0:
        parser.error("--oc-workers cannot be negative")
    budget = None
    if args.budget:
        try:
            budget = parse_bytes(args.budget)
        except ValueError as error:
            parser.error(str(error))
    slo_spec = None
    if args.slo_out and args.slo is None:
        parser.error("--slo-out requires --slo")
    if args.slo is not None:
        if args.slo:
            try:
                slo_spec = slo_mod.load_spec(args.slo)
            except (OSError, ValueError, ReproError) as error:
                parser.error(f"--slo {args.slo}: {error}")
        else:
            slo_spec = slo_mod.default_spec()

    report = run_load(
        queries=args.queries,
        workers=args.workers,
        seed=args.seed,
        theta=args.theta,
        budget_bytes=budget,
        verify=not args.no_verify,
        recording=tracing.SPANS if args.trace_out else tracing.EVENTS,
        slo=slo_spec,
        out_of_core_workers=args.oc_workers,
    )

    if args.events:
        written = events.write_jsonl(args.events, tracing.events())
        print(f"wrote {written} events to {args.events}")
    if args.trace_out:
        document = export.write_chrome_trace(args.trace_out)
        spans = report["tracing"]["spans"]
        traces = report["tracing"]["traces"]
        print(
            f"wrote {len(document['traceEvents'])} trace events "
            f"({spans} spans across {traces} traces) to {args.trace_out}"
        )
    tracing.set_recording(tracing.OFF)
    tracing.reset()

    deterministic = report["deterministic"]
    latency = report["latency"]
    p = latency["percentiles"]
    print(
        f"{report['queries']} queries on {report['workers']} workers "
        f"(seed {report['seed']}): {latency['completed']} completed, "
        f"{deterministic['rejected']} rejected, "
        f"{deterministic['incorrect']} incorrect, "
        f"{deterministic['failed']} failed"
    )
    print(
        f"latency p50 {p['p50'] * 1e3:.1f} ms, p90 {p['p90'] * 1e3:.1f} ms, "
        f"p99 {p['p99'] * 1e3:.1f} ms; {latency['qps']:.0f} qps; "
        f"results digest {deterministic['results_digest']}"
    )
    slo_failed = False
    if "slo" in report:
        slo_report = report["slo"]
        slo_failed = not slo_report["ok"]
        for verdict in slo_report["objectives"]:
            state = "ok" if verdict["ok"] else "VIOLATED"
            print(
                f"slo {verdict['name']}: {state} "
                f"(bad {verdict['bad_fraction']:.4%} of budget "
                f"{verdict['error_budget']:.4%}, "
                f"burn rate {verdict['burn_rate']:.2f})"
            )
        if args.slo_out:
            with open(args.slo_out, "w") as handle:
                json.dump(slo_report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote SLO report to {args.slo_out}")
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote report to {args.report}")

    failed = bool(
        deterministic["incorrect"]
        or deterministic["failed"]
        or slo_failed
        or report.get("tracing", {}).get("problems")
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
