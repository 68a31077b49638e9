"""Diff two benchmark artifacts and name what moved.

Four input shapes, auto-detected:

- **explain documents** (``python -m repro.bench ... --explain out.json``,
  ``{"experiments": {name: [explained run, ...]}}``) — runs are matched
  by label within each experiment and diffed with
  :func:`repro.explain.diff_runs`, so the output names the slowed tasks
  *and their bounding resource*, not just the totals;
- **perf-smoke reports** (``BENCH_kernels.json``) — per-experiment
  wall-clock deltas;
- **flight-recorder event logs** (``python -m repro.bench ... --events
  out.jsonl``, one JSON event per line) — per-event-type count deltas
  plus p50/p90/p99 deltas over each type's ``seconds`` field;
- **the perf trajectory** (``--history``: ``BENCH_history.json``
  appended by ``tools/perf_smoke.py``) — diffs the last two entries.

``--check-invariants`` instead audits one explain document against the
attribution invariants (:meth:`repro.explain.ExplainedRun.verify`:
utilization in [0, 1], bound attribution and critical path summing to
the makespan) and exits non-zero on any violation — the CI gate.

Usage::

    PYTHONPATH=src python tools/bench_diff.py old.json new.json
    PYTHONPATH=src python tools/bench_diff.py old.jsonl new.jsonl
    PYTHONPATH=src python tools/bench_diff.py --history
    PYTHONPATH=src python tools/bench_diff.py --check-invariants run.json
    PYTHONPATH=src python tools/bench_diff.py --check-outofcore BENCH_kernels.json
    PYTHONPATH=src python tools/bench_diff.py --check-events events.jsonl
    PYTHONPATH=src python tools/bench_diff.py --check-service report.json
    PYTHONPATH=src python tools/bench_diff.py --check-slo report.json
    PYTHONPATH=src python tools/bench_diff.py --check-trace trace.json
    PYTHONPATH=src python tools/bench_diff.py a.json b.json --fail-regression 1.5

``--check-outofcore`` audits a perf-smoke report's out-of-core gauges
(checksum identity with the in-memory join, morsel-pool speedup) — the
CI gate for the out-of-core execution layer. ``--check-events``
validates an event log against the flight-recorder schema
(:func:`repro.telemetry.events.validate_events`) — the CI gate for the
observability layer. ``--check-service`` audits a ``tools/load_gen.py``
report against the committed ``BENCH_service.json`` baseline (zero
incorrect results; digest, rejected tally, and event counts
byte-identical) — the CI gate for the concurrent join service.
``--check-slo`` audits a report's SLO section (every objective within
its error budget, deterministic error tallies equal to the baseline's,
no perf-history anomalies) and ``--check-trace`` audits a Chrome trace
file's span forest (valid ids, acyclic, no orphan parents) — the CI
gates for the tracing + SLO layer.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import explain  # noqa: E402
from repro.telemetry import events as events_mod  # noqa: E402
from repro.telemetry.histogram import Histogram  # noqa: E402

DEFAULT_HISTORY = REPO_ROOT / "BENCH_history.json"


def _is_event_log(path: pathlib.Path) -> bool:
    return path.suffix == ".jsonl"


def _load_events(path: pathlib.Path) -> List[dict]:
    try:
        return events_mod.read_jsonl(path)
    except OSError as exc:
        raise SystemExit(f"bench_diff: cannot read {path}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"bench_diff: {exc}")


def _load(path: pathlib.Path) -> dict:
    try:
        document = json.loads(path.read_text())
    except OSError as exc:
        raise SystemExit(f"bench_diff: cannot read {path}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"bench_diff: {path} is not JSON: {exc}")
    if not isinstance(document, dict):
        raise SystemExit(f"bench_diff: {path} is not a JSON object")
    return document


def _kind(document: dict) -> str:
    """'explain', 'smoke', or 'history', from the document's shape."""
    if isinstance(document.get("entries"), list):
        return "history"
    experiments = document.get("experiments")
    if isinstance(experiments, dict) and experiments:
        value = next(iter(experiments.values()))
        return "explain" if isinstance(value, list) else "smoke"
    return "explain" if "experiments" in document else "smoke"


# -- smoke-report timing diffs --------------------------------------------------


def diff_smoke(a: dict, b: dict, label_a: str, label_b: str) -> List[str]:
    """Per-experiment wall-clock deltas between two smoke reports."""
    times_a = a.get("experiments") or {}
    times_b = b.get("experiments") or {}
    lines = [f"smoke diff: {label_a}  ->  {label_b}"]
    shared = sorted(set(times_a) & set(times_b))
    if not shared:
        lines.append("  (no shared experiments)")
        return lines
    movers: List[Tuple[float, str]] = []
    for name in shared:
        old, new = times_a[name], times_b[name]
        delta = new - old
        movers.append((delta, name))
        sign = "+" if delta >= 0 else "-"
        factor = f" ({new / old:.2f}x)" if old > 0 else ""
        lines.append(
            f"  {name:>16} {old:8.3f}s -> {new:8.3f}s  "
            f"{sign}{abs(delta):.3f}s{factor}"
        )
    old_total = sum(times_a[name] for name in shared)
    new_total = sum(times_b[name] for name in shared)
    delta = new_total - old_total
    sign = "+" if delta >= 0 else "-"
    lines.append(
        f"  {'total':>16} {old_total:8.3f}s -> {new_total:8.3f}s  "
        f"{sign}{abs(delta):.3f}s"
    )
    worst = max(movers)
    if worst[0] > 0:
        lines.append(
            f"  biggest regression: {worst[1]} (+{worst[0]:.3f}s)"
        )
    only_a = sorted(set(times_a) - set(times_b))
    only_b = sorted(set(times_b) - set(times_a))
    if only_a:
        lines.append(f"  only in {label_a}: {', '.join(only_a)}")
    if only_b:
        lines.append(f"  only in {label_b}: {', '.join(only_b)}")
    return lines


def _smoke_factor(a: dict, b: dict) -> float:
    """New/old total over shared experiments (0 when not comparable)."""
    times_a = a.get("experiments") or {}
    times_b = b.get("experiments") or {}
    shared = set(times_a) & set(times_b)
    old_total = sum(times_a[name] for name in shared)
    if old_total <= 0:
        return 0.0
    return sum(times_b[name] for name in shared) / old_total


# -- explain-document diffs -----------------------------------------------------


def _runs_by_label(document: dict) -> Dict[str, Dict[str, dict]]:
    """{experiment: {run label: run dict}} for one explain document."""
    indexed: Dict[str, Dict[str, dict]] = {}
    for name, runs in (document.get("experiments") or {}).items():
        indexed[name] = {run.get("label", str(i)): run
                         for i, run in enumerate(runs)}
    return indexed


def diff_explain(a: dict, b: dict, label_a: str, label_b: str) -> List[str]:
    """Attributed diffs for every run present in both explain documents."""
    runs_a, runs_b = _runs_by_label(a), _runs_by_label(b)
    lines = [f"explain diff: {label_a}  ->  {label_b}"]
    compared = 0
    for name in sorted(set(runs_a) & set(runs_b)):
        for label in sorted(set(runs_a[name]) & set(runs_b[name])):
            run_a = explain.ExplainedRun.from_dict(runs_a[name][label])
            run_b = explain.ExplainedRun.from_dict(runs_b[name][label])
            diff = explain.diff_runs(run_a, run_b)
            compared += 1
            if abs(diff.makespan_delta) < 1e-12:
                continue
            lines.append("")
            lines.append(explain.format_diff(diff))
    unmatched_a = sum(
        len(set(runs_a[name]) - set(runs_b.get(name, {}))) for name in runs_a
    )
    unmatched_b = sum(
        len(set(runs_b[name]) - set(runs_a.get(name, {}))) for name in runs_b
    )
    lines.append("")
    summary = f"compared {compared} run(s)"
    if unmatched_a or unmatched_b:
        summary += (
            f"; unmatched: {unmatched_a} only in {label_a}, "
            f"{unmatched_b} only in {label_b}"
        )
    lines.append(summary)
    return lines


def _explain_factor(a: dict, b: dict) -> float:
    """Summed-makespan ratio over runs present in both documents."""
    runs_a, runs_b = _runs_by_label(a), _runs_by_label(b)
    old_total = new_total = 0.0
    for name in set(runs_a) & set(runs_b):
        for label in set(runs_a[name]) & set(runs_b[name]):
            old_total += runs_a[name][label].get("makespan_seconds", 0.0)
            new_total += runs_b[name][label].get("makespan_seconds", 0.0)
    if old_total <= 0:
        return 0.0
    return new_total / old_total


# -- flight-recorder event-log diffs --------------------------------------------


def _seconds_percentiles(records: List[dict]) -> Dict[str, Dict[str, float]]:
    """{event type: p50/p90/p99 of its ``seconds`` field} for one log."""
    by_type: Dict[str, Histogram] = {}
    for event in records:
        seconds = event.get("seconds")
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            continue
        histogram = by_type.setdefault(event.get("type", "?"), Histogram())
        histogram.observe(float(seconds))
    return {
        name: histogram.percentiles()
        for name, histogram in by_type.items()
        if histogram.count
    }


def diff_events(
    a: List[dict], b: List[dict], label_a: str, label_b: str
) -> List[str]:
    """Count + percentile deltas per event type between two logs."""
    counts_a = events_mod.counts_by_type(a)
    counts_b = events_mod.counts_by_type(b)
    lines = [f"event diff: {label_a} ({len(a)} events)  ->  "
             f"{label_b} ({len(b)} events)"]
    for name in sorted(set(counts_a) | set(counts_b)):
        old, new = counts_a.get(name, 0), counts_b.get(name, 0)
        delta = new - old
        sign = "+" if delta >= 0 else "-"
        lines.append(
            f"  {name:>22} {old:6d} -> {new:6d}  {sign}{abs(delta)}"
        )
    pct_a = _seconds_percentiles(a)
    pct_b = _seconds_percentiles(b)
    shared = sorted(set(pct_a) & set(pct_b))
    if shared:
        lines.append("  seconds percentiles (old -> new):")
        for name in shared:
            for quantile in ("p50", "p90", "p99"):
                old = pct_a[name][quantile]
                new = pct_b[name][quantile]
                delta = new - old
                sign = "+" if delta >= 0 else "-"
                factor = f" ({new / old:.2f}x)" if old > 0 else ""
                lines.append(
                    f"    {name:>20} {quantile} {old:10.6f}s -> "
                    f"{new:10.6f}s  {sign}{abs(delta):.6f}s{factor}"
                )
    return lines


def _events_factor(a: List[dict], b: List[dict]) -> float:
    """New/old total of ``experiment.end`` seconds (0 = not comparable)."""
    def total(records):
        return sum(
            float(e.get("seconds", 0.0))
            for e in records
            if e.get("type") == "experiment.end"
            and isinstance(e.get("seconds"), (int, float))
        )

    old_total = total(a)
    if old_total <= 0:
        return 0.0
    return total(b) / old_total


def check_events(records: List[dict]) -> List[str]:
    """Schema problems in a flight-recorder log ([] = clean)."""
    return events_mod.validate_events(records)


# -- invariant audit ------------------------------------------------------------


def check_invariants(document: dict) -> List[str]:
    """Every invariant violation in an explain document ([] = clean)."""
    problems: List[str] = []
    for name, runs in sorted((document.get("experiments") or {}).items()):
        for run_dict in runs:
            run = explain.ExplainedRun.from_dict(run_dict)
            for problem in run.verify():
                problems.append(f"{name} / {run.label}: {problem}")
    return problems


# -- co-processing gate ---------------------------------------------------------

_COPROCESS_RUN = "run:Co-Processing Join (CPU+GPU)"
_SEARCH_MARKER = "[split search]"
_SINGLE_BACKEND_RUNS = (
    "run:GPU Triton Join",
    "run:CPU-Partitioned Radix Join",
)


def check_coprocess(document: dict) -> List[str]:
    """Audit an explain document's co-processing runs ([] = clean).

    For every experiment that simulated a co-processing join (split-
    search candidates, labelled ``[split search]``, don't count), each
    production run must have kept both processors busy (non-zero
    average ``cpu_cores`` and ``gpu_sm`` utilization) and must beat the
    index-aligned single-backend runs — the i-th co-processing makespan
    may not exceed the i-th Triton or i-th CPU-partitioned one, which
    the fig16 harness emits per size in that order.
    """
    problems: List[str] = []
    saw_coprocess = False
    for name, runs in sorted((document.get("experiments") or {}).items()):
        by_kind: Dict[str, List[dict]] = {}
        for run in runs:
            label = run.get("label", "")
            if _SEARCH_MARKER in label:
                continue
            for kind in (_COPROCESS_RUN,) + _SINGLE_BACKEND_RUNS:
                if kind in label:
                    by_kind.setdefault(kind, []).append(run)
        coprocess = by_kind.get(_COPROCESS_RUN, [])
        if not coprocess:
            continue
        saw_coprocess = True
        for i, run in enumerate(coprocess):
            label = run.get("label", f"coprocess[{i}]")
            utilization = run.get("average_utilization") or {}
            for resource in ("cpu_cores", "gpu_sm"):
                if not utilization.get(resource, 0.0) > 0.0:
                    problems.append(
                        f"{name} / {label}: {resource} utilization is "
                        f"{utilization.get(resource, 0.0)!r}; co-processing "
                        "must keep both pools busy"
                    )
            for kind in _SINGLE_BACKEND_RUNS:
                singles = by_kind.get(kind, [])
                if i >= len(singles):
                    continue
                single = singles[i]
                if run["makespan_seconds"] > single["makespan_seconds"]:
                    problems.append(
                        f"{name} / {label}: makespan "
                        f"{run['makespan_seconds']:.6g}s exceeds "
                        f"{single.get('label', kind)} "
                        f"({single['makespan_seconds']:.6g}s)"
                    )
    if not saw_coprocess:
        problems.append(
            "no co-processing runs found in the document (wrong "
            "experiment, or the operator never simulated?)"
        )
    return problems


# -- out-of-core gate -----------------------------------------------------------

_OUTOFCORE_EXPERIMENT = "ext_outofcore"
_CHECKSUM_GAUGE = "exec.outofcore.checksum_ok"
_SPEEDUP_GAUGE = "exec.pool.speedup"


def check_outofcore(document: dict, min_speedup: float = 1.0) -> List[str]:
    """Audit a smoke report's out-of-core gauges ([] = clean).

    The report must carry at least one ``ext_outofcore`` entry whose
    gauges show ``exec.outofcore.checksum_ok == 1`` (every out-of-core
    mode — spill, serial morsels, morsel pool — produced a match
    summary byte-identical to the in-memory reference) and
    ``exec.pool.speedup >= min_speedup`` (the morsel pool at least
    matches the single-process join at the smoke's fig13-scale
    arrays). Both gauges are medians over the experiment's internal
    repeats, so one noisy sample cannot flip the gate.
    """
    gauges = document.get("gauges")
    if not isinstance(gauges, dict):
        return [
            "smoke report has no 'gauges' section; regenerate it with "
            "the current tools/perf_smoke.py"
        ]
    labels = sorted(
        label
        for label in gauges
        if label.split("@")[0] == _OUTOFCORE_EXPERIMENT
    )
    if not labels:
        return [
            f"no {_OUTOFCORE_EXPERIMENT} entry in the smoke report; run "
            f"tools/perf_smoke.py --experiments {_OUTOFCORE_EXPERIMENT}@4096"
        ]
    problems: List[str] = []
    for label in labels:
        values = gauges.get(label) or {}
        checksum_ok = values.get(_CHECKSUM_GAUGE)
        if checksum_ok != 1.0:
            problems.append(
                f"{label}: {_CHECKSUM_GAUGE} is {checksum_ok!r}; an "
                "out-of-core mode diverged from the in-memory reference"
            )
        speedup = values.get(_SPEEDUP_GAUGE)
        if speedup is None:
            problems.append(f"{label}: {_SPEEDUP_GAUGE} gauge missing")
        elif speedup < min_speedup:
            problems.append(
                f"{label}: morsel pool speedup {speedup:.3f}x is below "
                f"the {min_speedup:g}x gate"
            )
    return problems


# -- service gate ---------------------------------------------------------------


def check_service(
    report: dict, baseline: dict, max_p99_factor: float = 25.0
) -> List[str]:
    """Audit a load-generator report against the committed baseline.

    Deterministic facts gate strictly: zero incorrect/failed queries,
    and the results digest, rejected tally, and per-type event counts
    byte-equal to ``BENCH_service.json`` (same queries/workers/seed —
    the service's scheduling must not leak into results). Wall-clock
    latency gates loosely: p99 within ``max_p99_factor`` of the
    baseline's (different machines, same order of magnitude).
    """
    problems: List[str] = []
    for field in ("queries", "workers", "seed", "theta"):
        if report.get(field) != baseline.get(field):
            problems.append(
                f"report ran {field}={report.get(field)!r} but the "
                f"baseline has {field}={baseline.get(field)!r}; rerun "
                "tools/load_gen.py with the baseline's parameters"
            )
    if problems:
        return problems
    got = report.get("deterministic") or {}
    want = baseline.get("deterministic") or {}
    for count in ("incorrect", "failed"):
        if got.get(count):
            problems.append(
                f"{got[count]} {count} quer(ies): concurrent results "
                "diverged from the serial references"
            )
    for field in ("results_digest", "rejected", "event_counts"):
        if got.get(field) != want.get(field):
            problems.append(
                f"deterministic field {field!r} is {got.get(field)!r}; "
                f"baseline has {want.get(field)!r} — same-seed runs "
                "must be byte-identical"
            )
    p99 = ((report.get("latency") or {}).get("percentiles") or {}).get("p99")
    base_p99 = (
        (baseline.get("latency") or {}).get("percentiles") or {}
    ).get("p99")
    if p99 is None:
        problems.append("report has no latency.percentiles.p99")
    elif base_p99 and p99 > base_p99 * max_p99_factor:
        problems.append(
            f"p99 {p99 * 1e3:.1f} ms exceeds {max_p99_factor:g}x the "
            f"baseline's {base_p99 * 1e3:.1f} ms"
        )
    return problems


# -- SLO gate -------------------------------------------------------------------


def check_slo(
    report: dict,
    baseline: Optional[dict] = None,
    history: Optional[dict] = None,
    anomaly_factor: float = 5.0,
) -> List[str]:
    """Audit a load-generator report's SLO section ([] = clean).

    Every declared objective must be met (its bad fraction within the
    error budget). Error-kind objectives are deterministic — exact
    count ratios of the seeded workload — so when the committed
    baseline carries an ``slo`` section, their (total, bad) tallies
    must match it exactly; latency objectives are wall clock and only
    gate on their own budget. When a perf trajectory is supplied, it
    is swept for per-experiment anomalies (seconds blowing past
    ``anomaly_factor`` times their trailing mean) with the same
    "observed over allowed" lens.
    """
    from repro.telemetry import slo as slo_mod

    slo_report = report.get("slo")
    if not isinstance(slo_report, dict):
        return [
            "report has no 'slo' section; rerun tools/load_gen.py "
            "with --slo"
        ]
    problems: List[str] = []
    verdicts = slo_report.get("objectives") or []
    if not verdicts:
        problems.append("slo section declares no objectives")
    for verdict in verdicts:
        if not verdict.get("ok"):
            problems.append(
                f"objective {verdict.get('name')!r} violated: bad "
                f"fraction {verdict.get('bad_fraction', 0.0):.4%} exceeds "
                f"the {verdict.get('error_budget', 0.0):.4%} error budget "
                f"(burn rate {verdict.get('burn_rate', 0.0):.2f})"
            )
    baseline_slo = (baseline or {}).get("slo") or {}
    baseline_verdicts = {
        v.get("name"): v for v in baseline_slo.get("objectives") or []
    }
    for verdict in verdicts:
        if verdict.get("kind") != "errors":
            continue
        want = baseline_verdicts.get(verdict.get("name"))
        if want is None:
            continue
        for field in ("objective", "total", "bad"):
            if verdict.get(field) != want.get(field):
                problems.append(
                    f"objective {verdict.get('name')!r}: deterministic "
                    f"field {field!r} is {verdict.get(field)!r}; baseline "
                    f"has {want.get(field)!r}"
                )
    if history is not None:
        for anomaly in slo_mod.history_anomalies(
            history, factor=anomaly_factor
        ):
            problems.append(
                f"history entry {anomaly['entry']} "
                f"({anomaly['timestamp']}): {anomaly['experiment']} took "
                f"{anomaly['seconds']:.3f}s, {anomaly['ratio']:.1f}x its "
                f"trailing mean {anomaly['trailing_mean']:.3f}s"
            )
    return problems


# -- trace gate -----------------------------------------------------------------


def check_trace(document: dict, min_traces: int = 1) -> List[str]:
    """Audit a Chrome trace document's span forest ([] = clean).

    Runs the exporter's validator (events well-formed, spans nested,
    ids valid, span forest acyclic, no orphan parents, sim tracks tagged
    with known traces) and requires at least ``min_traces`` distinct
    trace trees.
    """
    from repro.telemetry.export import validate_chrome_trace

    problems = validate_chrome_trace(document)
    trace_ids = {
        event.get("args", {}).get("trace")
        for event in document.get("traceEvents", [])
        if event.get("cat") == "trace" and event.get("ph") == "X"
    }
    trace_ids.discard(None)
    if len(trace_ids) < min_traces:
        problems.append(
            f"document has {len(trace_ids)} trace tree(s); expected at "
            f"least {min_traces} (was the run traced?)"
        )
    return problems


# -- history --------------------------------------------------------------------


def last_two_entries(path: pathlib.Path) -> Tuple[dict, dict, str, str]:
    """The trajectory's last two entries as (a, b, label_a, label_b)."""
    entries = _load(path).get("entries")
    if not isinstance(entries, list) or len(entries) < 2:
        raise SystemExit(
            f"bench_diff: {path} has fewer than two history entries; "
            "run tools/perf_smoke.py to append one"
        )
    a, b = entries[-2], entries[-1]
    return (
        a,
        b,
        a.get("timestamp", "entry[-2]"),
        b.get("timestamp", "entry[-1]"),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/bench_diff.py",
        description="Diff two benchmark artifacts and name what moved.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=pathlib.Path,
        help="two reports to diff (explain documents or smoke reports)",
    )
    parser.add_argument(
        "--history",
        nargs="?",
        type=pathlib.Path,
        const=DEFAULT_HISTORY,
        default=None,
        metavar="PATH",
        help="diff the last two entries of the perf trajectory "
        f"(default {DEFAULT_HISTORY.name})",
    )
    parser.add_argument(
        "--check-invariants",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="audit one explain document against the attribution "
        "invariants; exits 1 on any violation",
    )
    parser.add_argument(
        "--check-coprocess",
        action="store_true",
        help="with --check-invariants: also require the document's "
        "co-processing runs to keep both pools busy and beat the "
        "aligned single-backend runs",
    )
    parser.add_argument(
        "--check-outofcore",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="audit a perf-smoke report's out-of-core gauges: checksum "
        "identity with the in-memory reference and morsel-pool speedup "
        ">= --min-pool-speedup; exits 1 on any violation",
    )
    parser.add_argument(
        "--check-events",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="validate a flight-recorder JSONL event log against the "
        "event schema; exits 1 on any violation",
    )
    parser.add_argument(
        "--check-service",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="audit a tools/load_gen.py report: zero incorrect "
        "results, and results digest / rejected tally / event counts "
        "byte-equal to the committed baseline (--service-baseline); "
        "exits 1 on any violation",
    )
    parser.add_argument(
        "--service-baseline",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_service.json",
        metavar="PATH",
        help="baseline report for --check-service "
        "(default BENCH_service.json)",
    )
    parser.add_argument(
        "--check-slo",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="audit a tools/load_gen.py report's SLO section: every "
        "objective within its error budget, error-kind tallies equal "
        "to the baseline's, no perf-history anomalies; exits 1 on any "
        "violation",
    )
    parser.add_argument(
        "--check-trace",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="audit a Chrome trace file: structure valid, trace-span "
        "forest acyclic with no orphan parents, sim tracks tagged with "
        "known traces; exits 1 on any violation",
    )
    parser.add_argument(
        "--min-traces",
        type=int,
        default=1,
        metavar="N",
        help="with --check-trace: require at least N distinct trace "
        "trees in the document (default 1)",
    )
    parser.add_argument(
        "--anomaly-factor",
        type=float,
        default=5.0,
        metavar="FACTOR",
        help="with --check-slo: flag history entries whose seconds "
        "exceed FACTOR times their trailing mean (default 5)",
    )
    parser.add_argument(
        "--max-p99-factor",
        type=float,
        default=25.0,
        metavar="FACTOR",
        help="with --check-service: allowed p99 growth over the "
        "baseline (default 25; wall clock differs across machines)",
    )
    parser.add_argument(
        "--min-pool-speedup",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="with --check-outofcore: minimum exec.pool.speedup "
        "(default 1.0: the pool must not lose to single-process)",
    )
    parser.add_argument(
        "--fail-regression",
        type=float,
        default=None,
        metavar="FACTOR",
        help="exit 1 when the shared total (seconds or makespan) grows "
        "by more than FACTOR",
    )
    args = parser.parse_args(argv)

    if args.check_coprocess and args.check_invariants is None:
        parser.error("--check-coprocess requires --check-invariants PATH")

    if args.check_events is not None:
        records = _load_events(args.check_events)
        problems = check_events(records)
        if problems:
            print(
                f"{len(problems)} event-schema violation(s) in "
                f"{len(records)} event(s):"
            )
            for problem in problems:
                print(f"  ! {problem}")
            return 1
        counts = events_mod.counts_by_type(records)
        summary = ", ".join(f"{k} x{v}" for k, v in counts.items())
        print(
            f"event schema holds over {len(records)} event(s)"
            + (f": {summary}" if summary else "")
        )
        return 0

    if args.check_service is not None:
        report = _load(args.check_service)
        if report.get("kind") != "service-load":
            parser.error(
                f"{args.check_service} is not a tools/load_gen.py report"
            )
        baseline = _load(args.service_baseline)
        problems = check_service(
            report, baseline, max_p99_factor=args.max_p99_factor
        )
        if problems:
            print(f"{len(problems)} service gate violation(s):")
            for problem in problems:
                print(f"  ! {problem}")
            return 1
        digest = report["deterministic"]["results_digest"]
        print(
            f"service gate holds: {report['queries']} queries, "
            f"0 incorrect, digest {digest} matches baseline"
        )
        return 0

    if args.check_slo is not None:
        report = _load(args.check_slo)
        baseline = (
            _load(args.service_baseline)
            if args.service_baseline.exists()
            else None
        )
        history = (
            _load(DEFAULT_HISTORY) if DEFAULT_HISTORY.exists() else None
        )
        problems = check_slo(
            report,
            baseline=baseline,
            history=history,
            anomaly_factor=args.anomaly_factor,
        )
        if problems:
            print(f"{len(problems)} SLO gate violation(s):")
            for problem in problems:
                print(f"  ! {problem}")
            return 1
        objectives = (report.get("slo") or {}).get("objectives") or []
        print(
            f"SLO gate holds: {len(objectives)} objective(s) within "
            "budget, deterministic tallies match, history clean"
        )
        return 0

    if args.check_trace is not None:
        document = _load(args.check_trace)
        problems = check_trace(document, min_traces=args.min_traces)
        if problems:
            print(f"{len(problems)} trace gate violation(s):")
            for problem in problems:
                print(f"  ! {problem}")
            return 1
        spans = sum(
            1
            for event in document.get("traceEvents", [])
            if event.get("cat") == "trace" and event.get("ph") == "X"
        )
        print(
            f"trace gate holds: {spans} spans form a well-formed "
            "trace forest"
        )
        return 0

    if args.check_outofcore is not None:
        document = _load(args.check_outofcore)
        if _kind(document) != "smoke":
            parser.error(
                f"{args.check_outofcore} is not a perf-smoke report"
            )
        problems = check_outofcore(
            document, min_speedup=args.min_pool_speedup
        )
        if problems:
            print(f"{len(problems)} out-of-core gate violation(s):")
            for problem in problems:
                print(f"  ! {problem}")
            return 1
        print(
            "out-of-core gate holds: checksum identity + pool speedup "
            f">= {args.min_pool_speedup:g}x"
        )
        return 0

    if args.check_invariants is not None:
        document = _load(args.check_invariants)
        if _kind(document) != "explain":
            parser.error(
                f"{args.check_invariants} is not an explain document"
            )
        problems = check_invariants(document)
        if args.check_coprocess:
            problems += check_coprocess(document)
        runs = sum(
            len(runs) for runs in (document.get("experiments") or {}).values()
        )
        if problems:
            print(f"{len(problems)} invariant violation(s) in {runs} run(s):")
            for problem in problems:
                print(f"  ! {problem}")
            return 1
        checked = "invariants"
        if args.check_coprocess:
            checked += " + co-processing gate"
        print(f"all {checked} hold over {runs} explained run(s)")
        return 0

    if args.history is not None:
        if args.paths:
            parser.error("--history takes no positional reports")
        a, b, label_a, label_b = last_two_entries(args.history)
        print("\n".join(diff_smoke(a, b, label_a, label_b)))
        factor = _smoke_factor(a, b)
    else:
        if len(args.paths) != 2:
            parser.error("expected exactly two report paths (or --history)")
        path_a, path_b = args.paths
        if _is_event_log(path_a) != _is_event_log(path_b):
            parser.error(
                "cannot diff an event log against a JSON report"
            )
        if _is_event_log(path_a):
            events_a = _load_events(path_a)
            events_b = _load_events(path_b)
            print(
                "\n".join(
                    diff_events(events_a, events_b, str(path_a), str(path_b))
                )
            )
            factor = _events_factor(events_a, events_b)
            if (
                args.fail_regression is not None
                and factor > args.fail_regression
            ):
                print(
                    f"bench_diff FAILED: {factor:.2f}x the baseline's "
                    f"experiment seconds (> {args.fail_regression:g}x "
                    "allowed)",
                    file=sys.stderr,
                )
                return 1
            return 0
        a, b = _load(path_a), _load(path_b)
        kind_a, kind_b = _kind(a), _kind(b)
        if kind_a != kind_b:
            parser.error(
                f"cannot diff a {kind_a} document against a {kind_b} one"
            )
        if kind_a == "history":
            parser.error("pass a trajectory via --history, not positionally")
        if kind_a == "explain":
            print("\n".join(diff_explain(a, b, str(path_a), str(path_b))))
            factor = _explain_factor(a, b)
        else:
            print("\n".join(diff_smoke(a, b, str(path_a), str(path_b))))
            factor = _smoke_factor(a, b)

    if args.fail_regression is not None and factor > args.fail_regression:
        print(
            f"bench_diff FAILED: {factor:.2f}x the baseline's shared total "
            f"(> {args.fail_regression:g}x allowed)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
