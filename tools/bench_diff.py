"""Diff two benchmark artifacts and name what moved, or gate one artifact.

Diffs auto-detect the input: explain documents (``bench --explain``; runs
matched by label, diffed by :func:`repro.explain.diff_runs` down to the
slowed tasks and their bounding resource), perf-smoke reports (wall-clock
deltas), event logs (``*.jsonl``; per-type count and ``seconds``
percentile deltas) and, with ``--history``, the perf trajectory's last two
entries.

``--check-<gate> PATH`` runs one CI gate, a row of :data:`GATES`, over
one artifact: it prints one summary line, or ``N ... violation(s):`` and
one ``  ! problem`` line each and exits 1. The bounds are fixed:
:data:`MIN_POOL_SPEEDUP`, :data:`MAX_P99_FACTOR` and :data:`ANOMALY_FACTOR`.

Usage::

    PYTHONPATH=src python tools/bench_diff.py old.json new.json
    PYTHONPATH=src python tools/bench_diff.py --history
    PYTHONPATH=src python tools/bench_diff.py --check-coprocess fig16.json
    PYTHONPATH=src python tools/bench_diff.py --check-trace t.json --min-traces 1000
    PYTHONPATH=src python tools/bench_diff.py --check-tables results.txt
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import re
import sys
from typing import Callable, Dict, List, NamedTuple, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import explain  # noqa: E402
from repro.telemetry import events as events_mod  # noqa: E402
from repro.telemetry import prometheus  # noqa: E402
from repro.telemetry.export import validate_chrome_trace  # noqa: E402
from repro.telemetry.histogram import Histogram  # noqa: E402
from repro.telemetry.slo import history_anomalies  # noqa: E402

DEFAULT_HISTORY = REPO_ROOT / "BENCH_history.json"
SERVICE_BASELINE = REPO_ROOT / "BENCH_service.json"
#: The committed ``python -m repro.bench all`` dump the tables gate diffs.
TABLES_BASELINE = REPO_ROOT / "results_all.txt"
#: Experiments whose tables hold wall-clock measurements.
MEASURED_EXPERIMENTS = ("ext_outofcore", "ext_service")

#: The morsel pool must not lose to the single-process join.
MIN_POOL_SPEEDUP = 1.0
#: Allowed p99 growth over the service baseline: wall clock differs across
#: machines, so only the deterministic fields gate strictly.
MAX_P99_FACTOR = 25.0
#: A history entry is anomalous past this many times its trailing mean.
ANOMALY_FACTOR = 5.0


def _load_events(path: pathlib.Path) -> List[dict]:
    try:
        return events_mod.read_jsonl(path)
    except OSError as exc:
        raise SystemExit(f"bench_diff: cannot read {path}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"bench_diff: {exc}")


def _load_text(path: pathlib.Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise SystemExit(f"bench_diff: cannot read {path}: {exc}")


def _load(path: pathlib.Path) -> dict:
    try:
        document = json.loads(_load_text(path))
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


def _change(old: float, new: float, digits: int, ratio: bool = True) -> str:
    """'+0.500s (1.50x)': the signed change, then the ratio if defined."""
    factor = f" ({new / old:.2f}x)" if ratio and old > 0 else ""
    return f"{'+' if new - old >= 0 else '-'}{abs(new - old):.{digits}f}s{factor}"


# -- diffs ----------------------------------------------------------------------


def diff_smoke(a: dict, b: dict, label_a: str, label_b: str) -> List[str]:
    """Per-experiment wall-clock deltas between two smoke reports."""
    times_a, times_b = a.get("experiments") or {}, b.get("experiments") or {}
    lines = [f"smoke diff: {label_a}  ->  {label_b}"]
    shared = sorted(set(times_a) & set(times_b))
    if not shared:
        lines.append("  (no shared experiments)")
        return lines
    for name in shared:
        old, new = times_a[name], times_b[name]
        lines.append(f"  {name:>16} {old:8.3f}s -> {new:8.3f}s  {_change(old, new, 3)}")
    old_total = sum(times_a[name] for name in shared)
    new_total = sum(times_b[name] for name in shared)
    lines.append(
        f"  {'total':>16} {old_total:8.3f}s -> {new_total:8.3f}s  "
        f"{_change(old_total, new_total, 3, ratio=False)}"
    )
    worst = max((times_b[name] - times_a[name], name) for name in shared)
    if worst[0] > 0:
        lines.append(f"  biggest regression: {worst[1]} (+{worst[0]:.3f}s)")
    for label, only in ((label_a, set(times_a) - set(times_b)),
                        (label_b, set(times_b) - set(times_a))):
        if only:
            lines.append(f"  only in {label}: {', '.join(sorted(only))}")
    return lines


def _runs_by_label(document: dict) -> Dict[str, Dict[str, dict]]:
    """{experiment: {run label: run dict}} for one explain document."""
    return {
        name: {run.get("label", str(i)): run for i, run in enumerate(runs)}
        for name, runs in (document.get("experiments") or {}).items()
    }


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
            if not abs(diff.makespan_delta) < 1e-12:
                lines += ["", explain.format_diff(diff)]
    unmatched_a = sum(len(set(runs_a[n]) - set(runs_b.get(n, {}))) for n in runs_a)
    unmatched_b = sum(len(set(runs_b[n]) - set(runs_a.get(n, {}))) for n in runs_b)
    summary = f"compared {compared} run(s)"
    if unmatched_a or unmatched_b:
        summary += (
            f"; unmatched: {unmatched_a} only in {label_a}, "
            f"{unmatched_b} only in {label_b}"
        )
    return lines + ["", summary]


def _seconds_percentiles(records: List[dict]) -> Dict[str, Dict[str, float]]:
    """{event type: p50/p90/p99 of its ``seconds`` field} for one log."""
    by_type: Dict[str, Histogram] = {}
    for event in records:
        seconds = event.get("seconds")
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            continue
        by_type.setdefault(event.get("type", "?"), Histogram()).observe(float(seconds))
    return {name: h.percentiles() for name, h in by_type.items() if h.count}


def diff_events(a: List[dict], b: List[dict], label_a: str, label_b: str) -> List[str]:
    """Count + percentile deltas per event type between two logs."""
    counts_a, counts_b = events_mod.counts_by_type(a), events_mod.counts_by_type(b)
    lines = [f"event diff: {label_a} ({len(a)} events)  ->  "
             f"{label_b} ({len(b)} events)"]
    for name in sorted(set(counts_a) | set(counts_b)):
        old, new = counts_a.get(name, 0), counts_b.get(name, 0)
        sign = "+" if new >= old else "-"
        lines.append(f"  {name:>22} {old:6d} -> {new:6d}  {sign}{abs(new - old)}")
    pct_a, pct_b = _seconds_percentiles(a), _seconds_percentiles(b)
    shared = sorted(set(pct_a) & set(pct_b))
    if shared:
        lines.append("  seconds percentiles (old -> new):")
    for name in shared:
        for quantile in ("p50", "p90", "p99"):
            old, new = pct_a[name][quantile], pct_b[name][quantile]
            lines.append(
                f"    {name:>20} {quantile} {old:10.6f}s -> "
                f"{new:10.6f}s  {_change(old, new, 6)}"
            )
    return lines


# -- gates ----------------------------------------------------------------------


def check_invariants(document: dict) -> List[str]:
    """Every invariant violation in an explain document ([] = clean)."""
    problems: List[str] = []
    for name, runs in sorted((document.get("experiments") or {}).items()):
        for run_dict in runs:
            run = explain.ExplainedRun.from_dict(run_dict)
            problems += [f"{name} / {run.label}: {p}" for p in run.verify()]
    return problems


def _run_count(document: dict) -> int:
    return sum(len(runs) for runs in (document.get("experiments") or {}).values())


_COPROCESS_RUN = "run:Co-Processing Join (CPU+GPU)"
_SEARCH_MARKER = "[split search]"
_SINGLE_BACKEND_RUNS = ("run:GPU Triton Join", "run:CPU-Partitioned Radix Join")


def check_coprocess(document: dict) -> List[str]:
    """Audit an explain document's co-processing runs ([] = clean).

    Each production run (split-search candidates don't count) must keep
    both ``cpu_cores`` and ``gpu_sm`` busy, and its makespan may not
    exceed the index-aligned Triton or CPU-partitioned run's (the fig16
    harness emits the three operators per size in that order)."""
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
        saw_coprocess = saw_coprocess or bool(coprocess)
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
                if i < len(singles) and (
                    run["makespan_seconds"] > singles[i]["makespan_seconds"]
                ):
                    problems.append(
                        f"{name} / {label}: makespan "
                        f"{run['makespan_seconds']:.6g}s exceeds "
                        f"{singles[i].get('label', kind)} "
                        f"({singles[i]['makespan_seconds']:.6g}s)"
                    )
    if not saw_coprocess:
        problems.append(
            "no co-processing runs found in the document (wrong "
            "experiment, or the operator never simulated?)"
        )
    return problems


def check_outofcore(document: dict) -> List[str]:
    """Audit a smoke report's out-of-core gauges ([] = clean).

    Every ``ext_outofcore`` entry needs ``checksum_ok == 1`` (spill,
    serial morsels and the morsel pool all matched the in-memory
    reference) and a pool speedup of at least :data:`MIN_POOL_SPEEDUP`.
    Both gauges are medians over the experiment's repeats."""
    gauges = document.get("gauges")
    if not isinstance(gauges, dict):
        return [
            "smoke report has no 'gauges' section; regenerate it with "
            "the current tools/perf_smoke.py"
        ]
    labels = sorted(label for label in gauges if label.split("@")[0] == "ext_outofcore")
    if not labels:
        return [
            "no ext_outofcore entry in the smoke report; run "
            "tools/perf_smoke.py --experiments ext_outofcore@4096"
        ]
    problems: List[str] = []
    for label in labels:
        values = gauges.get(label) or {}
        checksum_ok = values.get("exec.outofcore.checksum_ok")
        if checksum_ok != 1.0:
            problems.append(
                f"{label}: exec.outofcore.checksum_ok is {checksum_ok!r}; an "
                "out-of-core mode diverged from the in-memory reference"
            )
        speedup = values.get("exec.pool.speedup")
        if speedup is None:
            problems.append(f"{label}: exec.pool.speedup gauge missing")
        elif speedup < MIN_POOL_SPEEDUP:
            problems.append(
                f"{label}: morsel pool speedup {speedup:.3f}x is below "
                f"the {MIN_POOL_SPEEDUP:g}x gate"
            )
    return problems


def _p99(report: dict) -> Optional[float]:
    return ((report.get("latency") or {}).get("percentiles") or {}).get("p99")


def check_service(report: dict, baseline: dict) -> List[str]:
    """Audit a load-generator report against the committed baseline.

    Deterministic facts gate strictly: zero incorrect or failed queries,
    and digest, rejected tally and event counts equal to the baseline's
    for the same run parameters. p99 gates loosely (:data:`MAX_P99_FACTOR`)."""
    problems = [
        f"report ran {field}={report.get(field)!r} but the baseline has "
        f"{field}={baseline.get(field)!r}; rerun tools/load_gen.py with the "
        "baseline's parameters"
        for field in ("queries", "workers", "seed", "theta")
        if report.get(field) != baseline.get(field)
    ]
    if problems:
        return problems
    got, want = report.get("deterministic") or {}, baseline.get("deterministic") or {}
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
    p99, base_p99 = _p99(report), _p99(baseline)
    if p99 is None:
        problems.append("report has no latency.percentiles.p99")
    elif base_p99 and p99 > base_p99 * MAX_P99_FACTOR:
        problems.append(
            f"p99 {p99 * 1e3:.1f} ms exceeds {MAX_P99_FACTOR:g}x the "
            f"baseline's {base_p99 * 1e3:.1f} ms"
        )
    return problems


def check_slo(
    report: dict, baseline: Optional[dict] = None, history: Optional[dict] = None
) -> List[str]:
    """Audit a load-generator report's SLO section ([] = clean).

    Every objective must be within its error budget, error-kind tallies
    (deterministic) must equal the baseline's, and a supplied perf trajectory
    may have no entry past :data:`ANOMALY_FACTOR` times its trailing mean."""
    slo_report = report.get("slo")
    if not isinstance(slo_report, dict):
        return ["report has no 'slo' section; rerun tools/load_gen.py with --slo"]
    verdicts = slo_report.get("objectives") or []
    problems = [] if verdicts else ["slo section declares no objectives"]
    for verdict in verdicts:
        if not verdict.get("ok"):
            problems.append(
                f"objective {verdict.get('name')!r} violated: bad "
                f"fraction {verdict.get('bad_fraction', 0.0):.4%} exceeds "
                f"the {verdict.get('error_budget', 0.0):.4%} error budget "
                f"(burn rate {verdict.get('burn_rate', 0.0):.2f})"
            )
    baseline_slo = (baseline or {}).get("slo") or {}
    wanted = {v.get("name"): v for v in baseline_slo.get("objectives") or []}
    for verdict in verdicts:
        want = wanted.get(verdict.get("name"))
        if verdict.get("kind") != "errors" or want is None:
            continue
        for field in ("objective", "total", "bad"):
            if verdict.get(field) != want.get(field):
                problems.append(
                    f"objective {verdict.get('name')!r}: deterministic "
                    f"field {field!r} is {verdict.get(field)!r}; baseline "
                    f"has {want.get(field)!r}"
                )
    anomalies = history_anomalies(history, ANOMALY_FACTOR) if history else []
    for anomaly in anomalies:
        problems.append(
            f"history entry {anomaly['entry']} "
            f"({anomaly['timestamp']}): {anomaly['experiment']} took "
            f"{anomaly['seconds']:.3f}s, {anomaly['ratio']:.1f}x its "
            f"trailing mean {anomaly['trailing_mean']:.3f}s"
        )
    return problems


def _check_slo_against_files(report: dict) -> List[str]:
    """:func:`check_slo` against the committed baseline and history."""
    baseline = _load(SERVICE_BASELINE) if SERVICE_BASELINE.exists() else None
    history = _load(DEFAULT_HISTORY) if DEFAULT_HISTORY.exists() else None
    return check_slo(report, baseline=baseline, history=history)


def _trace_spans(document: dict) -> List[dict]:
    events = document.get("traceEvents", [])
    return [e for e in events if e.get("cat") == "trace" and e.get("ph") == "X"]


def check_trace(document: dict, min_traces: int = 1) -> List[str]:
    """Audit a Chrome trace document ([] = clean): the exporter's
    validator (well-formed, nested, acyclic span forest, no orphan
    parents) and at least ``min_traces`` distinct trace trees."""
    problems = validate_chrome_trace(document)
    trace_ids = {e.get("args", {}).get("trace") for e in _trace_spans(document)}
    trace_ids.discard(None)
    if len(trace_ids) < min_traces:
        problems.append(
            f"document has {len(trace_ids)} trace tree(s); expected at "
            f"least {min_traces} (was the run traced?)"
        )
    return problems


_TIMING_MARK = re.compile(r"^\[(\w+): [0-9.]+s\]$")
#: The wall-clock summary's tally notes: the run memo's and the match
#: memo's.
_RUN_CACHE_NOTE = re.compile(r"^\s*note: (run cache|match memo): ")
#: The pseudo-table holding that note (no experiment name has a space).
RUN_CACHE = "run cache"


def bench_tables(text: str) -> Dict[str, List[str]]:
    """Each experiment's table lines in a ``python -m repro.bench`` dump.

    An experiment's ``[name: X.Xs]`` timing mark closes its tables and is
    dropped; the wall-clock summary is dropped except for its run-cache
    and match-memo tally notes, kept as the :data:`RUN_CACHE` table (the
    hits and misses are deterministic in a serial run); the measured
    experiments' tables (:data:`MEASURED_EXPERIMENTS`) are dropped too.
    """
    tables: Dict[str, List[str]] = {}
    block: List[str] = []
    lines = iter(text.splitlines())
    for line in lines:
        if line.startswith("Wall-clock per experiment"):
            notes = [line for line in lines if _RUN_CACHE_NOTE.match(line)]
            if notes:
                tables[RUN_CACHE] = notes
            break
        mark = _TIMING_MARK.match(line)
        if mark is None:
            block.append(line)
            continue
        if mark.group(1) not in MEASURED_EXPERIMENTS:
            tables[mark.group(1)] = block
        block = []
    return tables


def check_tables(tables: Dict[str, List[str]], baseline: str) -> List[str]:
    """Diff a run's tables against a baseline dump ([] = identical)."""
    expected = bench_tables(baseline)
    problems = [
        f"{name}: missing from the run" for name in expected if name not in tables
    ]
    for name, lines in tables.items():
        want = expected.get(name)
        if want is None:
            problems.append(f"{name}: not in the baseline")
            continue
        if lines == want:
            continue
        differ = [
            i for i in range(max(len(lines), len(want)))
            if lines[i:i + 1] != want[i:i + 1]
        ]
        first = differ[0]
        got = lines[first] if first < len(lines) else "<end>"
        was = want[first] if first < len(want) else "<end>"
        problems.append(
            f"{name}: {len(differ)} line(s) differ; line {first + 1} "
            f"is {got!r}, baseline {was!r}"
        )
    return problems


def _load_tables(path: pathlib.Path) -> Dict[str, List[str]]:
    tables = bench_tables(_load_text(path))
    if not tables:
        raise ValueError(f"{path} holds no `python -m repro.bench` tables")
    return tables


def _expect(description: str, accepts: Callable[[dict], bool]):
    """A JSON loader raising ValueError (a usage error) on the wrong shape."""

    def load(path: pathlib.Path) -> dict:
        document = _load(path)
        if not accepts(document):
            raise ValueError(f"{path} is not {description}")
        return document
    return load


def _events_summary(records: List[dict]) -> str:
    counts = events_mod.counts_by_type(records).items()
    summary = ", ".join(f"{k} x{v}" for k, v in counts)
    return f"event schema holds over {len(records)} event(s)" + (
        f": {summary}" if summary else ""
    )


class Gate(NamedTuple):
    """``--check-<name> PATH``: load the artifact, check it ([] = holds), then
    print the summary line or the header ``N <heading>:`` and the problems."""

    help: str
    load: Callable[[pathlib.Path], object]
    check: Callable[[object], List[str]]
    summary: Callable[[object], str]
    heading: Callable[[object], str]


_load_explain = _expect("an explain document", lambda d: _kind(d) == "explain")


def _invariants(document: dict) -> str:
    return f"invariant violation(s) in {_run_count(document)} run(s)"


GATES: Dict[str, Gate] = {
    "invariants": Gate(
        "audit an explain document's attribution invariants",
        _load_explain, check_invariants,
        lambda d: f"all invariants hold over {_run_count(d)} explained run(s)",
        _invariants,
    ),
    "coprocess": Gate(
        "the invariants, then the fig16 co-processing rule",
        _load_explain, lambda d: check_invariants(d) + check_coprocess(d),
        lambda d: "all invariants + co-processing gate hold over "
        f"{_run_count(d)} explained run(s)",
        _invariants,
    ),
    "outofcore": Gate(
        "audit a perf-smoke report's out-of-core gauges",
        _expect("a perf-smoke report", lambda d: _kind(d) == "smoke"), check_outofcore,
        lambda d: "out-of-core gate holds: checksum identity + pool speedup "
        f">= {MIN_POOL_SPEEDUP:g}x",
        lambda d: "out-of-core gate violation(s)",
    ),
    "events": Gate(
        "validate a JSONL event log against the flight-recorder schema",
        _load_events, events_mod.validate_events, _events_summary,
        lambda r: f"event-schema violation(s) in {len(r)} event(s)",
    ),
    "service": Gate(
        "audit a tools/load_gen.py report against BENCH_service.json",
        _expect("a tools/load_gen.py report",
                lambda d: d.get("kind") == "service-load"),
        lambda r: check_service(r, _load(SERVICE_BASELINE)),
        lambda r: f"service gate holds: {r['queries']} queries, 0 incorrect, "
        f"digest {r['deterministic']['results_digest']} matches baseline",
        lambda r: "service gate violation(s)",
    ),
    "slo": Gate(
        "audit a tools/load_gen.py report's SLO section and the history",
        _load, _check_slo_against_files,
        lambda r: "SLO gate holds: "
        f"{len((r.get('slo') or {}).get('objectives') or [])} objective(s) "
        "within budget, deterministic tallies match, history clean",
        lambda r: "SLO gate violation(s)",
    ),
    "trace": Gate(
        "audit a Chrome trace file's span forest (see --min-traces)",
        _load, check_trace,
        lambda d: f"trace gate holds: {len(_trace_spans(d))} spans form a "
        "well-formed trace forest",
        lambda d: "trace gate violation(s)",
    ),
    "tables": Gate(
        f"diff a `python -m repro.bench all` dump against {TABLES_BASELINE.name}",
        _load_tables,
        lambda tables: check_tables(tables, _load_text(TABLES_BASELINE)),
        lambda tables: "tables gate holds: "
        f"{len(tables) - (RUN_CACHE in tables)} experiment(s) and the "
        f"run-cache tally match {TABLES_BASELINE.name}",
        lambda tables: "table difference(s)",
    ),
    "prometheus": Gate(
        "validate a Prometheus text exposition file",
        _load_text, prometheus.validate_prometheus,
        lambda text: "Prometheus exposition valid: "
        f"{len(prometheus.parse_prometheus(text))} samples",
        lambda text: "Prometheus exposition violation(s)",
    ),
}


# -- command line ---------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/bench_diff.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "paths", nargs="*", type=pathlib.Path,
        help="two reports to diff (explain documents, smoke reports or event logs)",
    )
    parser.add_argument(
        "--history", nargs="?", type=pathlib.Path, const=DEFAULT_HISTORY,
        metavar="PATH",
        help="diff the last two entries of the perf trajectory "
        f"(default {DEFAULT_HISTORY.name})",
    )
    gates = parser.add_mutually_exclusive_group()
    for name, gate in GATES.items():
        gates.add_argument(
            f"--check-{name}", type=pathlib.Path, metavar="PATH", help=gate.help
        )
    parser.add_argument(
        "--min-traces", type=int, default=1, metavar="N",
        help="with --check-trace: require at least N distinct trace trees "
        "(default 1)",
    )
    args = parser.parse_args(argv)

    for name, gate in GATES.items():
        path = getattr(args, f"check_{name}")
        if path is None:
            continue
        try:
            document = gate.load(path)
        except ValueError as exc:
            parser.error(str(exc))
        check = gate.check
        if name == "trace":
            check = functools.partial(check_trace, min_traces=args.min_traces)
        problems = check(document)
        if not problems:
            print(gate.summary(document))
            return 0
        print(f"{len(problems)} {gate.heading(document)}:")
        for problem in problems:
            print(f"  ! {problem}")
        return 1

    if args.history is not None:
        if args.paths:
            parser.error("--history takes no positional reports")
        entries = _load(args.history).get("entries")
        if not isinstance(entries, list) or len(entries) < 2:
            raise SystemExit(
                f"bench_diff: {args.history} has fewer than two history "
                "entries; run tools/perf_smoke.py to append one"
            )
        a, b = entries[-2], entries[-1]
        labels = a.get("timestamp", "entry[-2]"), b.get("timestamp", "entry[-1]")
        print("\n".join(diff_smoke(a, b, *labels)))
        return 0
    if len(args.paths) != 2:
        parser.error("expected exactly two report paths (or --history)")
    path_a, path_b = args.paths
    if (path_a.suffix == ".jsonl") != (path_b.suffix == ".jsonl"):
        parser.error("cannot diff an event log against a JSON report")
    if path_a.suffix == ".jsonl":
        a, b = _load_events(path_a), _load_events(path_b)
        print("\n".join(diff_events(a, b, str(path_a), str(path_b))))
        return 0
    a, b = _load(path_a), _load(path_b)
    kind_a, kind_b = _kind(a), _kind(b)
    if kind_a != kind_b:
        parser.error(f"cannot diff a {kind_a} document against a {kind_b} one")
    if kind_a == "history":
        parser.error("pass a trajectory via --history, not positionally")
    diff = diff_explain if kind_a == "explain" else diff_smoke
    print("\n".join(diff(a, b, str(path_a), str(path_b))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
