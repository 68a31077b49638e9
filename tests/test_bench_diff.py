"""The CI gates of ``tools/bench_diff.py``, one passing and one failing
artifact each.

Every fixture is a small document written to ``tmp_path`` by the test
itself, so each gate's verdict, its header line and every ``  ! ``
violation line are pinned without running the load generator or the
bench. The service and SLO gates read the committed
``BENCH_service.json`` as their baseline; the fixtures are derived from
it, so refreshing the baseline does not break them.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib
import re

import pytest

from repro.telemetry import metrics as metrics_mod
from repro.telemetry.prometheus import parse_prometheus, write_prometheus

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = REPO_ROOT / "tools" / "bench_diff.py"


@pytest.fixture(scope="module")
def bench_diff():
    spec = importlib.util.spec_from_file_location("bench_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def run(bench_diff, capsys):
    """Run the CLI; return (exit code, first line, problem lines)."""

    def invoke(*argv):
        code = bench_diff.main([str(arg) for arg in argv])
        lines = capsys.readouterr().out.splitlines()
        problems = [line[4:] for line in lines if line.startswith("  ! ")]
        return code, lines[0], problems

    return invoke


def write_json(path: pathlib.Path, document) -> pathlib.Path:
    path.write_text(json.dumps(document))
    return path


# -- service --------------------------------------------------------------------


@pytest.fixture
def baseline():
    return json.loads((REPO_ROOT / "BENCH_service.json").read_text())


def service_gate(run, tmp_path, report):
    return run("--check-service", write_json(tmp_path / "r.json", report))


class TestServiceGate:
    def test_baseline_copy_passes(self, run, tmp_path, baseline):
        code, first, problems = service_gate(run, tmp_path, baseline)
        digest = baseline["deterministic"]["results_digest"]
        assert code == 0 and problems == []
        assert first == (
            f"service gate holds: {baseline['queries']} queries, "
            f"0 incorrect, digest {digest} matches baseline"
        )

    def test_wrong_digest(self, run, tmp_path, baseline):
        report = copy.deepcopy(baseline)
        report["deterministic"]["results_digest"] = "0" * 16
        want = baseline["deterministic"]["results_digest"]
        code, first, problems = service_gate(run, tmp_path, report)
        assert code == 1
        assert first == "1 service gate violation(s):"
        assert problems == [
            f"deterministic field 'results_digest' is '{'0' * 16}'; "
            f"baseline has '{want}' — same-seed runs must be byte-identical"
        ]

    def test_incorrect_results(self, run, tmp_path, baseline):
        report = copy.deepcopy(baseline)
        report["deterministic"]["incorrect"] = 2
        code, first, problems = service_gate(run, tmp_path, report)
        assert code == 1
        assert first == "1 service gate violation(s):"
        assert problems == [
            "2 incorrect quer(ies): concurrent results diverged from the "
            "serial references"
        ]

    def test_run_parameter_mismatch(self, run, tmp_path, baseline):
        report = copy.deepcopy(baseline)
        report["workers"] = baseline["workers"] + 1
        report["deterministic"]["results_digest"] = "0" * 16
        code, first, problems = service_gate(run, tmp_path, report)
        # A mismatched run is not compared further: only the parameter
        # problem is reported.
        assert code == 1
        assert first == "1 service gate violation(s):"
        assert problems == [
            f"report ran workers={baseline['workers'] + 1} but the "
            f"baseline has workers={baseline['workers']}; rerun "
            "tools/load_gen.py with the baseline's parameters"
        ]

    def test_p99_over_25x_the_baseline(self, run, tmp_path, baseline):
        report = copy.deepcopy(baseline)
        base_p99 = baseline["latency"]["percentiles"]["p99"]
        report["latency"]["percentiles"]["p99"] = base_p99 * 26
        code, first, problems = service_gate(run, tmp_path, report)
        assert code == 1
        assert problems == [
            f"p99 {base_p99 * 26 * 1e3:.1f} ms exceeds 25x the "
            f"baseline's {base_p99 * 1e3:.1f} ms"
        ]
        # 24x is inside the bound.
        report["latency"]["percentiles"]["p99"] = base_p99 * 24
        assert service_gate(run, tmp_path, report)[0] == 0

    def test_not_a_load_gen_report_is_a_usage_error(
        self, run, tmp_path, baseline
    ):
        report = copy.deepcopy(baseline)
        report["kind"] = "something-else"
        with pytest.raises(SystemExit) as exit_info:
            service_gate(run, tmp_path, report)
        assert exit_info.value.code == 2


# -- SLO ------------------------------------------------------------------------


def history(*fig13_seconds):
    return {
        "entries": [
            {"timestamp": f"t{i}", "experiments": {"fig13": seconds}}
            for i, seconds in enumerate(fig13_seconds)
        ]
    }


@pytest.fixture
def clean_history(bench_diff, monkeypatch, tmp_path):
    path = write_json(tmp_path / "history.json", history(1.0, 1.1, 0.9, 1.0))
    monkeypatch.setattr(bench_diff, "DEFAULT_HISTORY", path)
    return path


def slo_report(baseline):
    return {"kind": "service-load", "slo": copy.deepcopy(baseline["slo"])}


def objective(report, name):
    return next(
        v for v in report["slo"]["objectives"] if v["name"] == name
    )


def slo_gate(run, tmp_path, report):
    return run("--check-slo", write_json(tmp_path / "r.json", report))


class TestSloGate:
    def test_baseline_slo_passes(self, run, tmp_path, baseline, clean_history):
        code, first, problems = slo_gate(run, tmp_path, slo_report(baseline))
        count = len(baseline["slo"]["objectives"])
        assert code == 0 and problems == []
        assert first == (
            f"SLO gate holds: {count} objective(s) within budget, "
            "deterministic tallies match, history clean"
        )

    def test_violated_objective(self, run, tmp_path, baseline, clean_history):
        report = slo_report(baseline)
        verdict = objective(report, "query-latency")
        verdict.update(
            ok=False, bad_fraction=0.1, error_budget=0.05, burn_rate=2.0
        )
        code, first, problems = slo_gate(run, tmp_path, report)
        assert code == 1
        assert first == "1 SLO gate violation(s):"
        assert problems == [
            "objective 'query-latency' violated: bad fraction 10.0000% "
            "exceeds the 5.0000% error budget (burn rate 2.00)"
        ]

    def test_tally_mismatch(self, run, tmp_path, baseline, clean_history):
        report = slo_report(baseline)
        want = objective(slo_report(baseline), "availability")["total"]
        objective(report, "availability")["total"] = want + 1
        code, first, problems = slo_gate(run, tmp_path, report)
        assert code == 1
        assert problems == [
            f"objective 'availability': deterministic field 'total' is "
            f"{want + 1!r}; baseline has {want!r}"
        ]

    def test_history_anomaly(
        self, bench_diff, monkeypatch, run, tmp_path, baseline
    ):
        path = write_json(tmp_path / "history.json", history(1, 1, 1, 10))
        monkeypatch.setattr(bench_diff, "DEFAULT_HISTORY", path)
        code, first, problems = slo_gate(run, tmp_path, slo_report(baseline))
        assert code == 1
        assert first == "1 SLO gate violation(s):"
        assert problems == [
            "history entry 3 (t3): fig13 took 10.000s, 10.0x its trailing "
            "mean 1.000s"
        ]
        # 4x the trailing mean is inside the 5x bound.
        write_json(path, history(1, 1, 1, 4))
        assert slo_gate(run, tmp_path, slo_report(baseline))[0] == 0


# -- out-of-core ----------------------------------------------------------------


def smoke_report(checksum_ok=1.0, speedup=1.3):
    label = "ext_outofcore@4096"
    return {
        "experiments": {label: 1.5},
        "gauges": {
            label: {
                "exec.outofcore.checksum_ok": checksum_ok,
                "exec.pool.speedup": speedup,
            }
        },
    }


def outofcore_gate(run, tmp_path, report):
    return run("--check-outofcore", write_json(tmp_path / "oc.json", report))


class TestOutOfCoreGate:
    def test_identical_and_faster_passes(self, run, tmp_path):
        code, first, problems = outofcore_gate(run, tmp_path, smoke_report())
        assert code == 0 and problems == []
        assert first == (
            "out-of-core gate holds: checksum identity + pool speedup >= 1x"
        )

    def test_checksum_mismatch(self, run, tmp_path):
        report = smoke_report(checksum_ok=0.0)
        code, first, problems = outofcore_gate(run, tmp_path, report)
        assert code == 1
        assert first == "1 out-of-core gate violation(s):"
        assert problems == [
            "ext_outofcore@4096: exec.outofcore.checksum_ok is 0.0; an "
            "out-of-core mode diverged from the in-memory reference"
        ]

    def test_pool_slower_than_one_process(self, run, tmp_path):
        report = smoke_report(speedup=0.741)
        code, first, problems = outofcore_gate(run, tmp_path, report)
        assert code == 1
        assert problems == [
            "ext_outofcore@4096: morsel pool speedup 0.741x is below the "
            "1x gate"
        ]
        assert outofcore_gate(run, tmp_path, smoke_report(speedup=1.0))[0] == 0

    def test_missing_gauges_section(self, run, tmp_path):
        report = smoke_report()
        del report["gauges"]
        code, first, problems = outofcore_gate(run, tmp_path, report)
        assert code == 1
        assert problems == [
            "smoke report has no 'gauges' section; regenerate it with the "
            "current tools/perf_smoke.py"
        ]


# -- trace ----------------------------------------------------------------------

TRACE, ROOT, CHILD = "a" * 16, "b" * 16, "c" * 16


def span(name, ts, dur, span_id, parent=None):
    args = {"trace": TRACE, "span": span_id}
    if parent is not None:
        args["parent"] = parent
    return {
        "ph": "X", "cat": "trace", "name": name, "ts": ts, "dur": dur,
        "pid": 1, "tid": 1, "args": args,
    }


def trace_document(child_parent=ROOT):
    return {
        "traceEvents": [
            span("query", 0, 10, ROOT),
            span("execute", 1, 5, CHILD, parent=child_parent),
        ]
    }


def instant(**args):
    """A recorder instant, as ``recorder_instant_events`` renders one."""
    return {
        "ph": "i", "cat": "recorder", "s": "p", "name": "fault.injected",
        "ts": 2, "pid": 1, "tid": 0, "args": {"kind": "k", **args},
    }


class TestTraceGate:
    def test_one_tree_passes_the_default_floor(self, run, tmp_path):
        path = write_json(tmp_path / "t.json", trace_document())
        code, first, problems = run("--check-trace", path)
        assert code == 0 and problems == []
        assert first == "trace gate holds: 2 spans form a well-formed trace forest"

    def test_too_few_trees(self, run, tmp_path):
        path = write_json(tmp_path / "t.json", trace_document())
        code, first, problems = run("--check-trace", path, "--min-traces", 5)
        assert code == 1
        assert first == "1 trace gate violation(s):"
        assert problems == [
            "document has 1 trace tree(s); expected at least 5 (was the run "
            "traced?)"
        ]

    def test_orphan_parent(self, run, tmp_path):
        path = write_json(
            tmp_path / "t.json", trace_document(child_parent="d" * 16)
        )
        code, first, problems = run("--check-trace", path)
        assert code == 1
        assert problems == [
            f"trace {TRACE}: span {CHILD} has orphan parent {'d' * 16} "
            "(no such span in the trace)"
        ]

    def test_recorder_instants_name_recorded_spans(self, run, tmp_path):
        document = trace_document()
        document["traceEvents"] += [
            instant(trace=TRACE, span=CHILD),
            instant(),  # recorded outside any trace: still valid
        ]
        path = write_json(tmp_path / "t.json", document)
        code, first, problems = run("--check-trace", path)
        assert code == 0 and problems == []
        assert first == "trace gate holds: 2 spans form a well-formed trace forest"

    def test_orphan_recorder_instant(self, run, tmp_path):
        document = trace_document()
        document["traceEvents"].append(instant(trace=TRACE, span="d" * 16))
        path = write_json(tmp_path / "t.json", document)
        code, first, problems = run("--check-trace", path)
        assert code == 1
        assert first == "1 trace gate violation(s):"
        assert problems == [
            f"recorder instant 'fault.injected' names span {'d' * 16} of "
            f"trace {TRACE}, which the document does not record"
        ]


# -- events ---------------------------------------------------------------------


def write_events(path: pathlib.Path, records) -> pathlib.Path:
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return path


def event_log(end_seq=1):
    envelope = {"v": 1, "pid": 7}
    return [
        {**envelope, "type": "experiment.start", "ts": 1.0, "seq": 0,
         "experiment": "fig13"},
        {**envelope, "type": "experiment.end", "ts": 2.0, "seq": end_seq,
         "experiment": "fig13", "seconds": 1.0},
    ]


class TestEventsGate:
    def test_valid_log_passes_with_counts(self, run, tmp_path):
        path = write_events(tmp_path / "ev.jsonl", event_log())
        code, first, problems = run("--check-events", path)
        assert code == 0 and problems == []
        assert first == (
            "event schema holds over 2 event(s): experiment.end x1, "
            "experiment.start x1"
        )

    def test_duplicate_pid_seq(self, run, tmp_path):
        path = write_events(tmp_path / "ev.jsonl", event_log(end_seq=0))
        code, first, problems = run("--check-events", path)
        assert code == 1
        assert first == "1 event-schema violation(s) in 2 event(s):"
        assert problems == [
            "event 1 (experiment.end) repeats (pid, seq) (7, 0) — a worker "
            "buffer was absorbed twice"
        ]


# -- invariants + co-processing -------------------------------------------------

TRITON = "run:GPU Triton Join @64M"
CPU = "run:CPU-Partitioned Radix Join @64M"
COPROCESS = "run:Co-Processing Join (CPU+GPU) @64M"


def explained(label, makespan, attributed=None, utilization=None):
    return {
        "label": label,
        "makespan_seconds": makespan,
        "seconds_by_bound": {"compute": makespan if attributed is None
                             else attributed},
        "average_utilization": utilization or {"cpu_cores": 0.5,
                                               "gpu_sm": 0.7},
    }


def explain_document(**runs):
    return {"experiments": runs}


def fig16(coprocess_makespan=0.8):
    return explain_document(
        fig16=[
            explained(TRITON, 1.0),
            explained(CPU, 2.0),
            explained(COPROCESS, coprocess_makespan),
            # Split-search candidates are not production runs: a slow
            # one must not fail the gate.
            explained(
                "run:Co-Processing Join (CPU+GPU) [split search] 0.9", 5.0
            ),
        ]
    )


def coprocess_gate(run, path):
    return run("--check-coprocess", path)


class TestInvariantsGate:
    def test_consistent_run_passes(self, run, tmp_path):
        path = write_json(
            tmp_path / "e.json", explain_document(fig13=[explained(TRITON, 1.0)])
        )
        code, first, problems = run("--check-invariants", path)
        assert code == 0 and problems == []
        assert first == "all invariants hold over 1 explained run(s)"

    def test_broken_attribution(self, run, tmp_path):
        document = explain_document(
            fig13=[explained(TRITON, 1.0, attributed=0.5)]
        )
        path = write_json(tmp_path / "e.json", document)
        code, first, problems = run("--check-invariants", path)
        assert code == 1
        assert first == "1 invariant violation(s) in 1 run(s):"
        assert problems == [
            f"fig13 / {TRITON}: bound attribution sums to 0.5, makespan "
            "is 1.0"
        ]

    def test_smoke_report_is_a_usage_error(self, run, tmp_path):
        path = write_json(tmp_path / "oc.json", smoke_report())
        with pytest.raises(SystemExit) as exit_info:
            run("--check-invariants", path)
        assert exit_info.value.code == 2


class TestCoprocessGate:
    def test_faster_coprocessing_passes(self, run, tmp_path):
        path = write_json(tmp_path / "e.json", fig16())
        code, first, problems = coprocess_gate(run, path)
        assert code == 0 and problems == []
        assert first == (
            "all invariants + co-processing gate hold over 4 explained run(s)"
        )

    def test_slower_than_the_aligned_triton_run(self, run, tmp_path):
        path = write_json(tmp_path / "e.json", fig16(coprocess_makespan=1.5))
        code, first, problems = coprocess_gate(run, path)
        assert code == 1
        assert first == "1 invariant violation(s) in 4 run(s):"
        assert problems == [
            f"fig16 / {COPROCESS}: makespan 1.5s exceeds {TRITON} (1s)"
        ]

    def test_no_coprocessing_runs(self, run, tmp_path):
        document = explain_document(
            fig13=[explained(TRITON, 1.0), explained(CPU, 2.0)]
        )
        path = write_json(tmp_path / "e.json", document)
        code, first, problems = coprocess_gate(run, path)
        assert code == 1
        assert problems == [
            "no co-processing runs found in the document (wrong experiment, "
            "or the operator never simulated?)"
        ]

    def test_invariants_are_checked_too(self, run, tmp_path):
        document = fig16()
        document["experiments"]["fig16"][0]["seconds_by_bound"] = {
            "compute": 0.5
        }
        path = write_json(tmp_path / "e.json", document)
        code, first, problems = coprocess_gate(run, path)
        assert code == 1
        assert problems == [
            f"fig16 / {TRITON}: bound attribution sums to 0.5, makespan "
            "is 1.0"
        ]


# -- tables ---------------------------------------------------------------------


@pytest.fixture
def dump():
    """The committed ``bench all`` dump, as the gate's baseline reads it."""
    return (REPO_ROOT / "results_all.txt").read_text()


def tables_gate(run, tmp_path, text):
    path = tmp_path / "results.txt"
    path.write_text(text)
    return run("--check-tables", path)


class TestTablesGate:
    def test_same_tables_at_other_timings_pass(self, run, tmp_path, dump):
        # Timing marks, the wall-clock summary's seconds and the
        # measured experiments' tables all differ run to run.
        text = re.sub(r"^\[(\w+): [0-9.]+s\]$", r"[\1: 99.9s]", dump,
                      flags=re.M)
        text = text.replace("p50 ms    |", "p50 ms    | 12345 |")
        text = text.replace("wall seconds           |",
                            "wall seconds           | 6 |")
        tables, summary = text.split("Wall-clock per experiment")
        summary = re.sub(r"\| +[0-9.]+$", "| 9.99", summary, flags=re.M)
        text = tables + "Wall-clock per experiment" + summary + "the end\n"
        code, first, problems = tables_gate(run, tmp_path, text)
        assert code == 0 and problems == []
        assert first == (
            "tables gate holds: 23 experiment(s) and the run-cache tally "
            "match results_all.txt"
        )

    def test_changed_run_cache_tally(self, run, tmp_path, dump):
        note = "  note: run cache: 703 hits, 233 misses"
        assert note in dump.splitlines()
        changed = note.replace("703 hits", "702 hits")
        code, first, problems = tables_gate(
            run, tmp_path, dump.replace(note, changed)
        )
        assert code == 1
        assert problems == [
            f"run cache: 1 line(s) differ; line 1 is {changed!r}, "
            f"baseline {note!r}"
        ]
        without_summary = dump.split("Wall-clock per experiment")[0]
        code, first, problems = tables_gate(run, tmp_path, without_summary)
        assert code == 1
        assert problems == ["run cache: missing from the run"]

    def test_match_memo_tally_is_gated(self, run, tmp_path, dump):
        note = "  note: match memo: 108 hits, 66 misses"
        assert note in dump.splitlines()
        code, first, problems = tables_gate(run, tmp_path, dump)
        assert code == 0 and problems == []
        changed = note.replace("66 misses", "67 misses")
        code, first, problems = tables_gate(
            run, tmp_path, dump.replace(note, changed)
        )
        assert code == 1
        assert problems == [
            f"run cache: 1 line(s) differ; line 2 is {changed!r}, "
            f"baseline {note!r}"
        ]
        code, first, problems = tables_gate(
            run, tmp_path, dump.replace(note + "\n", "")
        )
        assert code == 1
        assert problems == [
            f"run cache: 1 line(s) differ; line 2 is '<end>', "
            f"baseline {note!r}"
        ]

    def test_changed_value(self, run, tmp_path, dump):
        line = next(
            line for line in dump.splitlines()
            if line.startswith("GPU Triton Join (Perfect) |")
        )
        text = dump.replace(line, line.replace("2.268", "2.269"), 1)
        code, first, problems = tables_gate(run, tmp_path, text)
        assert code == 1
        assert first == "1 table difference(s):"
        assert problems == [
            f"fig01: 1 line(s) differ; line 6 is "
            f"{line.replace('2.268', '2.269')!r}, baseline {line!r}"
        ]

    def test_missing_and_extra_experiments(self, run, tmp_path, dump):
        text = dump.replace("[fig04: ", "[fig04b: ", 1)
        code, first, problems = tables_gate(run, tmp_path, text)
        assert code == 1
        assert first == "2 table difference(s):"
        assert problems == [
            "fig04: missing from the run", "fig04b: not in the baseline",
        ]

    def test_text_without_tables_is_a_usage_error(self, run, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            tables_gate(run, tmp_path, "no tables here\n")
        assert exit_info.value.code == 2


# -- Prometheus -----------------------------------------------------------------


class TestPrometheusGate:
    def test_write_then_cli_validate(self, run, tmp_path):
        registry = metrics_mod.MetricsRegistry()
        registry.count("exec.pool.jobs", 2)
        registry.observe("join.run_seconds", 0.2)
        path = tmp_path / "out.prom"
        write_prometheus(path, registry)
        samples = len(parse_prometheus(path.read_text()))
        code, first, problems = run("--check-prometheus", path)
        assert code == 0 and problems == []
        assert first == f"Prometheus exposition valid: {samples} samples"

    def test_cli_flags_invalid_file(self, run, tmp_path):
        path = tmp_path / "bad.prom"
        path.write_text('repro_x_bucket{le="1"} 3\n')
        code, first, problems = run("--check-prometheus", path)
        assert code == 1
        assert first == "3 Prometheus exposition violation(s):"
        assert problems == [
            'repro_x: no le="+Inf" bucket',
            "repro_x: missing _count series",
            "repro_x: missing _sum series",
        ]


# -- diff modes -----------------------------------------------------------------


class TestDiffModes:
    def test_smoke_diff_of_two_reports(self, run, tmp_path):
        old = write_json(tmp_path / "a.json", {"experiments": {"fig13": 1.0,
                                                               "fig17": 2.0}})
        new = write_json(tmp_path / "b.json", {"experiments": {"fig13": 1.5,
                                                               "fig17": 2.0}})
        code, first, _ = run(old, new)
        assert code == 0
        assert first == f"smoke diff: {old}  ->  {new}"

    def test_history_diffs_the_last_two_entries(self, run, tmp_path):
        path = write_json(tmp_path / "h.json", history(1.0, 2.0, 3.0))
        code, first, _ = run("--history", path)
        assert code == 0
        assert first == "smoke diff: t1  ->  t2"
