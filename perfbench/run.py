"""Closed-loop benchmark of the join service and the paper experiments.

Run from the repository root::

    python3 perfbench/run.py --workload service-mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed. ``--trace 1`` runs the loop untraced for half the time, then
installs the per-layer wrappers (see ``layers.py``) and runs it again,
reporting per-layer self times, waits and counts per operation, the
tracing overhead, and a check that each traced operation's self times
tile its wall time. Every operation's results are checked against
references computed during set-up; a failed or wrong operation makes
the run exit with code 1 after printing its result line.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import multiprocessing
import pathlib
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Optional

from layers import Tally, Tracer, install, service_breakdown, tiling_error

HERE = pathlib.Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: Set-up repetitions; ``setup_s`` reports the median.
SETUP_REPEATS = 3

#: A traced operation's self times must sum to its wall time (its root
#: frame on the client thread) within this.
TILING_TOLERANCE_S = 2e-4

#: Registry counters reported per traced operation, by the program's names.
KERNEL_COUNTERS = (
    "kernels.scatter.order.counting",
    "kernels.scatter.order.argsort",
    "kernels.scatter.claim.scatter",
    "kernels.scatter.claim.argsort",
    "batch.probe.dense",
    "batch.probe.searchsorted",
)

#: Per-layer self times (ms per operation) and the frame label of each.
SELF_TIMES = {
    "service.submit_ms": "service.submit",
    "service.queue_wait_ms": "service.queue_wait",
    "service.exec_overhead_ms": "service.exec_overhead",
    "plan.self_ms": "plan.execute",
    "data.generate_ms": "data.generate",
    "join.run_self_ms": "join.run",
    "join.graph_ms": "join.graph",
    "join.functional_ms": "join.functional",
    "kernels.scatter_ms": "kernels.scatter",
    "kernels.probe_ms": "kernels.probe",
    "sim.run_ms": "sim.run",
    "exec.ooc_self_ms": "exec.ooc",
    "exec.spill_ms": "exec.spill",
    "run_cache.key_ms": "run_cache.key",
    "advisor.split_ms": "advisor.split",
    "unattributed_ms": "unattributed",
}


@dataclass
class Record:
    """One finished operation of the closed loop."""

    key: str
    latency_s: float
    end: float
    outcome: Optional[object]
    error: Optional[str]
    tally: Optional[Tally] = None


def closed_loop(workload, seconds, tracer=None):
    """Each client issues its next operation when the previous returns,
    until ``seconds`` have passed; returns (records, window seconds)."""
    records = []
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds

    def client(index):
        for key in workload.inputs(index):
            if time.perf_counter() >= deadline:
                return
            t0 = time.perf_counter()
            outcome = error = tally = None
            try:
                if tracer is None:
                    outcome = workload.run(key)
                else:
                    outcome, tally = tracer.operation(lambda: workload.run(key))
                    if outcome.handle is not None:
                        worker = tracer.take_handoff(outcome.handle.result_value)
                        service_breakdown(tally, worker, outcome.handle, outcome.wait_s)
                if outcome.handle is not None:
                    # The handle holds the query's relations; keeping
                    # it would grow the process by every result.
                    outcome.handle = None
            except Exception:  # noqa: BLE001 - counted as a failure
                error = traceback.format_exc()
            t1 = time.perf_counter()
            with lock:
                records.append(Record(key, t1 - t0, t1, outcome, error, tally))

    threads = [
        threading.Thread(target=client, args=(i,), name=f"client-{i}")
        for i in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max((r.end for r in records), default=time.perf_counter())
    return records, end - started


def audit(records, references, log):
    """Mark wrong results as errors; returns (results, failed count)."""
    results = {}
    failed = 0
    for record in records:
        if record.error is None:
            for key, checksum in record.outcome.checksums.items():
                results.setdefault(key, checksum)
                if checksum != references.get(key) or results[key] != checksum:
                    record.error = (
                        f"wrong result for {key}: {checksum} != reference "
                        f"{references.get(key)}"
                    )
        if record.error is not None:
            failed += 1
            print(f"operation on {record.key} failed: {record.error}", file=log)
    return results, failed


def results_digest(results) -> str:
    canonical = ";".join(f"{k}={v}" for k, v in sorted(results.items()))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _vm_hwm_mb(pid) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _live_pids():
    return ["self"] + [c.pid for c in multiprocessing.active_children()]


def release_free_memory() -> None:
    """Hand the allocator's free pages back to the system (glibc), so
    what set-up freed is not counted later or copied into forked pool
    workers."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def reset_peak_rss() -> None:
    """Restart the high-water marks at the current RSS, so the peak
    covers the timed loop and not the references computed in set-up."""
    for pid in _live_pids():
        with open(f"/proc/{pid}/clear_refs", "w") as control:
            control.write("5")


def peak_rss_mb() -> float:
    """High-water RSS of this process plus each live worker process.

    Reaped children only reach ``RUSAGE_CHILDREN`` after they exit, so
    the pool workers' own high-water marks are read while they run.
    Forked workers count the pages they share with the parent.
    """
    return sum(_vm_hwm_mb(pid) for pid in _live_pids())


def end_to_end(records, window_s, setup_s, rss_mb):
    latencies = [r.latency_s for r in records if r.error is None]
    p50 = statistics.median(latencies) if latencies else 0.0
    return {
        "ops_per_s": (len(latencies) / window_s, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(records, untraced, experiments, log):
    """Per-operation means of the traced run's layer tallies, plus the
    tiling check; returns (metrics, tiling failures)."""
    ok = [r for r in records if r.error is None]
    n = len(ok)
    total = Tally()
    counters = {}
    input_bytes = 0
    tiling_failures = 0
    for record in ok:
        total.merge(record.tally)
        for name, value in record.outcome.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        input_bytes += record.outcome.input_bytes
        problem = tiling_error(
            record.tally, record.tally.total_s("unattributed"), TILING_TOLERANCE_S
        )
        if problem is not None:
            tiling_failures += 1
            print(f"tiling check failed on {record.key}: {problem}", file=log)
    counts = total.counts

    def per_op(value):
        return value / n if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name, label in SELF_TIMES.items():
        metrics[name] = (per_op(total.self_s(label)) * 1e3, "ms")
    bench_labels = [l for l in total.times if l.startswith("bench.")]
    metrics["bench.self_ms"] = (
        per_op(sum(total.self_s(l) for l in bench_labels)) * 1e3, "ms"
    )
    for name in experiments:
        metrics[f"bench.{name}_ms"] = (
            per_op(total.total_s(f"bench.{name}")) * 1e3, "ms"
        )
    def count(name):
        return counts.get(name, 0.0)

    metrics["sim.tasks"] = (per_op(count("sim.tasks")), "count")
    metrics["sim.us_per_task"] = (
        ratio(total.total_s("sim.run") * 1e6, count("sim.tasks")), "us"
    )
    metrics["exec.spill_bytes_per_input_byte"] = (
        ratio(counters.get("exec.spill.bytes_written", 0.0), input_bytes),
        "ratio",
    )
    metrics["exec.pool_job_ms"] = (per_op(count("exec.pool_job_s")) * 1e3, "ms")
    metrics["exec.pool_lock_wait_ms"] = (
        per_op(count("exec.pool_lock_wait_s")) * 1e3, "ms"
    )
    metrics["exec.pool_occupancy"] = (
        ratio(count("exec.pool_occupancy_sum"), count("exec.pool_jobs")),
        "ratio",
    )
    metrics["exec.steal_ratio"] = (
        ratio(count("exec.steals"), count("exec.morsels")), "ratio"
    )
    metrics["exec.morsels_recovered"] = (
        per_op(count("exec.morsels_recovered")), "count"
    )
    hits = counters.get("run_cache.hits", 0.0)
    metrics["run_cache.hit_ratio"] = (
        ratio(hits, hits + counters.get("run_cache.misses", 0.0)), "ratio"
    )
    for name in KERNEL_COUNTERS:
        metrics[name] = (per_op(counters.get(name, 0.0)), "count")
    wall = sum(r.latency_s for r in ok)
    metrics["unattributed_share_pct"] = (
        ratio(total.self_s("unattributed"), wall) * 100, "%"
    )
    base = [r.latency_s for r in untraced if r.error is None]
    metrics["telemetry.overhead_pct"] = (
        (ratio(per_op(wall), statistics.fmean(base)) - 1) * 100 if base else 0.0,
        "%",
    )
    return metrics, tiling_failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SOURCE / "repro").is_dir():
        print(f"program sources not found under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import_started = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - import_started
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    spill_dir = tempfile.mkdtemp(prefix="_spill-", dir=HERE)
    workload = workloads.make(args.workload, args.seed, spill_dir)
    log = sys.stderr
    try:
        references_started = time.perf_counter()
        references = workload.references()
        print(
            f"references: {len(references)} in "
            f"{time.perf_counter() - references_started:.2f}s (not in setup_s)",
            file=log,
        )
        setups = []
        for repeat in range(SETUP_REPEATS):
            release_free_memory()
            started = time.perf_counter()
            workload.start()
            workload.warm()
            setups.append(time.perf_counter() - started)
            if repeat + 1 < SETUP_REPEATS:
                workload.stop()
        setup_s = import_s + statistics.median(setups)
        release_free_memory()
        reset_peak_rss()

        untraced_s = args.seconds / 2 if args.trace else args.seconds
        records, window_s = closed_loop(workload, untraced_s)
        traced = []
        if args.trace:
            tracer = Tracer()
            install(
                tracer,
                [(n, workloads.ALL_EXPERIMENTS[n]) for n in workloads.SWEEP],
            )
            traced, _ = closed_loop(workload, args.seconds / 2, tracer)
        rss_mb = peak_rss_mb()
    finally:
        workload.stop()
        shutil.rmtree(spill_dir, ignore_errors=True)
        _stop_resource_tracker()

    results, failed = audit(records, references, log)
    correct = failed == 0 and bool(results)
    attempted = len(records) + len(traced)
    digest = results_digest(results)
    print(f"workload {args.workload}, seed {args.seed}, {workload.clients} client(s)")
    print(
        f"untraced: {len(records)} operations, {failed} failed, "
        f"results digest {digest}"
    )
    if args.trace:
        traced_results, traced_failed = audit(traced, references, log)
        failed += traced_failed
        common = set(results) & set(traced_results)
        same = bool(common) and results_digest(
            {k: results[k] for k in common}
        ) == results_digest({k: traced_results[k] for k in common})
        metrics, tiling_failures = per_layer(
            traced, records, workloads.SWEEP, log
        )
        print(
            f"traced: {len(traced)} operations, {traced_failed} failed, "
            f"results digest {results_digest(traced_results)} "
            f"({'equal to' if same else 'DIFFERENT from'} untraced on "
            f"{len(common)} inputs), tiling check failed on "
            f"{tiling_failures} operations"
        )
        correct = correct and traced_failed == 0 and same and tiling_failures == 0
    else:
        metrics = end_to_end(records, window_s, setup_s, rss_mb)
        latencies = sorted(r.latency_s for r in records if r.error is None)
        if len(latencies) >= 100:
            p90 = statistics.quantiles(latencies, n=10)[-1]
            print(f"latency p90 {p90 * 1e3:.2f} ms over {len(latencies)} samples")
        print(
            f"setup: imports {import_s:.3f}s + median of "
            f"{', '.join(f'{s:.3f}' for s in setups)}s"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process that shared memory starts, so
    the benchmark leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
