"""Checks that the traced run measures every layer it claims to.

Run from the repository root (takes about a minute and a half)::

    python3 -m pytest -q perfbench/test_perfbench.py

For each workload it runs the benchmark once untraced and once traced
with the same seed, and checks that

- each per-layer metric is non-zero on the workload that exercises its
  layer, and the ``exec.*`` metrics are zero on big-join, which never
  reaches the out-of-core executor;
- the traced run's results digest equals the untraced run's, so the
  wrappers change no result;
- each run reports exactly the metrics ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 7
SECONDS = "4"

EXPERIMENTS = (
    "fig01 fig04 fig06 fig07 fig13 fig14 fig15 fig16 fig17 fig18 fig19 "
    "fig20 fig21 fig22 fig23 fig24 tab01 ablations ext_coprocess "
    "ext_interconnect ext_scaling ext_robustness ext_sort"
).split()

#: Metrics that must be non-zero, per workload. Steals and recovered
#: morsels are left out: a run without stragglers or worker crashes
#: rightly has none.
EXERCISED = {
    "service-mix": [
        "service.submit_ms", "service.queue_wait_ms", "plan.self_ms",
        "data.generate_ms", "join.run_self_ms", "join.graph_ms",
        "join.functional_ms", "kernels.scatter_ms", "kernels.probe_ms",
        "sim.run_ms", "sim.tasks", "sim.us_per_task",
    ],
    "big-join": [
        "data.generate_ms", "join.functional_ms", "kernels.scatter_ms",
        "kernels.probe_ms", "kernels.scatter.order.counting",
    ],
    "out-of-core": [
        "service.queue_wait_ms", "exec.ooc_self_ms", "exec.spill_ms",
        "exec.spill_bytes_per_input_byte", "exec.pool_job_ms",
        "exec.pool_lock_wait_ms", "exec.pool_occupancy",
    ],
    "paper-figures": [
        "join.run_self_ms", "join.graph_ms", "sim.run_ms",
        "run_cache.hit_ratio", "run_cache.key_ms", "advisor.split_ms",
        "bench.self_ms",
    ] + [f"bench.{name}_ms" for name in EXPERIMENTS],
}


def _declared(kind: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _run(workload: str, trace: int):
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    label = "traced" if trace else "untraced"
    digest = re.search(
        rf"^{label}: .*results digest (\w+)", completed.stdout, re.M
    ).group(1)
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _declared("per_layer" if trace else "end_to_end")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, digest


@pytest.mark.parametrize("workload", list(EXERCISED))
def test_layers_exercised_and_results_unchanged(workload):
    _, untraced_digest = _run(workload, trace=0)
    layers, traced_digest = _run(workload, trace=1)

    assert traced_digest == untraced_digest
    zero = [name for name in EXERCISED[workload] if not layers[name] > 0]
    assert not zero, f"{workload}: zero per-layer metrics {zero}"
    if workload == "big-join":
        busy = {k: v for k, v in layers.items() if k.startswith("exec.") and v}
        assert not busy, f"big-join reached the executor: {busy}"
