"""The service load mix: templates, zipf arrivals, and the audit loop.

Shared by ``tools/load_gen.py`` (the CLI that writes the
``BENCH_service.json`` baseline and the ``--check-service`` reports)
and the ``ext_service`` benchmark experiment. The mix is a set of plan
templates spanning sizes, algorithms, and plan shapes; template
popularity follows a zipf distribution over their rank, priorities are
drawn uniformly, and everything is seeded — the same seed always
produces the same submission stream, the same admission decisions, and
the same per-query results.

:func:`run_load` returns a report dict with two sections: a
``deterministic`` one (results digest, rejected tally, event counts —
must be byte-identical across same-seed runs on any machine) and a
``latency`` one (percentiles, qps — wall clock, machine-dependent).
"""

from __future__ import annotations

import hashlib
import sys
import time
from typing import Optional

import numpy as np

from repro.errors import ReproError
from repro.exec.context import ExecutionConfig
from repro.service.plan import execute_plan
from repro.service.server import JoinService
from repro.telemetry import events, tracing
from repro.telemetry.histogram import Histogram

#: Template the ``out_of_core_workers`` knob routes through the morsel
#: pool (big enough that forcing the out-of-core path is meaningful).
POOL_TEMPLATE = "big-state"

#: Functional arrays stay tiny (min-materialized) at this divisor, so a
#: single query costs milliseconds and thousands fit in a smoke run.
SCALE_DIVISOR = 65536


def _spec(name, root, **workload):
    base = {
        "build_m_tuples": 64,
        "probe_m_tuples": 64,
        "scale_divisor": SCALE_DIVISOR,
        "seed": 1,
    }
    base.update(workload)
    return {"name": name, "workload": base, "root": root}


def _join(algorithm="triton", **extra):
    node = {
        "op": "join",
        "algorithm": algorithm,
        "build": {"op": "scan", "relation": "build"},
        "probe": {"op": "scan", "relation": "probe"},
    }
    node.update(extra)
    return node


def query_templates():
    """The template mix, most popular first (zipf rank order)."""
    return [
        _spec("triton-small", _join()),
        _spec("triton-skewed", _join(), probe_m_tuples=512, seed=7),
        _spec(
            "analytics-mini",
            {
                "op": "groupby",
                "function": "sum",
                "input": _join("bloom-triton", aggregate=True),
            },
            probe_m_tuples=256,
            probe_hit_rate=0.5,
            seed=11,
        ),
        _spec("cpu-radix", _join("cpu-radix"), seed=13),
        _spec(
            "coprocess",
            _join("coprocess", cpu_fraction=0.3),
            build_m_tuples=128,
            probe_m_tuples=128,
            seed=17,
        ),
        _spec(
            "filtered-join",
            {
                "op": "join",
                "algorithm": "triton",
                "build": {"op": "scan", "relation": "build"},
                "probe": {
                    "op": "filter",
                    "predicate": "modulo",
                    "divisor": 4,
                    "remainder": 1,
                    "input": {"op": "scan", "relation": "probe"},
                },
            },
            probe_m_tuples=128,
            seed=19,
        ),
        _spec(
            "partitioned-join",
            {
                "op": "join",
                "algorithm": "triton",
                "build": {"op": "scan", "relation": "build"},
                "probe": {
                    "op": "partition",
                    "bits": 4,
                    "input": {"op": "scan", "relation": "probe"},
                },
            },
            seed=23,
        ),
        _spec(
            "count-by-key",
            {"op": "groupby", "function": "count", "input": _join()},
            probe_m_tuples=256,
            seed=29,
        ),
        _spec(
            "big-state",
            _join(),
            build_m_tuples=1024,
            probe_m_tuples=1024,
            seed=31,
        ),
    ]


def zipf_weights(n: int, theta: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, theta)
    return weights / weights.sum()


def run_load(
    queries: int,
    workers: int,
    seed: int,
    theta: float = 1.2,
    budget_bytes: Optional[int] = None,
    verify: bool = True,
    recording: Optional[int] = tracing.EVENTS,
    slo=None,
    out_of_core_workers: int = 0,
    log=sys.stderr,
) -> dict:
    """Run the workload, audit it, and return the report dict.

    ``recording`` (a :mod:`repro.telemetry.tracing` level) owns the
    record buffer for the run: it sets the level and resets the buffer
    (don't combine with an ongoing recording), and the records stay
    buffered afterwards so the caller can export them. At ``SPANS``
    every query gets a deterministic trace id and the report gains a
    ``tracing`` section. ``None`` leaves the caller's setting and
    buffer alone and reports no event counts. ``slo`` (an
    :class:`~repro.telemetry.slo.SLOSpec`, spec dict, or monitor)
    evaluates the run against declared objectives and adds an ``slo``
    section to the report. ``out_of_core_workers > 0``
    routes every big-state query through the morsel worker pool
    (results are byte-identical; the knob exists so traced runs show
    pool-worker spans).
    """
    templates = query_templates()
    rng = np.random.default_rng(seed)
    weights = zipf_weights(len(templates), theta)
    choices = rng.choice(len(templates), size=queries, p=weights)
    priorities = rng.integers(0, 4, size=queries)

    if recording is not None:
        tracing.set_recording(recording)
        tracing.reset()
    pool_config = None
    if out_of_core_workers > 0:
        pool_config = ExecutionConfig(
            workers=out_of_core_workers, force=True, morsel_rows=4096
        )

    started = time.perf_counter()
    service = JoinService(
        workers=workers, memory_budget_bytes=budget_bytes, slo=slo
    )
    handles = []
    try:
        for template_index, priority in zip(choices, priorities):
            template = templates[template_index]
            exec_config = (
                pool_config if template["name"] == POOL_TEMPLATE else None
            )
            handles.append(
                (
                    int(template_index),
                    service.submit(
                        template,
                        priority=int(priority),
                        exec_config=exec_config,
                    ),
                )
            )
        for _, handle in handles:
            handle.wait()
    finally:
        service.shutdown(wait=True)
    wall = time.perf_counter() - started

    # Serial references: one direct plan execution per template, outside
    # the service (no scheduler involved) — the ground truth every
    # concurrent result must equal.
    references = {}
    if verify:
        for index, template in enumerate(templates):
            references[index] = execute_plan(template).checksum

    latency = Histogram()
    checksums = []
    incorrect = 0
    rejected = 0
    failed = 0
    for template_index, handle in handles:
        if handle.status == "rejected":
            rejected += 1
            checksums.append(f"{handle.id}:rejected")
            continue
        try:
            result = handle.result()
        except ReproError as error:
            failed += 1
            checksums.append(f"{handle.id}:{handle.status}")
            print(
                f"query {handle.id} ({templates[template_index]['name']}) "
                f"{handle.status}: {error}",
                file=log,
            )
            continue
        latency.observe(handle.wall_seconds)
        checksums.append(f"{handle.id}:{result.checksum}")
        if verify and result.checksum != references[template_index]:
            incorrect += 1
            print(
                f"query {handle.id} ({templates[template_index]['name']}): "
                f"checksum {result.checksum} != reference "
                f"{references[template_index]}",
                file=log,
            )

    digest = hashlib.sha256("|".join(checksums).encode()).hexdigest()[:16]
    event_records = tracing.events() if recording else []
    report = {
        "kind": "service-load",
        "queries": queries,
        "workers": workers,
        "seed": seed,
        "theta": theta,
        "budget_bytes": budget_bytes,
        # Deterministic section: must be byte-identical across same-seed
        # runs (and across machines) — the --check-service currency.
        "deterministic": {
            "results_digest": digest,
            "rejected": rejected,
            "incorrect": incorrect,
            "failed": failed,
            "event_counts": events.counts_by_type(event_records),
            "template_counts": {
                templates[i]["name"]: int((choices == i).sum())
                for i in range(len(templates))
            },
        },
        # Wall-clock section: machine-dependent, gated only loosely.
        "latency": {
            "percentiles": latency.percentiles(),
            "mean_seconds": (
                latency.total / latency.count if latency.count else 0.0
            ),
            "completed": latency.count,
            "wall_seconds": wall,
            "qps": (queries / wall) if wall > 0 else 0.0,
        },
    }
    slo_report = service.slo_report()
    if slo_report is not None:
        report["slo"] = slo_report
    if recording == tracing.SPANS:
        span_records = tracing.records()
        report["tracing"] = {
            "traces": len(tracing.by_trace(span_records)),
            "spans": len(span_records),
            "problems": tracing.validate_trace_tree(span_records),
        }
    return report
