"""The out-of-core join executor: spill, morsel, pool — one entry point.

:func:`out_of_core_join` is what :func:`repro.join.batched.
batched_radix_join` dispatches to when an ambient
:class:`~repro.exec.context.ExecutionConfig` says this join should
leave the in-memory path. It picks one of three executions:

- **in-memory morsels** (state fits the budget, ``force`` set): one
  partitioning pass lays both relations out partition-major —
  straight into shared-memory segments when a pool is configured —
  and morsels stream through the grouped kernels;
- **spill morsels** (state exceeds the budget): both relations are
  radix-spilled to disk shards first (one file per column), and each
  morsel reads only its partition range of every shard back off disk —
  the join's working set is one morsel's rows, not the relations;
- each of the above either **serially** or across the **morsel pool**
  (``workers > 0``), with work stealing and crash recovery.

Every execution deposits a summary note via
:func:`repro.exec.context.record_note` (mode, morsels, steals,
occupancy, bytes spilled) that the triggering operator attaches to
``run.notes["out_of_core"]``, and — when tracing is enabled — a
``morsel-pool`` virtual track with per-worker busy intervals and a
pool-occupancy counter series next to the simulator's timelines.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import List, Optional

import numpy as np

from repro import telemetry
from repro.data.relation import Relation
from repro.exec import context
from repro.exec.morsel import (
    Morsel,
    chunked_source,
    execute_morsel,
    fill_histogram,
    merge_partials,
    partition_state,
    plan_morsels,
    run_serial,
)
from repro.exec.pool import PoolResult, ShmBlock, get_pool
from repro.exec.spill import SpillManager
from repro.join.base import JoinMatch

_TrackEntry = namedtuple("_TrackEntry", "name phase start end")


def _occupancy_series(result: PoolResult, workers: int):
    """Busy-worker step function from the pool's morsel intervals."""
    events = []
    for _worker, _morsel, start, end, _stolen in result.intervals:
        events.append((start, 1))
        events.append((end, -1))
    events.sort()
    series = [(0.0, 0.0)]
    busy = 0
    for t, delta in events:
        busy += delta
        series.append((t, busy / workers))
    series.append((result.wall_seconds, 0.0))
    return series


def _add_pool_track(result: PoolResult) -> None:
    entries = [
        _TrackEntry(
            name=f"morsel[{morsel}]" + (" (stolen)" if stolen else ""),
            phase=f"worker[{worker}]",
            start=start,
            end=end,
        )
        for worker, morsel, start, end, stolen in result.intervals
    ]
    telemetry.tracing.add_track(
        "morsel-pool",
        entries,
        makespan=result.wall_seconds,
        counters=[
            ("util:morsel_pool", _occupancy_series(result, result.workers))
        ],
    )


def _run_pool(
    job: dict,
    source,
    morsels: List[Morsel],
    workers: int,
) -> PoolResult:
    """Ship one job to the shared pool; recovery re-runs inline."""
    pool = get_pool(workers)
    result = pool.run(
        job, morsels, recover=lambda m: execute_morsel(source, m)
    )
    if telemetry.recording() == telemetry.SPANS and result.intervals:
        _add_pool_track(result)
    return result


def out_of_core_join(
    build: Relation,
    probe: Relation,
    bits1: int,
    bits2: int = 0,
    config: Optional[context.ExecutionConfig] = None,
    histogram: Optional[np.ndarray] = None,
) -> JoinMatch:
    """Morsel-driven join, byte-identical to the in-memory batched path.

    ``bits1`` is the radix window (the morsel partition fanout).
    ``bits2`` is accepted for signature compatibility with the batched
    path but unused: the second-pass subdivision exists to bound GPU
    scratchpad tables, while here each morsel's grouped kernel already
    works on one ``bits1`` partition's bucket space — and the match
    summary is order-independent, so skipping the composite reorder
    changes no output byte (tests cross-check this). ``histogram``
    receives the pass-1 partition sizes, as in
    :func:`~repro.exec.morsel.serial_join`.
    """
    cfg = config if config is not None else context.active()
    if cfg is None:
        cfg = context.ExecutionConfig(force=True)
    state_bytes = build.materialized_bytes + probe.materialized_bytes
    spill = (
        cfg.budget_bytes is not None and state_bytes > cfg.budget_bytes
    )
    mode = "spill" if spill else "memory"
    workers = cfg.workers
    started = time.time()
    telemetry.registry.count("exec.oc.joins")

    with telemetry.span(
        "out_of_core_join",
        mode=mode,
        workers=workers,
        build=len(build),
        probe=len(probe),
        bits1=bits1,
    ):
        if spill:
            match, detail = _spilled_join(build, probe, bits1, cfg, histogram)
        else:
            match, detail = _memory_join(build, probe, bits1, cfg, histogram)

    note = {
        "mode": mode,
        "workers": workers,
        "budget_bytes": cfg.budget_bytes,
        "state_bytes": state_bytes,
        "seconds": round(time.time() - started, 4),
        "bits1": bits1,
    }
    note.update(detail)
    context.record_note(note)
    return match


def _finish(result, morsels: List[Morsel]) -> tuple:
    """Merge a serial partial list or a PoolResult into (match, detail)."""
    if isinstance(result, PoolResult):
        return merge_partials(result.partials), {
            "morsels": len(morsels),
            "steals": result.steals,
            "occupancy": round(result.occupancy, 4),
            "recovered": result.recovered,
            "worker_deaths": result.deaths,
            "pool_wall_seconds": round(result.wall_seconds, 4),
        }
    return merge_partials(result), {"morsels": len(morsels), "steals": 0}


def _memory_join(
    build: Relation,
    probe: Relation,
    bits1: int,
    cfg: context.ExecutionConfig,
    histogram: Optional[np.ndarray],
) -> tuple:
    """In-memory morsel execution (serial or pooled)."""
    use_pool = cfg.workers > 0 and len(build) and len(probe)
    blocks: List[ShmBlock] = []

    def allocate(name, rows, dtype):
        if not use_pool:
            return np.empty(rows, dtype=dtype)
        block = ShmBlock(rows, dtype)
        blocks.append((name, block))
        return block.array

    try:
        with telemetry.span("oc:partition", bits1=bits1):
            source = partition_state(build, probe, bits1, allocate=allocate)
        build_sizes = np.diff(source.build_offsets)
        probe_sizes = np.diff(source.probe_offsets)
        fill_histogram(histogram, build_sizes, probe_sizes)
        morsels = plan_morsels(build_sizes, probe_sizes, cfg.morsel_rows)
        if use_pool and len(morsels) > 1:
            job = {
                "mode": "shm",
                "blocks": {
                    name: block.descriptor() for name, block in blocks
                },
                "build_offsets": source.build_offsets,
                "probe_offsets": source.probe_offsets,
            }
            result = _run_pool(job, source, morsels, cfg.workers)
        else:
            result = run_serial(source, morsels)
        return _finish(result, morsels)
    finally:
        for _name, block in blocks:
            block.release()


def _projection(relation: Relation, payloads: int) -> Relation:
    """``relation``'s key and its first ``payloads`` payload columns
    (with none, deferred payloads are not drawn)."""
    names = relation.column_names()[1:1 + payloads]
    return Relation(
        relation.keys,
        {name: relation.payloads[name] for name in names},
        nominal_rows=relation.nominal_rows,
        name=relation.name,
    )


def _spilled_join(
    build: Relation,
    probe: Relation,
    bits1: int,
    cfg: context.ExecutionConfig,
    histogram: Optional[np.ndarray],
) -> tuple:
    """Spill both relations to radix shards, stream morsels off disk.

    Only what a morsel kernel reads is spilled: the build side's key
    and first payload column (the hash table value), the probe side's
    key. Shard sizing follows that projection's width.
    """
    with SpillManager(cfg.budget_bytes, cfg.spill_dir) as manager:
        chunked_build = manager.spill(_projection(build, 1), bits1)
        chunked_probe = manager.spill(_projection(probe, 0), bits1)
        spilled_bytes = manager.tempdir_bytes()
        # The in-memory relations stay referenced by the caller; what
        # out-of-core buys here is that the *join's working set* — the
        # partition-major copies the in-memory path would scatter — never
        # materializes. Production ingestion would build the shards
        # directly and skip the Relation entirely.
        # The manager's cleanup closes the files this source opens.
        source = chunked_source(chunked_build, chunked_probe)
        build_sizes = chunked_build.partition_sizes()
        probe_sizes = chunked_probe.partition_sizes()
        fill_histogram(histogram, build_sizes, probe_sizes)
        morsels = plan_morsels(build_sizes, probe_sizes, cfg.morsel_rows)
        if cfg.workers > 0 and len(morsels) > 1:
            job = {
                "mode": "chunked",
                "build_dir": str(chunked_build.directory),
                "probe_dir": str(chunked_probe.directory),
            }
            result = _run_pool(job, source, morsels, cfg.workers)
        else:
            result = run_serial(source, morsels)
        match, detail = _finish(result, morsels)
        detail["spilled_bytes"] = spilled_bytes
        detail["shards"] = chunked_build.shards + chunked_probe.shards
        return match, detail
