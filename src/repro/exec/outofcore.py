"""The morsel executor: one driver for every radix join, and the
out-of-core entry point.

:func:`join_morsels` runs a source's morsels and merges their
partials; every functional radix join ends in it. The plain in-memory
join (:func:`repro.join.batched.batched_radix_join`) calls it with no
worker count, so each morsel is the bare kernel. :func:`out_of_core_join`
is what the batched join dispatches to when an ambient
:class:`~repro.exec.context.ExecutionConfig` says this join should
leave the in-memory path. It builds one of two sources:

- **in-memory** (state fits the budget, ``force`` set): one
  partitioning pass lays both relations out partition-major —
  straight into shared-memory segments when a pool is configured;
- **spilled** (state exceeds the budget): both relations are
  radix-spilled to disk shards first (one file per column), and each
  morsel reads only its partition range of every shard back off disk —
  the join's working set is one morsel's rows, not the relations;

and runs its morsels either **inline** or across the **morsel pool**
(``workers > 0``), with work stealing and crash recovery. Inline and
pooled morsels run one body (:func:`repro.exec.morsel.run_morsel`), so
their ``exec.morsel*`` metrics and ``morsel[i]`` spans agree.

Every execution deposits a summary note via
:func:`repro.exec.context.record_note` (mode, morsels, steals,
occupancy, bytes spilled) that the triggering operator attaches to
``run.notes["out_of_core"]``, and — when tracing is enabled — a
``morsel-pool`` virtual track with per-worker busy intervals and a
pool-occupancy counter series next to the simulator's timelines.
"""

from __future__ import annotations

import contextlib
import time
from collections import namedtuple
from typing import List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.data.relation import Relation
from repro.exec import context
from repro.exec.morsel import (
    ChunkedSource,
    Morsel,
    execute_morsel,
    merge_partials,
    partition_state,
    plan_source,
    run_morsel,
)
from repro.exec.pool import PoolResult, get_pool
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


def join_morsels(
    source, morsels: List[Morsel], workers: Optional[int] = None
) -> Tuple[JoinMatch, dict]:
    """Run ``source``'s ``morsels`` and merge them: ``(match, detail)``.

    ``workers=None`` is the plain in-memory join: bare kernel calls, no
    ``exec.*`` metric, span or note detail. Otherwise each morsel is
    :func:`~repro.exec.morsel.run_morsel`, inline for ``workers=0`` or a
    single morsel, else on the shared pool of ``workers`` (a morsel a
    dead worker left is re-run inline). ``detail`` is the note's
    morsel and pool fields.
    """
    if workers is None:
        partials = (execute_morsel(source, morsel) for morsel in morsels)
        return merge_partials(partials), {}
    if workers == 0 or len(morsels) <= 1:
        partials = [run_morsel(source, morsel) for morsel in morsels]
        return merge_partials(partials), {"morsels": len(morsels), "steals": 0}
    result = get_pool(workers).run(
        source, morsels, recover=lambda morsel: run_morsel(source, morsel)
    )
    if telemetry.recording() == telemetry.SPANS and result.intervals:
        _add_pool_track(result)
    return merge_partials(result.partials), {
        "morsels": len(morsels),
        "steals": result.steals,
        "occupancy": round(result.occupancy, 4),
        "recovered": result.recovered,
        "worker_deaths": result.deaths,
        "pool_wall_seconds": round(result.wall_seconds, 4),
    }


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


def out_of_core_join(
    build: Relation,
    probe: Relation,
    bits1: int,
    config: Optional[context.ExecutionConfig] = None,
    histogram: Optional[np.ndarray] = None,
) -> JoinMatch:
    """Morsel-driven join, byte-identical to the in-memory batched path.

    ``bits1`` is the radix window (the morsel partition fanout); the
    second pass is not run, since each morsel's grouped kernel already
    works on one ``bits1`` partition's bucket space and the match
    summary is order-independent (tests cross-check this).
    ``histogram`` receives the pass-1 partition sizes, as in
    :func:`~repro.join.batched.batched_radix_join`.

    Only what a morsel kernel reads is spilled: the build side's key
    and first payload column (the hash table value), the probe side's
    key. Shard sizing follows that projection's width. The in-memory
    relations stay referenced by the caller; what out-of-core buys is
    that the *join's working set* — the partition-major copies the
    in-memory path would scatter — never materializes.
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
    ), contextlib.ExitStack() as stack:
        spilled = {}
        pool_workers = workers
        if spill:
            # The manager's cleanup closes the files the source opens.
            manager = stack.enter_context(
                SpillManager(cfg.budget_bytes, cfg.spill_dir)
            )
            source = ChunkedSource(
                manager.spill(_projection(build, 1), bits1),
                manager.spill(_projection(probe, 0), bits1),
            )
            spilled = {
                "spilled_bytes": manager.tempdir_bytes(),
                "shards": source.build.shards + source.probe.shards,
            }
        else:
            if not (len(build) and len(probe)):
                # A side with no rows joins inline: no segment, no pool.
                pool_workers = 0
            with telemetry.span("oc:partition", bits1=bits1):
                source = partition_state(
                    build, probe, bits1, shared=pool_workers > 0
                )
            stack.callback(source.close)
        morsels = plan_source(source, cfg.morsel_rows, histogram)
        match, detail = join_morsels(source, morsels, pool_workers)

    note = {
        "mode": mode,
        "workers": workers,
        "budget_bytes": cfg.budget_bytes,
        "state_bytes": state_bytes,
        "seconds": round(time.time() - started, 4),
        "bits1": bits1,
    }
    note.update(detail, **spilled)
    context.record_note(note)
    return match
