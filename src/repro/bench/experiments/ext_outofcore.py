"""Extension: out-of-core morsel-driven execution.

Two claims in one table, both against the in-memory batched join on the
paper's largest workload (2048 M nominal tuples per relation):

- **Identity under a budget.** With the host-memory budget set to a
  fraction of the relations' combined tuple bytes (default 0.5), the
  join radix-spills both relations to disk shards and reads each
  morsel's partition range back off them — and the match summary
  (matches, key checksum, payload checksum) is byte-identical to the
  in-memory reference.
- **Pool speedup.** The same morsel stream scheduled across the
  persistent worker pool (shared-memory transport, work stealing) is
  at least as fast as the single-process batched join — the morsel
  path's smaller working set per kernel call pays for the pool's IPC.

Both claims are exported as gauges the perf smoke snapshots into
``BENCH_kernels.json`` and ``tools/bench_diff.py --check-outofcore
BENCH_kernels.json`` gates on: ``exec.outofcore.checksum_ok`` (1.0 =
every out-of-core mode matched the reference) and ``exec.pool.speedup``
(reference seconds / pool seconds, medians over :data:`TIMED_REPEATS`
runs each; the gate's fixed floor is ``MIN_POOL_SPEEDUP = 1.0``).
"""

from __future__ import annotations

import time

from repro import telemetry
from repro.bench.harness import ExperimentTable
from repro.bench.workloads import DEFAULT_SCALE_DIVISOR, default_workload
from repro.exec import ExecutionConfig, out_of_core_join
from repro.exec import context as exec_context
from repro.join import run_cache
from repro.join.batched import batched_radix_join
from repro.units import MIB

DEFAULT_SIZE = 2048
DEFAULT_BUDGET_FRACTION = 0.5
DEFAULT_WORKERS = 4
#: First-pass radix window for all modes (matches the fig13 functional
#: layer's clamp).
BITS1 = 10
#: Timed repeats per mode inside one experiment run; the table carries
#: the median (single samples on a loaded box showed phantom swings).
TIMED_REPEATS = 3

#: Declared peak host memory for ``repro.bench --jobs`` admission
#: control: the workload arrays plus one partition-major copy in
#: shared memory plus the spill working set.
MEMORY_BUDGET_BYTES = 512 * MIB


def _median(samples):
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _timed(fn, repeats: int):
    """(median seconds, last result, last out-of-core note or None)."""
    times = []
    result = None
    note = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
        notes = exec_context.consume_notes()
        note = notes[-1] if notes else note
    return _median(times), result, note


def run(
    size_m: float = DEFAULT_SIZE,
    budget_fraction: float = DEFAULT_BUDGET_FRACTION,
    workers: int = DEFAULT_WORKERS,
    scale_divisor: float = DEFAULT_SCALE_DIVISOR,
    repeats: int = TIMED_REPEATS,
) -> ExperimentTable:
    """Out-of-core identity + pool speedup vs the in-memory join."""
    workload = default_workload(size_m, size_m, scale_divisor=scale_divisor)
    build, probe = workload.build, workload.probe
    state_bytes = build.materialized_bytes + probe.materialized_bytes
    budget = max(1, int(state_bytes * budget_fraction))

    pool_column = f"morsel pool x{workers}"
    columns = ["in-memory", "spill", "morsel serial", pool_column]
    table = ExperimentTable(
        experiment="ext_outofcore",
        title=f"Extension: out-of-core morsel execution "
        f"({size_m:g}M tuples/relation, budget "
        f"{budget_fraction:g}x state)",
        columns=columns,
        unit="seconds (median)",
    )

    # Shield every mode from an ambient bench-level config: the
    # reference must stay on the plain in-memory path, and each
    # out-of-core mode runs exactly the config named in its column.
    # The run cache is suspended so its match memo does not serve the
    # timed in-memory repeats.
    with exec_context.configured(None), run_cache.suspended():
        ref_seconds, reference, _ = _timed(
            lambda: batched_radix_join(build, probe, BITS1, 8), repeats
        )
        modes = {
            "spill": ExecutionConfig(budget_bytes=budget),
            "morsel serial": ExecutionConfig(force=True),
            pool_column: ExecutionConfig(force=True, workers=workers),
        }
        if workers > 0:
            # Untimed warm-up so worker spawn cost is not attributed
            # to the first timed pool run (the pool is persistent).
            out_of_core_join(
                build, probe, BITS1, config=modes[pool_column]
            )
            exec_context.consume_notes()

        seconds = {"in-memory": ref_seconds}
        identical = {"in-memory": 1.0}
        notes = {}
        for column, config in modes.items():
            seconds[column], match, notes[column] = _timed(
                lambda config=config: out_of_core_join(
                    build, probe, BITS1, config=config
                ),
                repeats,
            )
            identical[column] = float(
                match.matches == reference.matches
                and match.key_checksum == reference.key_checksum
                and match.payload_checksum == reference.payload_checksum
            )

    table.add_row("wall seconds", seconds)
    table.add_row(
        "speedup vs in-memory",
        {c: ref_seconds / s for c, s in seconds.items() if s > 0},
    )
    table.add_row("identical to in-memory", identical)

    checksum_ok = min(identical.values())
    speedup = ref_seconds / seconds[pool_column]
    telemetry.gauge("exec.outofcore.checksum_ok", checksum_ok)
    telemetry.gauge("exec.pool.speedup", speedup)
    telemetry.update_process_gauges()

    spill_note = notes.get("spill") or {}
    pool_note = notes.get(pool_column) or {}
    table.add_note(
        f"budget {budget} B vs state {state_bytes} B; spill wrote "
        f"{spill_note.get('spilled_bytes', 0)} B across "
        f"{spill_note.get('shards', 0)} shards, {spill_note.get('morsels', 0)} "
        f"morsels streamed off disk"
    )
    table.add_note(
        f"pool: {pool_note.get('morsels', 0)} morsels, "
        f"{pool_note.get('steals', 0)} stolen, occupancy "
        f"{pool_note.get('occupancy', 0):.2f}; medians over "
        f"{repeats} repeats"
    )
    table.add_note(
        "identical = matches + key/payload checksums equal the "
        "in-memory batched join (1 = byte-identical summary)"
    )
    return table
