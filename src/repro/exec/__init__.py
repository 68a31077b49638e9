"""Morsel-driven out-of-core execution (the ``repro.exec`` subsystem).

Four layers, bottom up:

- :mod:`repro.exec.spill` — budget-driven spilling of relations into
  :class:`~repro.data.chunked.ChunkedRelation` column files, with
  tempdir byte accounting;
- :mod:`repro.exec.morsel` — morsel planning over contiguous radix
  partition ranges and the per-morsel grouped-kernel execution whose
  partial summaries merge byte-identically to the in-memory join;
- :mod:`repro.exec.pool` — a persistent work-stealing worker pool that
  receives columns zero-copy through ``multiprocessing.shared_memory``
  (or shard paths for spilled joins) and recovers crashed workers'
  morsels exactly;
- :mod:`repro.exec.outofcore` — the orchestrator
  :func:`~repro.exec.outofcore.out_of_core_join` that the batched join
  dispatches to when the ambient :class:`ExecutionConfig` says so.

Activate with ``exec_context.configured(ExecutionConfig(...))``, or
per service query with ``JoinService.submit(spec, exec_config=...)``, or
with ``python -m repro.bench ... --memory-budget 512M --oc-workers 4``.
The config is a field of the query context (:mod:`repro.context`), so
concurrent queries each run their own and pool workers adopt the
dispatching query's through :func:`repro.telemetry.settings`; see
the "Out-of-core execution" sections of docs/architecture.md and
docs/performance.md.
"""

from repro.exec.context import (
    DEFAULT_MORSEL_ROWS,
    ExecutionConfig,
    active,
    configured,
    consume_notes,
    record_note,
    should_go_out_of_core,
)
from repro.exec.outofcore import out_of_core_join
from repro.exec.pool import MorselPool, get_pool, shutdown_pool
from repro.exec.spill import SpillManager

__all__ = [
    "DEFAULT_MORSEL_ROWS",
    "ExecutionConfig",
    "MorselPool",
    "SpillManager",
    "active",
    "configured",
    "consume_notes",
    "get_pool",
    "out_of_core_join",
    "record_note",
    "shutdown_pool",
    "should_go_out_of_core",
]
