"""Morsel-driven out-of-core execution (the ``repro.exec`` subsystem).

Four modules, bottom up:

- :mod:`repro.exec.spill` — budget-driven spilling of relations into
  :class:`~repro.data.chunked.ChunkedRelation` column files, with
  tempdir byte accounting;
- :mod:`repro.exec.morsel` — morsel planning over contiguous radix
  partition ranges; the two morsel sources (partition-major arrays in
  memory or shared memory, spilled shards), each owning its pool
  transport; and the one morsel body whose partial summaries merge
  byte-identically to the in-memory join;
- :mod:`repro.exec.pool` — a persistent work-stealing worker pool that
  ships a source's descriptor, never its columns by name, and recovers
  crashed workers' morsels exactly;
- :mod:`repro.exec.outofcore` — the one morsel driver
  (:func:`~repro.exec.outofcore.join_morsels`) every functional radix
  join ends in, and :func:`~repro.exec.outofcore.out_of_core_join`,
  which the batched join dispatches to when the ambient
  :class:`ExecutionConfig` says so.

Activate with ``exec_context.configured(ExecutionConfig(...))``, or
per service query with ``JoinService.submit(spec, exec_config=...)``, or
with ``python -m repro.bench ... --memory-budget 512M --oc-workers 4``.
The config is a field of the query context (:mod:`repro.context`), so
concurrent queries each run their own and pool workers adopt the
dispatching query's through :func:`repro.telemetry.settings`; see
the "Out-of-core execution" sections of docs/architecture.md and
docs/performance.md.
"""

from repro.exec.context import DEFAULT_MORSEL_ROWS, ExecutionConfig, configured
from repro.exec.outofcore import out_of_core_join
from repro.exec.pool import get_pool, shutdown_pool

__all__ = [
    "DEFAULT_MORSEL_ROWS",
    "ExecutionConfig",
    "configured",
    "get_pool",
    "out_of_core_join",
    "shutdown_pool",
]
