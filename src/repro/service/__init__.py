"""Concurrent join service: a Volcano-style query layer plus a scheduler.

Two halves, mirroring a miniature database server built on the
reproduction's operators:

- :mod:`repro.service.plan` — pull-based Volcano plan trees (Scan →
  Filter → Partition → Join → GroupBy) of immutable nodes, compiled
  from a dict/JSON plan spec. A plan composes the existing operators
  (:class:`~repro.join.triton.TritonJoin`, :class:`~repro.join.filters.
  BloomFilteredTritonJoin`, :class:`~repro.join.coprocess.
  CoProcessingJoin`, :class:`~repro.join.ladder.DegradationLadder`,
  :class:`~repro.aggregate.group_by.TritonAggregation`) without new
  execution code; the serial service path is byte-identical to calling
  the operators directly.
- :mod:`repro.service.server` — :class:`JoinService`, a thread-pool
  scheduler with deterministic budget-based admission control, priority
  queues, cooperative per-query timeouts and cancellation, and
  per-query fault-plan / out-of-core-config / telemetry threading.

``python -m repro.service`` is the CLI; ``tools/load_gen.py`` drives
thousands of concurrent queries through it and checks every result
against a serial reference. See ``docs/service.md``.
"""

from repro.service.plan import (
    QueryPlan,
    QueryResult,
    analytics_spec,
    compile_plan,
    estimate_query_bytes,
    execute_plan,
    validate_spec,
)
from repro.service.server import JoinService, QueryHandle

__all__ = [
    "JoinService",
    "QueryHandle",
    "QueryPlan",
    "QueryResult",
    "analytics_spec",
    "compile_plan",
    "estimate_query_bytes",
    "execute_plan",
    "validate_spec",
]
