"""Ambient out-of-core execution configuration.

The config is a field of the query context (:mod:`repro.context`),
like the fault plan: ``with exec_context.configured(cfg): ...`` puts an
:class:`ExecutionConfig` on it for everything the block runs, without
changing operator signatures; a join-service query carries its own
config, invisible to every other query. :func:`repro.join.batched.
batched_radix_join` consults :func:`active` and transparently routes the
functional join through :func:`repro.exec.outofcore.out_of_core_join`
when the configured host-memory budget is exceeded (or ``force`` is
set), and the run cache folds :func:`active` into its keys so an
out-of-core run never aliases an in-memory run of the same triple.

The query context also carries a small mailbox of per-join execution
notes (:func:`record_note` / :func:`consume_notes`), opened fresh by
every scope that sets a config: the out-of-core executor deposits a
summary (mode, morsels, steals, bytes spilled) for each join it ran,
and the operator that triggered it picks the summaries up right after
its functional phase to annotate ``run.notes["out_of_core"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import context as _context
from repro.errors import ConfigurationError

#: Default morsel granularity: combined build+probe rows per morsel.
#: Large enough that the grouped kernels stay vectorized, small enough
#: that a handful of morsels per worker leaves room for stealing.
DEFAULT_MORSEL_ROWS = 65536

#: Partitions smaller than this make morsel bookkeeping dominate.
MIN_MORSEL_ROWS = 256


@dataclass(frozen=True)
class ExecutionConfig:
    """How the functional layer should execute oversized joins.

    Attributes:
        budget_bytes: host-memory budget for a join's materialized
            relations. When ``build + probe`` tuple bytes exceed it, the
            relations are radix-spilled to disk shards and streamed back
            morsel by morsel. ``None`` = unlimited (never spill).
        morsel_rows: target combined rows (build + probe) per morsel.
        workers: morsel-pool worker processes. ``0`` = run morsels
            serially in-process (still out-of-core when over budget).
        spill_dir: parent directory for spill shards (``None`` = the
            system temp directory). The spill manager always creates and
            removes its own subdirectory underneath.
        force: route joins through the out-of-core executor even when
            they fit the budget — the cross-check and benchmark knob
            that lets small-scale runs exercise the exact production
            code path.
    """

    budget_bytes: Optional[int] = None
    morsel_rows: int = DEFAULT_MORSEL_ROWS
    workers: int = 0
    spill_dir: Optional[str] = None
    force: bool = False

    def __post_init__(self) -> None:
        if self.budget_bytes is not None and self.budget_bytes <= 0:
            raise ConfigurationError("budget_bytes must be positive")
        if self.morsel_rows < MIN_MORSEL_ROWS:
            raise ConfigurationError(
                f"morsel_rows must be >= {MIN_MORSEL_ROWS}"
            )
        if self.workers < 0:
            raise ConfigurationError("workers cannot be negative")


# -- ambient config -------------------------------------------------------------


def active() -> Optional[ExecutionConfig]:
    """The ambient execution config (the query context's), or ``None``."""
    return _context.current().exec_config


def configured(config: Optional[ExecutionConfig]):
    """Run the ``with`` block under ``config``, with a fresh notes
    mailbox (``None`` shields the block from an ambient config)."""
    return _context.scoped(exec_config=config, notes=[])


def should_go_out_of_core(build, probe, config=None) -> bool:
    """Whether this join's functional execution leaves the in-memory path.

    True when a config is active and either forces the out-of-core path
    or sets a budget the two relations' materialized tuple bytes exceed.
    """
    config = config if config is not None else active()
    if config is None:
        return False
    if config.force:
        return True
    if config.budget_bytes is None:
        return False
    state = build.materialized_bytes + probe.materialized_bytes
    return state > config.budget_bytes


# -- per-join notes -------------------------------------------------------------


def record_note(note: dict) -> None:
    """Deposit one out-of-core run summary for the triggering operator
    (dropped when no scope opened a mailbox)."""
    notes = _context.current().notes
    if notes is not None:
        notes.append(note)


def consume_notes() -> List[dict]:
    """Drain the deposited summaries (empty when nothing ran out-of-core).

    Operators call this right after their functional phase; a join that
    fanned out into several out-of-core executions (the co-processing
    operator joins each side separately) receives one note per
    execution, in execution order. The mailbox belongs to the scope
    that opened it, so concurrent service queries never see each
    other's notes.
    """
    notes = _context.current().notes
    if not notes:
        return []
    drained = list(notes)
    notes.clear()
    return drained
