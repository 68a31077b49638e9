"""Memoization of join runs across experiments.

The figure experiments overlap heavily: fig13, fig14, fig15, fig16,
fig19, and fig21 all re-simulate the same (workload, system, operator)
triples from slightly different angles. Workload generation is
seed-deterministic — a :class:`~repro.data.generator.WorkloadConfig`
fully determines its arrays — and every operator's :meth:`run` is a
pure function of the operator's configuration and the workload. So a
structural key over those three inputs lets later figures reuse the
earlier figures' :class:`~repro.join.base.JoinRun` (functional match,
simulated seconds, counters, and phase profile) instead of recomputing.

The cache is **off by default**. Tests monkeypatch operator internals
and inject failures; a silently-on cache would launder stale results
through those seams. The benchmark CLI and the perf smoke harness turn
it on explicitly (``python -m repro.bench`` does unless ``--no-cache``).

Keys are tuples of hashable records: the operator itself (a frozen
dataclass of its configuration, :class:`~repro.join.base.JoinOperator`),
the workload's config, cardinalities and lineage, and the ambient fault
plan and execution config. Equal records hash and compare equal, so the
dictionary lookup is the whole of the key's cost.

Operators that differ only in what they simulate (SM count, cache
size, first-pass partitioner, CPU/GPU split) still join the same
arrays, so beneath the run memo a **match memo** keeps each distinct
functional join's result: :func:`memoized_match` is consulted by
:func:`~repro.join.batched.batched_radix_join` around its in-memory
join. It is live exactly while the run cache is enabled and emptied by
:func:`clear`. Its key is the identity of the arrays the kernels read
(build keys, build values, probe keys) plus ``bits1``: that function
sees arrays, not configs, and hashing their contents would cost a pass
over them. An entry holds weak references to its arrays and hits only
while each still resolves to the very object passed, so a reused
``id`` never aliases; rescaled relations (``with_nominal_rows``) and
slices that share arrays do hit. Arrays are treated as immutable while
the cache is on. The memo is bypassed under
:func:`~repro.kernels.scatter.force_reference`, and the out-of-core
path and :func:`~repro.join.batched.reference_radix_join` never reach
it. Its tallies are the counters ``run_cache.match_hits`` and
``run_cache.match_misses``.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import weakref
from typing import Any, Callable, Dict, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from repro import faults, telemetry
from repro.kernels.scatter import reference_mode_active

#: Operators whose run() results may be cached (keyed structurally).
_cache: Dict[Tuple, Any] = {}
#: Advisor split plans (:class:`repro.advisor.SplitPlan`), keyed per
#: (workload cardinalities, system, fault plan) by the advisor.
_plan_cache: Dict[Any, Any] = {}
_enabled = False


class _Match(NamedTuple):
    """One match-memo entry: the joined arrays (weakly), the summary and
    the memo's own pass-1 histogram."""

    arrays: Tuple[weakref.ref, ...]
    match: Any
    histogram: np.ndarray


#: Functional join summaries keyed by (array ids..., bits1).
_matches: Dict[Tuple[int, ...], _Match] = {}


def __getattr__(name: str):
    # Hit/miss tallies live in the telemetry metrics registry (counters
    # ``run_cache.hits`` / ``run_cache.misses``) so they merge across
    # bench workers like every other metric; ``stats`` stays available
    # as a read-only snapshot for callers and tests.
    if name == "stats":
        return {
            "hits": telemetry.registry.counter("run_cache.hits"),
            "misses": telemetry.registry.counter("run_cache.misses"),
            "plan_hits": telemetry.registry.counter("run_cache.plan_hits"),
            "plan_misses": telemetry.registry.counter(
                "run_cache.plan_misses"
            ),
        }
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_key(operator, workload) -> Tuple:
    """The cache key for one ``operator.run(workload)`` invocation.

    The workload key covers the generator config (which determines the
    arrays) plus the nominal/materialized cardinalities, so workloads
    rescaled through ``with_nominal_rows`` never alias their originals,
    and the lineage of a workload the plan layer derived (filtered or
    joined inputs can share the config and even the row counts).
    The ambient fault plan is part of the key: a run simulated under
    injected faults must never be served for (or poisoned by) a clean
    run of the same triple. The ambient out-of-core execution config
    (:mod:`repro.exec.context`) is part of it for the same reason: an
    out-of-core run carries different notes (spill bytes, morsel pool
    stats) and exercises a different code path than the in-memory run
    of the same triple, so chunk/budget configuration must never alias.
    """
    from repro.exec import context as exec_context

    return (
        operator,
        workload.config,
        workload.build.nominal_rows,
        workload.probe.nominal_rows,
        len(workload.build),
        len(workload.probe),
        workload.lineage,
        faults.active(),
        exec_context.active(),
    )


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def enabled() -> bool:
    return _enabled


@contextlib.contextmanager
def suspended() -> Iterator[None]:
    """Turn the cache off inside the block (for timing repeated runs)."""
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


def clear() -> None:
    _cache.clear()
    _plan_cache.clear()
    _matches.clear()
    telemetry.registry.reset(prefix="run_cache.")


def size() -> int:
    return len(_cache)


def cached_plan(key: Any) -> Any:
    """A memoized advisor split plan for ``key`` (None on miss/disabled).

    Split plans are immutable frozen dataclasses, so unlike run
    memoization no defensive copy is needed on a hit.
    """
    if not _enabled:
        return None
    hit = _plan_cache.get(key)
    if hit is not None:
        telemetry.registry.count("run_cache.plan_hits")
    else:
        telemetry.registry.count("run_cache.plan_misses")
    return hit


def store_plan(key: Any, plan: Any) -> None:
    """Memoize an advisor split plan (no-op while the cache is off)."""
    if _enabled:
        _plan_cache[key] = plan


def memoized_match(
    arrays: Tuple[np.ndarray, ...],
    bits1: int,
    histogram: Optional[np.ndarray],
    join: Callable[[np.ndarray], Any],
) -> Any:
    """``join(histogram)``'s summary, memoized on ``arrays`` and ``bits1``.

    ``arrays`` are the inputs ``join`` reads and ``join`` fills a
    ``1 << bits1`` pass-1 histogram. A miss runs ``join`` into the
    memo's own histogram; a hit or a miss then copies it into the
    caller's ``histogram``, so a caller editing its array never reaches
    the memo. While the cache is off, or under ``force_reference()``,
    this is ``join(histogram)``. There is no lock, as for the run memo:
    callers racing on one key can only each run the join and store a
    whole entry.
    """
    if not _enabled or reference_mode_active():
        return join(histogram)
    key = (*map(id, arrays), bits1)
    entry = _matches.get(key)
    if entry is not None and all(
        ref() is array for ref, array in zip(entry.arrays, arrays)
    ):
        telemetry.registry.count("run_cache.match_hits")
        telemetry.annotate(match_memo="hit")
    else:
        telemetry.registry.count("run_cache.match_misses")
        telemetry.annotate(match_memo="miss")
        own = np.empty(1 << bits1, dtype=np.int64)
        entry = _Match(
            tuple(weakref.ref(array) for array in arrays), join(own), own
        )
        _matches[key] = entry
    if histogram is not None:
        histogram[...] = entry.histogram
    return entry.match


def cached_run(run_method: Callable) -> Callable:
    """Wrap a ``JoinOperator`` subclass's ``run`` with memoization.

    Installed by ``JoinOperator.__init_subclass__`` on every concrete
    operator. A cache hit returns a shallow copy with a fresh ``notes``
    dict so callers can annotate their run without poisoning the cache;
    the workload is rebound to the caller's (configs are equal, but
    identity can matter to downstream comparisons).
    """

    @functools.wraps(run_method)
    def wrapper(self, workload):
        if not _enabled:
            return run_method(self, workload)
        key = run_key(self, workload)
        hit = _cache.get(key)
        if hit is not None:
            telemetry.registry.count("run_cache.hits")
            telemetry.annotate(run_cache="hit")
            run = copy.copy(hit)
            run.notes = dict(hit.notes)
            run.workload = workload
            return run
        telemetry.registry.count("run_cache.misses")
        telemetry.annotate(run_cache="miss")
        run = run_method(self, workload)
        # Cache a snapshot, not the returned object: callers annotate
        # run.notes freely and must not retro-edit the cached result.
        snapshot = copy.copy(run)
        snapshot.notes = dict(run.notes)
        _cache[key] = snapshot
        return run

    return wrapper
