"""Persistent morsel-pool workers and their work-stealing scheduler.

The pool keeps ``N`` worker processes alive across joins (fork start
method where available, so workers inherit the loaded modules) and
feeds them **jobs**: a morsel source's ``descriptor()`` plus a morsel
list. The pool does not know what a descriptor holds — the source
(:mod:`repro.exec.morsel`) builds it and
:func:`~repro.exec.morsel.open_source` reopens it inside the worker:
an in-memory source ships its shared-memory segment names, so every
worker slices its morsels as zero-copy views, and a spilled source
ships its two shard directories, whose column files every worker opens
once per job.

Scheduling is morsel-driven work stealing. A control block (one more
shared-memory segment of ``int64``) holds, under a single shared lock::

    ctrl[0:N]              per-worker next-morsel cursor
    ctrl[N:2N]             per-worker end-of-range (exclusive)
    ctrl[2N]               steal tally
    ctrl[2N+1 : 2N+1+M]    per-morsel done flags

Workers claim from the *front* of their own contiguous range and steal
from the *back* of the most-loaded victim's — the classic morsel-driven
scheme, which keeps each worker's claims contiguous (sequential shared
memory / shard reads) while bounding imbalance to one morsel.

The done flags are the crash story: a worker that dies mid-morsel never
set its flag, so after collecting results the parent re-executes every
morsel with an unset flag inline and respawns the dead worker. Partials
are order-independent mergeable sums, so recovery is exact — see
``docs/robustness.md``. Each job carries the dispatching thread's
:func:`repro.telemetry.settings` (span parent, recording level, the
portable query context), and each worker returns a
:func:`repro.telemetry.capture` envelope (metrics delta and records)
for the parent to absorb — the same hand-off as the parallel bench
runner.
"""

from __future__ import annotations

import atexit
import itertools
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.exec.morsel import (
    Morsel,
    Partial,
    ShmBlock,
    open_source,
    run_morsel,
)

#: Hard ceiling on one job's wall-clock before the parent gives up on
#: the pool (a worker wedged while holding the claim lock).
DEFAULT_JOB_TIMEOUT = 300.0

#: Poll interval while waiting on worker results.
_POLL_SECONDS = 0.2

#: Exit code of the deliberate crash-test hook (``die_on`` jobs).
CRASH_EXIT_CODE = 17


# -- worker side ----------------------------------------------------------------


def _claim(ctrl: np.ndarray, workers: int, worker_id: int, lock):
    """Next morsel index for ``worker_id`` (own range first, then steal).

    Returns ``(index, stolen, victim)`` — ``victim`` is ``-1`` for a
    claim from the worker's own range — or ``None`` when every range is
    drained.
    """
    with lock:
        cursor = int(ctrl[worker_id])
        if cursor < int(ctrl[workers + worker_id]):
            ctrl[worker_id] = cursor + 1
            return cursor, False, -1
        victim, remaining = -1, 0
        for v in range(workers):
            left = int(ctrl[workers + v]) - int(ctrl[v])
            if left > remaining:
                victim, remaining = v, left
        if victim < 0:
            return None
        ctrl[workers + victim] -= 1
        ctrl[2 * workers] += 1
        return int(ctrl[workers + victim]), True, victim


def _run_job(worker_id: int, job: dict, lock) -> dict:
    out: dict = {
        "job_id": job["job_id"],
        "worker": worker_id,
        "partials": [],
        "intervals": [],
        "busy": 0.0,
    }
    handles: list = []
    # The dispatching thread's telemetry settings ride the job: morsel
    # spans parent under the dispatching query's span in the merged
    # tree, and morsel events carry the dispatching query's tags.
    with telemetry.capture(job["telemetry"]) as envelope:
        try:
            workers = job["workers"]
            morsels = job["morsels"]
            control = ShmBlock(*job["control"])
            handles.append(control)
            ctrl = control.array
            source = open_source(job["source"])
            handles.append(source)
            die_on = job["die_on"] or {}
            sleep_on = job["sleep_on"] or {}
            epoch = time.perf_counter()
            while True:
                claim = _claim(ctrl, workers, worker_id, lock)
                if claim is None:
                    break
                index, stolen, victim = claim
                if die_on.get(worker_id) == index:
                    # Crash-test hook: die after claiming, before the
                    # done flag — exactly the mid-morsel failure the
                    # parent's recovery scan must cover.
                    os._exit(CRASH_EXIT_CODE)
                telemetry.emit_event(
                    "morsel.dispatched",
                    worker=worker_id,
                    morsel=index,
                    stolen=stolen,
                )
                if stolen:
                    telemetry.emit_event(
                        "morsel.stolen",
                        worker=worker_id,
                        morsel=index,
                        victim=victim,
                    )
                pause = sleep_on.get(worker_id)
                if pause is not None and pause[0] == index:
                    # Stall-test hook: hold the morsel (claimed, not
                    # done) long enough for the parent's watchdog to
                    # flag this worker as silent.
                    time.sleep(pause[1])
                started = time.perf_counter() - epoch
                partial = run_morsel(
                    source, morsels[index], worker=worker_id, stolen=stolen
                )
                ended = time.perf_counter() - epoch
                ctrl[2 * workers + 1 + index] = 1
                out["partials"].append((index, partial))
                out["intervals"].append((index, started, ended, stolen))
                out["busy"] += ended - started
        except BaseException as error:  # noqa: BLE001 - report, don't kill worker
            out["error"] = repr(error)
        finally:
            for handle in reversed(handles):
                try:
                    handle.close()
                except Exception:  # pragma: no cover - teardown best effort
                    pass
    if "error" in out:
        # The parent re-runs a failed job's morsels inline, so this
        # job's counters must not merge on top of the re-run's.
        envelope["metrics"] = None
    out["telemetry"] = envelope
    return out


def _worker_main(worker_id: int, jobs, results, lock) -> None:
    while True:
        job = jobs.get()
        if job is None:
            return
        results.put(_run_job(worker_id, job, lock))


# -- parent side ----------------------------------------------------------------

#: A worker is flagged as stalled when the shared control block has not
#: changed for this many seconds while that worker still owes a result.
DEFAULT_STALL_SECONDS = 30.0


class _StallWatchdog:
    """Flags pool workers that go silent past a threshold.

    The only progress signal the parent can see without new IPC is the
    shared control block itself: every claim moves a cursor, every
    completion sets a done flag. The watchdog fingerprints the block's
    bytes each poll; when the fingerprint has not changed for
    ``stall_after`` seconds, every still-pending *alive* worker is
    flagged once (``worker.stalled``). Any progress resets the flags, so
    a worker that merely ran a long morsel and then resumed gets flagged
    at most once per silent stretch. This unifies with done-flag crash
    recovery: a stall is the soft sibling of a death — the parent warns
    rather than re-executes, because the worker may still deliver.
    """

    def __init__(self, stall_after: float) -> None:
        self.stall_after = stall_after
        self._fingerprint: Optional[bytes] = None
        self._since: float = 0.0
        self._flagged: set = set()

    def observe(
        self, fingerprint: bytes, now: float, pending
    ) -> List[Tuple[int, float]]:
        """Returns newly-stalled ``(worker, silent_seconds)`` pairs."""
        if fingerprint != self._fingerprint:
            self._fingerprint = fingerprint
            self._since = now
            self._flagged.clear()
            return []
        silent = now - self._since
        if silent < self.stall_after:
            return []
        fresh = [
            (worker, silent)
            for worker in sorted(pending)
            if worker not in self._flagged
        ]
        self._flagged.update(worker for worker, _ in fresh)
        return fresh


@dataclass
class PoolResult:
    """One job's outcome: mergeable partials plus scheduling telemetry."""

    partials: List[Partial]
    steals: int = 0
    busy_seconds: float = 0.0
    wall_seconds: float = 0.0
    workers: int = 0
    recovered: int = 0
    deaths: int = 0
    stalls: int = 0
    #: (worker, morsel index, start, end, stolen) busy intervals,
    #: relative to each worker's job start.
    intervals: List[Tuple[int, int, float, float, bool]] = field(
        default_factory=list
    )

    @property
    def occupancy(self) -> float:
        """Fraction of worker-seconds spent inside morsels."""
        if self.workers <= 0 or self.wall_seconds <= 0:
            return 0.0
        return min(
            1.0, self.busy_seconds / (self.workers * self.wall_seconds)
        )


class MorselPool:
    """A persistent pool of morsel workers (one process each)."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError("pool needs at least 1 worker")
        self.workers = workers
        methods = get_all_start_methods()
        self._ctx = get_context("fork" if "fork" in methods else "spawn")
        self._lock = self._ctx.Lock()
        self._results = self._ctx.Queue()
        self._job_queues = [self._ctx.Queue() for _ in range(workers)]
        self._procs: List[Optional[object]] = [None] * workers
        self._job_ids = itertools.count(1)
        # One job at a time: concurrent service queries that both go
        # out-of-core must not interleave on the results queue (a
        # reader discards replies that are not its own job's, so two
        # concurrent run() calls would drop each other's results and
        # deadlock). Jobs from other threads queue up behind the lock.
        self._run_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    def _spawn(self, index: int) -> None:
        proc = self._ctx.Process(
            target=_worker_main,
            args=(index, self._job_queues[index], self._results, self._lock),
            name=f"morsel-worker-{index}",
            daemon=True,
        )
        proc.start()
        self._procs[index] = proc

    def ensure_started(self) -> None:
        """Spawn missing or dead workers."""
        for index, proc in enumerate(self._procs):
            if proc is None or not proc.is_alive():
                if proc is not None:
                    proc.join(timeout=1.0)
                    telemetry.emit_event("worker.respawn", worker=index)
                self._spawn(index)

    def shutdown(self) -> None:
        for index, proc in enumerate(self._procs):
            if proc is not None and proc.is_alive():
                try:
                    self._job_queues[index].put(None)
                except Exception:  # pragma: no cover - teardown best effort
                    pass
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover - wedged worker
                    proc.terminate()
        self._procs = [None] * self.workers

    # -- execution -------------------------------------------------------------

    def run(
        self,
        source,
        morsels: List[Morsel],
        recover: Callable[[Morsel], Partial],
        timeout: float = DEFAULT_JOB_TIMEOUT,
        stall_after: float = DEFAULT_STALL_SECONDS,
        die_on: Optional[Dict[int, int]] = None,
        sleep_on: Optional[Dict[int, Tuple[int, float]]] = None,
    ) -> PoolResult:
        """Execute ``source``'s ``morsels`` across the pool.

        Thread-safe: one job owns the pool at a time. The job ships the
        source's ``descriptor()``, the control block, the per-worker
        ranges and the telemetry settings. ``recover`` re-executes a
        morsel inline in the parent when its done flag never appeared
        (worker death). ``stall_after`` is the silent-seconds threshold
        past which a still-pending worker is flagged ``worker.stalled``.
        The test hooks ``die_on`` (``{worker: morsel}``: exit on claiming
        it) and ``sleep_on`` (``{worker: (morsel, seconds)}``: hold it)
        fault one worker deterministically.
        """
        if not morsels:
            return PoolResult(partials=[], workers=0)
        with self._run_lock:
            self.ensure_started()
            workers = self.workers
            count = len(morsels)
            control = ShmBlock(2 * workers + 1 + count, np.dtype(np.int64))
            ctrl = control.array
            ctrl[:] = 0
            # Contiguous equal-count ranges; stealing rebalances the rest.
            bounds = [round(i * count / workers) for i in range(workers + 1)]
            for w in range(workers):
                ctrl[w] = bounds[w]
                ctrl[workers + w] = bounds[w + 1]

            job = {
                "job_id": next(self._job_ids),
                "source": source.descriptor(),
                "workers": workers,
                "control": control.descriptor(),
                "morsels": morsels,
                # The telemetry settings ride in the job payload so every
                # pool entry point (out-of-core runner, direct tests)
                # inherits the dispatching thread's recording level and
                # ambient span without threading a parameter.
                "telemetry": telemetry.settings(),
                "die_on": die_on,
                "sleep_on": sleep_on,
            }

            telemetry.emit_event(
                "pool.job.start",
                job=job["job_id"],
                workers=workers,
                morsels=count,
            )
            started = time.time()
            result = PoolResult(partials=[], workers=workers)
            watchdog = _StallWatchdog(stall_after)
            try:
                for index in range(workers):
                    self._job_queues[index].put(job)
                pending = set(range(workers))
                indexed: Dict[int, Partial] = {}
                deadline = started + timeout
                while pending:
                    try:
                        reply = self._results.get(timeout=_POLL_SECONDS)
                    except queue.Empty:
                        now = time.time()
                        for index in list(pending):
                            proc = self._procs[index]
                            if proc is None or not proc.is_alive():
                                pending.discard(index)
                                result.deaths += 1
                                telemetry.emit_event(
                                    "worker.death", worker=index
                                )
                        for worker, silent in watchdog.observe(
                            ctrl.tobytes(), now, pending
                        ):
                            result.stalls += 1
                            telemetry.registry.count("exec.pool.worker_stalls")
                            telemetry.emit_event(
                                "worker.stalled",
                                worker=worker,
                                silent_seconds=round(silent, 3),
                            )
                        if now > deadline:
                            raise TimeoutError(
                                f"morsel pool job timed out after "
                                f"{timeout:g}s ({len(pending)} workers "
                                "pending)"
                            )
                        continue
                    if reply.get("job_id") != job["job_id"]:
                        continue  # stale result from an abandoned job
                    pending.discard(reply["worker"])
                    telemetry.absorb(reply["telemetry"])
                    if reply.get("error") is not None:
                        result.deaths += 1
                        telemetry.registry.count("exec.pool.worker_errors")
                        telemetry.emit_event(
                            "worker.death", worker=reply["worker"]
                        )
                        continue
                    for index, partial in reply["partials"]:
                        indexed[index] = partial
                    result.busy_seconds += reply["busy"]
                    result.intervals.extend(
                        (reply["worker"], i, s, e, stolen)
                        for i, s, e, stolen in reply["intervals"]
                    )

                # Crash recovery: any morsel whose partial never arrived —
                # its claimer died mid-morsel or errored before reporting —
                # is re-executed inline (partials merge order-independently,
                # so a re-run is exact, never a double count).
                for morsel in morsels:
                    if morsel.index not in indexed:
                        indexed[morsel.index] = recover(morsel)
                        result.recovered += 1
                        telemetry.emit_event(
                            "morsel.recovered", morsel=morsel.index
                        )
                result.partials = [indexed[m.index] for m in morsels]
                result.steals = int(ctrl[2 * workers])
            finally:
                result.wall_seconds = time.time() - started
                control.close()
                if result.deaths:
                    telemetry.registry.count(
                        "exec.pool.worker_deaths", result.deaths
                    )
                    self.ensure_started()
                telemetry.emit_event(
                    "pool.job.end",
                    job=job["job_id"],
                    seconds=result.wall_seconds,
                )
            telemetry.registry.count("exec.pool.jobs")
            telemetry.registry.count("exec.pool.morsels_stolen", result.steals)
            telemetry.registry.count(
                "exec.pool.morsels_recovered", result.recovered
            )
            telemetry.registry.gauge("exec.pool.occupancy", result.occupancy)
            return result


# -- shared pools ---------------------------------------------------------------

_pools: Dict[int, MorselPool] = {}
_pools_lock = threading.Lock()


def get_pool(workers: int) -> MorselPool:
    """The process-wide pool of ``workers`` workers.

    One pool per worker count: asking for another count never stops a
    pool that a job on another thread may be running on.
    """
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = _pools[workers] = MorselPool(workers)
        return pool


def shutdown_pool() -> None:
    """Stop every process-wide pool's workers (safe when none exists)."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_pool)
