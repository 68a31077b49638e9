"""Out-of-core execution smoke: end-to-end identity + leak guards.

Runs a full operator (:class:`repro.join.triton.TritonJoin`) on the
same workload clean, then under an ambient
:class:`repro.exec.ExecutionConfig` whose budget is a small fraction of
the relations' tuple bytes, so the functional join transparently
spills to disk shards and streams morsels across the worker pool, and
— with ``--workers > 0`` — once more forced out-of-core in memory, so
the pool's workers attach to the shared-memory columns instead. It
asserts:

1. each out-of-core run's match summary (matches, key checksum, payload
   checksum) equals the clean run's, and ``run.notes["out_of_core"]``
   records a ``spill``-mode (then a ``memory``-mode) execution;
2. **no spill residue**: after the run, no ``repro-spill-*`` directory
   survives under the spill parent (the spill manager must remove its
   own tempdir even though the join streamed morsels off it);
3. **no worker residue**: after :func:`repro.exec.shutdown_pool`, no
   morsel-worker child processes remain alive;
4. **no file-descriptor residue**: where ``/proc`` exists, this
   process and every morsel worker hold as many descriptors after the
   out-of-core run as before it (the spill reader opens its column
   files itself, in whichever process runs a morsel, and must close
   them). The pool and the multiprocessing resource tracker are
   started before the first count, so their one-time pipes do not
   count as a leak;
5. **no shared-memory residue**: where ``/dev/shm`` exists, no
   ``psm_*`` segment created during the out-of-core runs survives them
   (the in-memory source owns its column segments and unlinks them,
   the pool its control block).

CI runs this as the out-of-core leg next to the perf-smoke gate::

    PYTHONPATH=src python tools/oc_smoke.py
    PYTHONPATH=src python tools/oc_smoke.py --workers 2 --budget-fraction 0.25
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import pathlib
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.data.generator import generate_workload  # noqa: E402
from repro.exec import ExecutionConfig, configured, shutdown_pool  # noqa: E402
from repro.exec.pool import get_pool  # noqa: E402
from repro.hw.specs import ac922  # noqa: E402
from repro.join.triton import TritonJoin  # noqa: E402


def spill_residue(parent: pathlib.Path) -> list:
    """Paths of surviving spill directories under ``parent``."""
    return sorted(str(path) for path in parent.glob("repro-spill-*"))


def morsel_workers() -> list:
    """Morsel-pool worker processes still alive, by name."""
    return sorted(
        (
            child
            for child in multiprocessing.active_children()
            if child.name.startswith("morsel-worker-")
        ),
        key=lambda child: child.name,
    )


def shm_segments() -> set:
    """Names of the live ``psm_*`` shared-memory segments (empty
    without ``/dev/shm``)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def check_run(run, clean, mode, workers, failures) -> None:
    """Append what is wrong with an out-of-core ``run`` to ``failures``."""
    note = run.notes.get("out_of_core")
    if not note:
        failures.append(
            f"{mode} run carries no out_of_core note — the join never "
            "left the in-memory path"
        )
        return
    if note.get("mode") != mode:
        failures.append(
            f"expected a {mode}-mode run, got {note.get('mode')!r}"
        )
    if note.get("workers") != workers:
        failures.append(
            f"{mode} note records {note.get('workers')!r} workers, "
            f"expected {workers}"
        )
    for field in ("matches", "key_checksum", "payload_checksum"):
        clean_value = getattr(clean.match, field)
        oc_value = getattr(run.match, field)
        if clean_value != oc_value:
            failures.append(
                f"{mode} run's {field} diverged: clean {clean_value} vs "
                f"out-of-core {oc_value}"
            )


def open_fds():
    """Descriptors held by this process and each morsel worker, by
    name, or ``None`` without ``/proc``."""
    processes = [("parent", "self")] + [
        (child.name, child.pid) for child in morsel_workers()
    ]
    try:
        return {
            name: len(os.listdir(f"/proc/{pid}/fd"))
            for name, pid in processes
        }
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="morsel-pool workers for the out-of-core run (default 2)",
    )
    parser.add_argument(
        "--budget-fraction",
        type=float,
        default=0.25,
        help="host-memory budget as a fraction of the relations' tuple "
        "bytes (default 0.25: well under the state, forcing a spill)",
    )
    parser.add_argument(
        "--build-m",
        type=float,
        default=0.05,
        help="build cardinality in M tuples (default 0.05)",
    )
    parser.add_argument(
        "--probe-m",
        type=float,
        default=0.1,
        help="probe cardinality in M tuples (default 0.1)",
    )
    args = parser.parse_args(argv)

    failures = []
    workload = generate_workload(
        args.build_m, args.probe_m, seed=7, scale_divisor=1
    )
    state_bytes = (
        workload.build.materialized_bytes + workload.probe.materialized_bytes
    )
    budget = max(1, int(state_bytes * args.budget_fraction))
    operator = TritonJoin(ac922())

    clean = operator.run(workload)
    if "out_of_core" in clean.notes:
        failures.append("clean run unexpectedly went out-of-core")

    if args.workers > 0:
        get_pool(args.workers).ensure_started()
    multiprocessing.resource_tracker.ensure_running()
    fds_before = open_fds()
    segments_before = shm_segments()
    with tempfile.TemporaryDirectory(prefix="oc-smoke-") as spill_parent:
        parent = pathlib.Path(spill_parent)
        config = ExecutionConfig(
            budget_bytes=budget,
            workers=args.workers,
            morsel_rows=4096,
            spill_dir=spill_parent,
        )
        with configured(config):
            budgeted = operator.run(workload)
        check_run(budgeted, clean, "spill", args.workers, failures)

        residue = spill_residue(parent)
        if residue:
            failures.append(f"spill directories leaked: {residue}")
    if args.workers > 0:
        config = ExecutionConfig(
            workers=args.workers, morsel_rows=4096, force=True
        )
        with configured(config):
            pooled = operator.run(workload)
        check_run(pooled, clean, "memory", args.workers, failures)
    segments = sorted(shm_segments() - segments_before)
    if segments:
        failures.append(f"shared-memory segments leaked: {segments}")
    fds_after = open_fds()
    if fds_after != fds_before:
        failures.append(
            f"file descriptors leaked: {fds_before} open before the "
            f"out-of-core run, {fds_after} after"
        )

    shutdown_pool()
    workers = [child.name for child in morsel_workers()]
    if workers:
        failures.append(f"morsel workers survived shutdown: {workers}")

    if failures:
        print(f"oc smoke FAILED ({len(failures)} problem(s)):")
        for failure in failures:
            print(f"  ! {failure}")
        return 1
    print(
        f"oc smoke OK: spill join under {budget} B budget "
        f"({state_bytes} B state, {args.workers} workers) matched the "
        f"clean run (matches={clean.match.matches}); no spill, worker, "
        "shared-memory or file-descriptor residue"
        + ("" if fds_before is not None else " (fd count unavailable)")
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
