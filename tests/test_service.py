"""The concurrent join service: admission, scheduling, isolation.

Concurrency is constructed, never raced: the ``stage_hook`` seam holds
queries at known checkpoints, so every overlap these tests assert on is
deterministic. The last class is the regression for the conflation bug
class the service was built to prevent — two overlapping queries whose
metrics snapshots and event streams must not bleed into each other.
"""

from __future__ import annotations

import gc
import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import weakref

import pytest

from repro import faults, telemetry
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    PlanError,
    QueryCancelled,
    QueryTimeout,
)
from repro.service import JoinService, estimate_query_bytes, execute_plan
from repro.exec.context import ExecutionConfig
from repro.exec.pool import shutdown_pool
from repro.service.loadgen import POOL_TEMPLATE, query_templates, run_load
from repro.telemetry import events, tracing

SCALE = 65536


def spec(name="q", algorithm="triton", **workload):
    base = {
        "build_m_tuples": 64,
        "probe_m_tuples": 64,
        "scale_divisor": SCALE,
        "seed": 3,
    }
    base.update(workload)
    return {
        "name": name,
        "workload": base,
        "root": {
            "op": "join",
            "algorithm": algorithm,
            "build": {"op": "scan", "relation": "build"},
            "probe": {"op": "scan", "relation": "probe"},
        },
    }


@pytest.fixture(autouse=True)
def _clean_event_state():
    """Each test owns the flight recorder; leave it off and empty."""
    telemetry.set_recording(telemetry.OFF)
    tracing.reset()
    yield
    telemetry.set_recording(telemetry.OFF)
    tracing.reset()


class Blocker:
    """stage_hook that parks every query at its first checkpoint.

    ``arrived`` signals that some query reached the gate (i.e. a worker
    is now provably occupied), which is how tests serialize "submit the
    rest only once the head query holds the worker". ``release()`` lets
    the parked query — and every later one — run to completion.
    """

    def __init__(self):
        self.gate = threading.Event()
        self.arrived = threading.Event()
        self._seen = set()

    def __call__(self, handle, stage):
        if handle.id not in self._seen:
            self._seen.add(handle.id)
            self.arrived.set()
            assert self.gate.wait(30), f"{handle.id} never released"

    def release(self):
        self.gate.set()


class TestSerialPath:
    def test_single_query_byte_identical_to_direct_path(self, system):
        plan_spec = spec()
        direct = execute_plan(plan_spec, system=system)
        with JoinService(system=system, workers=1) as service:
            served = service.run(plan_spec)
        assert served.checksum == direct.checksum
        assert served.match == direct.match
        assert served.seconds == pytest.approx(direct.seconds, rel=1e-12)

    def test_dropped_handle_frees_its_relations_without_gc(self, system):
        """No reference cycle runs through a finished query: with the
        collector off, dropping the handle frees its generated
        relations by reference counting alone."""
        gc.disable()
        try:
            with JoinService(system=system, workers=1) as service:
                handle = service.submit(spec())
                run = handle.result(timeout=30).runs[0]
                build = weakref.ref(run.workload.build)
                del run
            assert build() is not None
            del handle
            assert build() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "outcome, expected",
        [("cancelled", QueryCancelled), ("raises", RuntimeError)],
    )
    def test_failed_handle_frees_its_relations_without_gc(
        self, system, monkeypatch, outcome, expected
    ):
        """A query that stops at a checkpoint stores its error on the
        handle. The error's traceback must not keep the query's
        relations (or the handle itself) alive until a full collection."""
        from repro.data import generator

        generated = []
        real = generator.generate_pk_fk

        def spy(config):
            build, probe = real(config)
            generated.append(weakref.ref(build))
            return build, probe

        def stop(handle, stage):
            if outcome == "cancelled":
                handle.cancel()
            else:
                raise RuntimeError(f"hook failed at {stage}")

        monkeypatch.setattr(generator, "generate_pk_fk", spy)
        gc.disable()
        try:
            with JoinService(system=system, workers=1, stage_hook=stop) as service:
                handle = service.submit(spec())
                assert handle.wait(30)
            assert isinstance(handle.error, expected)
            held = weakref.ref(handle)
            assert generated and generated[0]() is None
            del handle
            assert held() is None
        finally:
            gc.enable()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="glibc allocator"
    )
    def test_freed_arrays_are_reused_without_page_faults(self):
        """Once a service exists, arrays freed together are reused by
        the next allocations instead of going back to the kernel and
        being faulted in again. Runs in a fresh process, so the
        allocator starts from glibc's defaults."""
        code = textwrap.dedent(
            """
            import resource
            import numpy as np
            from repro.service import JoinService

            JoinService(workers=1).shutdown()

            def churn():
                arrays = [np.ones(1 << 19) for _ in range(8)]
                del arrays

            churn()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                churn()
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """
        )
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        # Five rounds touch 160 MiB (40,960 pages); glibc's adaptive
        # trim faulted ~20,000 of them back in.
        assert int(out.stdout) < 1000

    def test_invalid_spec_raises_at_submit(self, system):
        with JoinService(system=system, workers=1) as service:
            with pytest.raises(PlanError):
                service.submit({"workload": {}, "root": {"op": "nope"}})
            assert service.stats()["submitted"] == 0

    def test_submit_after_shutdown_refused(self, system):
        service = JoinService(system=system, workers=1)
        service.shutdown(wait=True)
        with pytest.raises(ConfigurationError):
            service.submit(spec())

    def test_handle_result_timeout_leaves_query_alive(self, system):
        blocker = Blocker()
        with JoinService(
            system=system, workers=1, stage_hook=blocker
        ) as service:
            handle = service.submit(spec())
            assert blocker.arrived.wait(30)
            with pytest.raises(TimeoutError):
                handle.result(timeout=0.01)
            assert not handle.done()
            blocker.release()
            assert handle.result(timeout=30).match is not None
            assert handle.status == "done"


class TestAdmission:
    def test_oversized_query_rejected_deterministically(self, system):
        small = spec()
        big = spec(name="big", build_m_tuples=4096, probe_m_tuples=4096)
        budget = estimate_query_bytes(small) + 1
        telemetry.set_recording(telemetry.EVENTS)
        with JoinService(
            system=system, workers=1, memory_budget_bytes=budget
        ) as service:
            rejected = service.submit(big)
            accepted = service.submit(small)
            assert rejected.done()
            assert rejected.status == "rejected"
            with pytest.raises(AdmissionError, match="exceeds budget"):
                rejected.result()
            assert accepted.result(timeout=30).match is not None
            stats = service.stats()
        assert stats["rejected"] == 1
        types = events.counts_by_type(tracing.events())
        assert types["query.rejected"] == 1
        assert types["query.admitted"] == 1

    def test_queue_limit_rejects_excess(self, system):
        blocker = Blocker()
        with JoinService(
            system=system, workers=1, queue_limit=1, stage_hook=blocker
        ) as service:
            head = service.submit(spec(name="head"))
            assert blocker.arrived.wait(30)
            # The worker holds `head`, so these stack up in the queue:
            # the first fills it, the second must be refused.
            queued = service.submit(spec(name="queued"))
            overflow = service.submit(spec(name="overflow"))
            assert overflow.status == "rejected"
            with pytest.raises(AdmissionError, match="queue full"):
                overflow.result()
            blocker.release()
            head.result(timeout=30)
            queued.result(timeout=30)

    def test_headroom_serializes_but_never_rejects(self, system):
        one = spec(name="one", seed=5)
        two = spec(name="two", seed=9)
        # Budget fits one query but not two: the second admitted query
        # must wait for headroom, not be rejected.
        budget = int(estimate_query_bytes(one) * 1.5)
        telemetry.set_recording(telemetry.EVENTS)
        with JoinService(
            system=system, workers=2, memory_budget_bytes=budget
        ) as service:
            handles = [service.submit(one), service.submit(two)]
            for handle in handles:
                assert handle.result(timeout=30).match is not None
        lifecycle = [
            event["type"]
            for event in events.sorted_events(tracing.events())
            if event["type"] in ("query.started", "query.finished")
        ]
        # Strictly serialized: start, finish, start, finish.
        assert lifecycle == [
            "query.started", "query.finished",
            "query.started", "query.finished",
        ]
        counts = events.counts_by_type(tracing.events())
        assert counts.get("query.rejected", 0) == 0


class TestPriorityAndCancellation:
    def test_priority_order_fifo_within_ties(self, system):
        blocker = Blocker()
        telemetry.set_recording(telemetry.EVENTS)
        with JoinService(
            system=system, workers=1, stage_hook=blocker
        ) as service:
            head = service.submit(spec(name="head"))
            assert blocker.arrived.wait(30)
            low = service.submit(spec(name="low"), priority=0)
            high_a = service.submit(spec(name="high-a"), priority=5)
            high_b = service.submit(spec(name="high-b"), priority=5)
            blocker.release()
            for handle in (head, low, high_a, high_b):
                handle.result(timeout=30)
        started = [
            event["query"]
            for event in events.sorted_events(tracing.events())
            if event["type"] == "query.started"
        ]
        # `head` ran first (it held the only worker); then priority
        # order, FIFO within the tied pair, the low-priority query last.
        assert started == [head.id, high_a.id, high_b.id, low.id]

    def test_cancel_queued_query_never_starts(self, system):
        blocker = Blocker()
        telemetry.set_recording(telemetry.EVENTS)
        with JoinService(
            system=system, workers=1, stage_hook=blocker
        ) as service:
            head = service.submit(spec(name="head"))
            assert blocker.arrived.wait(30)
            doomed = service.submit(spec(name="doomed"))
            assert doomed.cancel()
            blocker.release()
            head.result(timeout=30)
            with pytest.raises(QueryCancelled):
                doomed.result(timeout=30)
        assert doomed.status == "cancelled"
        started = [
            event["query"]
            for event in tracing.events()
            if event["type"] == "query.started"
        ]
        assert doomed.id not in started
        finished = {
            event["query"]: event["status"]
            for event in tracing.events()
            if event["type"] == "query.finished"
        }
        assert finished[doomed.id] == "cancelled"

    def test_cancel_running_query_stops_at_checkpoint(self, system):
        def cancel_self(handle, stage):
            handle.cancel()

        with JoinService(
            system=system, workers=1, stage_hook=cancel_self
        ) as service:
            handle = service.submit(spec())
            with pytest.raises(QueryCancelled, match="cancelled at"):
                handle.result(timeout=30)
        assert handle.status == "cancelled"

    def test_zero_timeout_deterministically_times_out(self, system):
        with JoinService(system=system, workers=1) as service:
            handle = service.submit(spec(), timeout=0.0)
            with pytest.raises(QueryTimeout, match="exceeded 0.0s"):
                handle.result(timeout=30)
        assert handle.status == "timeout"

    def test_cancel_after_done_is_a_noop(self, system):
        with JoinService(system=system, workers=1) as service:
            handle = service.submit(spec())
            handle.result(timeout=30)
            assert not handle.cancel()
            assert handle.status == "done"


class TestIsolationAndObservability:
    def test_events_tagged_with_query_id(self, system):
        telemetry.set_recording(telemetry.EVENTS)
        with JoinService(system=system, workers=1) as service:
            handle = service.submit(spec())
            handle.result(timeout=30)
        grouped = events.by_query(tracing.events())
        assert set(grouped) == {handle.id}
        types = events.counts_by_type(grouped[handle.id])
        assert types["query.submitted"] == 1
        assert types["query.started"] == 1
        assert types["query.finished"] == 1
        assert types["run.start"] >= 1
        assert events.validate_events(tracing.events()) == []

    def test_explain_query_carries_explanation(self, system):
        with JoinService(system=system, workers=2) as service:
            result = service.run(spec(), explain=True)
        explains = [
            stage for stage in result.stages
            if stage.get("stage") == "explain"
        ]
        assert len(explains) == 1
        assert explains[0]["text"].strip()

    def test_per_query_fault_plan_does_not_leak(self, system):
        plan = faults.FaultPlan(
            bandwidth=(
                faults.BandwidthFault(resource="nvlink_*", factor=0.25),
            )
        )
        with JoinService(system=system, workers=1) as service:
            clean = service.run(spec())
            faulted = service.run(spec(), fault_plan=plan)
            clean_again = service.run(spec())
        assert faults.active() is None
        # Degraded interconnect slows the simulated run but cannot
        # change the functional result.
        assert faulted.checksum == clean.checksum
        assert faulted.seconds > clean.seconds
        assert clean_again.seconds == pytest.approx(clean.seconds)

    def test_pool_morsel_timings_reach_the_query_metrics(
        self, system, tmp_path
    ):
        """A query's morsel telemetry does not depend on where its
        morsels ran. In process or on the pool (whose workers' metrics
        and spans the query thread merges), in memory or spilled, the
        query records the same ``exec.morsel*`` counters, the same
        number of ``exec.morsel_seconds`` observations and, traced, the
        same number of ``morsel[i]`` spans."""
        template = next(
            t for t in query_templates() if t["name"] == POOL_TEMPLATE
        )
        seen = {}
        telemetry.set_recording(telemetry.SPANS)
        try:
            for budget in (None, 64 << 10):
                for oc_workers in (0, 2):
                    config = ExecutionConfig(
                        budget_bytes=budget,
                        workers=oc_workers,
                        force=True,
                        morsel_rows=4096,
                        spill_dir=str(tmp_path),
                    )
                    tracing.reset()  # each service reuses trace ids
                    with JoinService(system=system, workers=1) as service:
                        handle = service.submit(template, exec_config=config)
                        result = handle.result(timeout=60)
                    note = result.runs[0].notes["out_of_core"]
                    assert note["mode"] == ("memory", "spill")[bool(budget)]
                    counters = {
                        name: value
                        for name, value in handle.metrics["counters"].items()
                        if name.startswith("exec.morsel")
                    }
                    timing = handle.metrics["timings"]["exec.morsel_seconds"]
                    spans = [
                        record
                        for record in tracing.by_trace()[handle.trace_id]
                        if record["name"].startswith("morsel[")
                    ]
                    seen[budget, oc_workers] = (
                        counters, timing["count"], len(spans)
                    )
        finally:
            shutdown_pool()
        for budget in (None, 64 << 10):
            inline, pooled = seen[budget, 0], seen[budget, 2]
            assert inline == pooled
            counters, observations, spans = inline
            assert set(counters) == {"exec.morsels", "exec.morsel_rows"}
            assert counters["exec.morsels"] == observations == spans > 1

    def test_mini_load_is_deterministic_across_runs(self, system):
        first = run_load(queries=24, workers=3, seed=42)
        second = run_load(queries=24, workers=3, seed=42)
        assert first["deterministic"] == second["deterministic"]
        assert first["deterministic"]["incorrect"] == 0
        assert first["deterministic"]["failed"] == 0


class TestOverlapRegression:
    """Two concurrently-running queries must not conflate snapshots.

    The serial ``snapshot()``/``delta_since()`` pattern attributed
    whatever ran in between to the querying thread; the service's scoped
    registries and ambient event tags exist so that cannot happen. This
    pins it: both queries are provably in flight at the same time (a
    barrier at their first checkpoints), run different plans, and each
    handle's metrics and events must describe only its own plan.
    """

    def test_overlapping_explain_queries_each_get_their_own(self, system):
        # Each explain query explains into its own sink, so two of them
        # run at once (the barrier releases only when both are in
        # flight) and neither sees the other's simulated runs.
        barrier = threading.Barrier(2, timeout=30)
        met = set()

        def rendezvous(handle, stage):
            if handle.id not in met:
                met.add(handle.id)
                barrier.wait()

        telemetry.set_recording(telemetry.SPANS)
        try:
            with JoinService(
                system=system, workers=2, stage_hook=rendezvous
            ) as service:
                plain = service.submit(
                    spec(name="plain", seed=5), explain=True
                )
                bloom = service.submit(
                    spec(name="bloom", algorithm="bloom-triton", seed=9),
                    explain=True,
                )
                results = {
                    handle.id: handle.result(timeout=30)
                    for handle in (plain, bloom)
                }
        finally:
            telemetry.set_recording(telemetry.OFF)
            telemetry.reset()

        assert met == {plain.id, bloom.id}
        labels = {}
        for query_id, result in results.items():
            explains = [
                stage for stage in result.stages
                if stage.get("stage") == "explain"
            ]
            assert len(explains) == 1
            labels[query_id] = explains[0]["text"].splitlines()[0]
        # Each explanation's label is its own query's span path.
        assert labels[plain.id] == (
            "explain: query / execute / Join(triton) / "
            "run:GPU Triton Join / simulate"
        )
        assert "/ Join(bloom-triton) /" in labels[bloom.id]

    def test_overlapping_queries_keep_metrics_and_events_apart(self, system):
        barrier = threading.Barrier(2, timeout=30)
        met = set()

        def rendezvous(handle, stage):
            if handle.id not in met:
                met.add(handle.id)
                barrier.wait()

        telemetry.set_recording(telemetry.EVENTS)
        with JoinService(
            system=system, workers=2, stage_hook=rendezvous
        ) as service:
            # One plain triton join (1 traced run) vs one bloom-filtered
            # join (2 traced runs: the wrapper and its inner join).
            plain = service.submit(spec(name="plain", seed=5))
            bloom = service.submit(
                spec(name="bloom", algorithm="bloom-triton", seed=9)
            )
            plain_result = plain.result(timeout=30)
            bloom_result = bloom.result(timeout=30)

        # Both queries really overlapped (the barrier released both).
        assert met == {plain.id, bloom.id}
        assert plain_result.checksum != bloom_result.checksum

        # Per-handle metrics snapshots: each counts only its own runs.
        plain_runs = plain.metrics["timings"]["join.run_seconds"]["count"]
        bloom_runs = bloom.metrics["timings"]["join.run_seconds"]["count"]
        assert plain_runs == 1
        assert bloom_runs == 2

        # Event streams: every operator event carries its query's tag,
        # and each query's stream describes only its own plan.
        grouped = events.by_query(tracing.events())
        assert set(grouped) == {plain.id, bloom.id}
        plain_ops = [
            event["operator"]
            for event in grouped[plain.id]
            if event["type"] == "run.start"
        ]
        bloom_ops = [
            event["operator"]
            for event in grouped[bloom.id]
            if event["type"] == "run.start"
        ]
        assert len(plain_ops) == 1
        assert len(bloom_ops) == 2
        for query_id in (plain.id, bloom.id):
            types = events.counts_by_type(grouped[query_id])
            assert types["query.started"] == 1
            assert types["query.finished"] == 1
