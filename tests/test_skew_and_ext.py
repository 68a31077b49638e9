"""Tests for skew-aware chunking, large-value aggregation, and the
extension experiments."""

import numpy as np
import pytest

from repro.aggregate import AggregateFunction, reference_aggregate
from repro.aggregate.group_by import _accumulate
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.data.chunked import ChunkedRelation
from repro.data.generator import generate_workload
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.exec import context as exec_context
from repro.exec.context import ExecutionConfig
from repro.exec.pool import shutdown_pool
from repro.hashing.functions import radix_bits_of
from repro.join import TritonJoin, reference_join, run_cache
from repro.join.triton import DEFAULT_PIPELINE_CHUNKS
from repro.sim.engine import SimEngine
from repro.sim.resources import ResourcePool


class TestChunkWeights:
    def test_uniform_workload_has_even_chunks(self, system):
        workload = generate_workload(512, 512, scale_divisor=8192)
        op = TritonJoin(system)
        weights = op.chunk_weights(workload, op.plan(workload))
        assert len(weights) == DEFAULT_PIPELINE_CHUNKS
        assert sum(weights) == pytest.approx(1.0, abs=1e-6)
        assert max(weights) < 1.6 / DEFAULT_PIPELINE_CHUNKS

    def test_skewed_workload_has_heavy_chunks(self, system):
        uniform = generate_workload(512, 512, scale_divisor=8192, seed=3)
        skewed = generate_workload(
            512, 512, zipf_theta=1.5, scale_divisor=8192, seed=3
        )
        op = TritonJoin(system)
        u = max(op.chunk_weights(uniform, op.plan(uniform)))
        s = max(op.chunk_weights(skewed, op.plan(skewed)))
        assert s > 1.5 * u

    def test_skew_slows_the_join_without_a_cliff(self, system):
        op = TritonJoin(system)
        uniform = op.run(
            generate_workload(1024, 1024, scale_divisor=16384, seed=5)
        ).seconds
        skewed = op.run(
            generate_workload(
                1024, 1024, zipf_theta=1.5, scale_divisor=16384, seed=5
            )
        ).seconds
        assert skewed > uniform
        assert skewed < 2.0 * uniform

    def test_skewed_join_still_correct(self, system):
        workload = generate_workload(
            0.05, 0.2, zipf_theta=1.5, scale_divisor=1, seed=5
        )
        expected = reference_join(workload.build, workload.probe)
        assert TritonJoin(system).run(workload).match == expected


class TestChunkWeightsFromFunctionalHistogram:
    """A run weights its pipeline with the functional join's pass-1
    histogram instead of histogramming the relations again; the weights
    and the makespan must equal a standalone ``build_graph``'s."""

    @pytest.fixture(scope="class", params=["uniform", "zipf"])
    def workload(self, request):
        theta = 1.5 if request.param == "zipf" else 0.0
        return generate_workload(
            512, 512, zipf_theta=theta, scale_divisor=8192, seed=3
        )

    @staticmethod
    def standalone(system, workload):
        op = TritonJoin(system)
        weights = op.chunk_weights(workload, op.plan(workload))
        engine = SimEngine(ResourcePool.for_system(system))
        return weights, engine.run(op.build_graph(workload)).makespan_seconds

    @staticmethod
    def recorded_runs(op, workload, monkeypatch, repeats=1):
        """Run ``op``; returns (runs, each built graph's chunk weights)."""
        seen = []
        original = TritonJoin.chunk_weights

        def recording(self, workload, plan, histogram=None):
            assert histogram is not None, "the run re-histogrammed"
            seen.append(original(self, workload, plan, histogram))
            return seen[-1]

        with monkeypatch.context() as patch:
            patch.setattr(TritonJoin, "chunk_weights", recording)
            runs = [op.run(workload) for _ in range(repeats)]
        return runs, seen

    @pytest.mark.parametrize(
        "config", ["reference", "spilled", "shm", "cache-on", "cache-off"]
    )
    def test_run_matches_standalone_graph(
        self, system, workload, monkeypatch, config
    ):
        weights, makespan = self.standalone(system, workload)
        op = TritonJoin(system, reference=config == "reference")
        state = (
            workload.build.materialized_bytes
            + workload.probe.materialized_bytes
        )
        exec_config = {
            "spilled": ExecutionConfig(
                budget_bytes=state // 2, workers=0, morsel_rows=4096
            ),
            "shm": ExecutionConfig(force=True, workers=2, morsel_rows=4096),
        }.get(config)
        repeats = 2 if config == "cache-on" else 1
        if config == "cache-on":
            run_cache.clear()
            run_cache.enable()
        try:
            with exec_context.configured(exec_config):
                runs, seen = self.recorded_runs(
                    op, workload, monkeypatch, repeats
                )
        finally:
            run_cache.disable()
            run_cache.clear()
            shutdown_pool()
        # A cache hit returns the stored run without building a graph.
        assert seen == [weights]
        assert [run.sim.makespan_seconds for run in runs] == [
            makespan
        ] * repeats
        note = runs[0].notes.get("out_of_core")
        if config == "spilled":
            assert note["mode"] == "spill"
        elif config == "shm":
            assert (note["mode"], note["workers"]) == ("memory", 2)
            assert note["morsels"] > 1
        else:
            assert note is None

    def test_histogram_must_match_the_plan(self, system, workload):
        op = TritonJoin(system)
        with pytest.raises(ConfigurationError, match="partitions"):
            op.chunk_weights(
                workload, op.plan(workload), np.ones(3, dtype=np.int64)
            )


@pytest.mark.parametrize("payloads", [1, 3])
def test_spill_shards_equal_order_plus_gather(tmp_path, payloads):
    """Every shard's column bytes equal a stable argsort of the radix
    window plus one gather per column (the column scatter's contract)."""
    rng = np.random.default_rng(5)
    rows, shard_rows, bits = 5000, 2048, 5
    relation = Relation(
        keys=rng.integers(1, 10**9, size=rows),
        payloads={
            f"p{i}": rng.integers(0, 2**62, size=rows)
            for i in range(payloads)
        },
    )
    directory = tmp_path / "shards"
    chunked = ChunkedRelation.from_relation(
        relation, directory, shard_rows=shard_rows, bits=bits
    )
    orders = []
    for start in range(0, rows, shard_rows):
        window = radix_bits_of(relation.keys[start:start + shard_rows], bits)
        orders.append(start + np.argsort(window, kind="stable"))
    # All partitions of every shard, read back in shard order.
    for name in relation.column_names():
        expected = relation.column(name)[np.concatenate(orders)]
        stored = chunked.partition_range_column(name, 0, 1 << bits)
        assert stored.tobytes() == expected.tobytes()
    chunked.close()


class TestLargeValueAggregation:
    def test_sum_of_huge_payloads_is_exact(self):
        # Regression: float64 bincount weights silently lose precision
        # above 2^53; int64 accumulation must not.
        keys = np.array([1, 1, 2], dtype=np.int64)
        values = np.array([2**60, 3, 2**61], dtype=np.int64)
        group_keys, states = _accumulate(AggregateFunction.SUM, keys, values)
        assert states[0] == 2**60 + 3
        assert states[1] == 2**61

    def test_reference_aggregate_handles_random_62_bit_values(self):
        rng = np.random.default_rng(0)
        relation = Relation(
            rng.integers(1, 50, size=10_000).astype(np.int64),
            {"attr0": rng.integers(0, 2**62, size=10_000).astype(np.int64)},
        )
        first = reference_aggregate(relation, AggregateFunction.SUM)
        second = reference_aggregate(relation, AggregateFunction.SUM)
        assert first == second
        assert first.groups == 49


class TestExtensionExperimentsSmoke:
    def test_ext_interconnect(self):
        table = ALL_EXPERIMENTS["ext_interconnect"].run(
            sizes=(2048,), scale_divisor=65536
        )
        assert table.rows

    def test_ext_scaling(self):
        multi, agg = ALL_EXPERIMENTS["ext_scaling"].run(
            sizes=(512,), scale_divisor=65536
        )
        assert multi.rows and agg.rows

    def test_ext_robustness(self):
        skew, selectivity, bw, failures = ALL_EXPERIMENTS["ext_robustness"].run(
            scale_divisor=65536
        )
        assert skew.rows and selectivity.rows
        assert bw.rows and failures.rows

    def test_registry_is_complete(self):
        assert len(ALL_EXPERIMENTS) == 25
        assert "ext_service" in ALL_EXPERIMENTS
