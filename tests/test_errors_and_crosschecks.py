"""Tests for the error hierarchy and analytic-vs-functional cross-checks.

The cross-checks enforce DESIGN.md's "two-sided algorithms" contract:
the analytic work profiles the simulator consumes must agree with counts
observed in functional runs of the same code path.
"""

import numpy as np
import pytest

from repro.data.generator import generate_workload
from repro.data.relation import Relation
from repro.errors import (
    CapacityError,
    ConfigurationError,
    PlanError,
    ReproError,
    SimulationError,
)
from repro.hashing.functions import radix_bits_of
from repro.hw.interconnect import Op
from repro.hw.tlb import MemSpace
from repro.join import TritonJoin
from repro.partition import (
    SharedPartitioner,
    count_flushes,
    partition_relation,
    radix_histogram,
)
from repro.partition.base import buffer_tuples_per_partition


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc", [ConfigurationError, CapacityError, SimulationError, PlanError]
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_repro_error_is_an_exception(self):
        assert issubclass(ReproError, Exception)


class TestAnalyticVsFunctional:
    """Analytic estimates vs. counts from real runs of the same code."""

    @pytest.fixture(scope="class")
    def relation(self):
        rng = np.random.default_rng(23)
        keys = rng.integers(1, 2**40, size=100_000).astype(np.int64)
        return Relation(keys, {"attr0": keys})

    def test_analytic_flush_estimate_close_to_actual(self, relation):
        """bytes/flush_bytes approximates the real flush count."""
        shared = SharedPartitioner()
        bits = 6
        fanout = 1 << bits
        scratch = 64 * 1024
        buffer_tuples = buffer_tuples_per_partition(fanout, 16, scratch)
        counts = radix_histogram(relation.keys, bits)
        actual = count_flushes(counts, buffer_tuples)
        analytic = len(relation) / buffer_tuples
        # Partial flushes add at most one flush per partition.
        assert analytic <= actual <= analytic + fanout

    def test_partition_sizes_match_workload_distribution(self, relation):
        """The uniform-key assumption behind the cost model holds."""
        parts = partition_relation(relation, bits=6)
        sizes = parts.sizes()
        expected = len(relation) / 64
        assert sizes.max() < 1.5 * expected
        assert sizes.min() > 0.5 * expected

    def test_plan_fanout_matches_functional_partitioning(self, system):
        """The plan the cost model uses is the plan the functional
        layer executes."""
        workload = generate_workload(512, 512, scale_divisor=8192)
        op = TritonJoin(system)
        plan = op.plan(workload)
        parts = partition_relation(workload.build, min(plan.bits1, 10))
        assert parts.fanout == 1 << min(plan.bits1, 10)
        # No data is lost through the two-sided split.
        assert parts.offsets[-1] == len(workload.build)

    def test_nominal_tuple_accounting_consistent(self, system):
        """Simulated tuple counters match the workload's nominal size."""
        workload = generate_workload(128, 128, scale_divisor=8192)
        run = TritonJoin(system).run(workload)
        nominal = workload.total_nominal_tuples
        # The pipeline touches each tuple in PS1, Part1, PS2, Part2, Join.
        assert run.counters.tuples_processed >= 3 * nominal
        assert run.counters.tuples_processed <= 8 * nominal

    def test_state_bytes_match_relation_bytes(self, system):
        workload = generate_workload(256, 256, scale_divisor=8192)
        run = TritonJoin(system).run(workload)
        assert run.notes["state_bytes"] == workload.total_nominal_bytes

    def test_radix_selector_is_what_the_planner_assumes(self, relation):
        """Pass-2 bits refine pass-1 bits without overlap."""
        low = radix_bits_of(relation.keys, 6, offset=0)
        high = radix_bits_of(relation.keys, 9, offset=6)
        combined = radix_bits_of(relation.keys, 15, offset=0)
        assert np.array_equal(combined, low + (high << 6))


class TestCapacityEnforcement:

    def test_request_validation_is_configuration_error(self, gpu_model):
        from repro.hw.gpu import MemoryRequest

        with pytest.raises(ConfigurationError):
            MemoryRequest(
                total_bytes=1.0, access_bytes=0, op=Op.READ, space=MemSpace.CPU
            )
