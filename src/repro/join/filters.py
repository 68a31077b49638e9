"""Bloom-filter pushdown for selective joins (an extension).

The paper lists "filtering the outer relation" (Gubner et al.'s fluid
co-processing with GPU Bloom filters) among the complementary
optimizations that "remain open challenges for GPUs with fast
interconnects" (section 7). This extension closes that loop on our
substrate:

1. Build a Bloom filter over R's keys (it lives in GPU memory — a few
   bits per build tuple, far smaller than any hash table).
2. Pre-filter S with one streaming pass: read only the key column over
   the link, test the filter, and emit the surviving row ids.
3. Run the Triton join on the surviving fraction of S.

When most probe tuples cannot match (low ``probe_hit_rate`` workloads),
the filter removes their partitioning, spilling, and joining costs for
one cheap extra scan; at hit rate 1 it is pure overhead — which the
benchmark demonstrates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import telemetry
from repro.data.generator import Workload
from repro.errors import ConfigurationError
from repro.hashing.functions import fibonacci_hash, multiply_shift
from repro.hw.gpu import GpuModel, MemoryRequest
from repro.hw.interconnect import AccessPattern, Op
from repro.hw.tlb import MemSpace
from repro.join.base import JoinOperator, JoinRun
from repro.join.triton import TritonJoin
from repro.sim.kernels import GpuKernelBuilder
from repro.sim.tasks import TaskGraph
from repro.units import next_power_of_two

#: Issue slots per probed tuple (two hashes + bit tests).
FILTER_SLOTS_PER_TUPLE = 3.0


class BloomFilter:
    """A two-hash blocked Bloom filter over int64 keys, on numpy."""

    def __init__(self, keys: np.ndarray, bits_per_key: int = 10) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) == 0:
            raise ConfigurationError("cannot build an empty Bloom filter")
        if bits_per_key < 1:
            raise ConfigurationError("bits_per_key must be >= 1")
        self._bits = next_power_of_two(max(len(keys) * bits_per_key, 64))
        self._mask = self._bits - 1
        self._words = np.zeros(self._bits // 64, dtype=np.uint64)
        for positions in self._positions(keys):
            np.bitwise_or.at(
                self._words,
                positions >> 6,
                np.uint64(1) << (positions & np.int64(63)).astype(np.uint64),
            )

    def _positions(self, keys: np.ndarray):
        """The two probe positions per key."""
        bits = int(math.log2(self._bits))
        yield multiply_shift(keys, bits=bits) & self._mask
        yield fibonacci_hash(keys, bits=bits) & self._mask

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Membership test; may return false positives, never negatives."""
        keys = np.asarray(keys, dtype=np.int64)
        result = np.ones(len(keys), dtype=bool)
        for positions in self._positions(keys):
            bit = (
                self._words[positions >> 6]
                >> (positions & np.int64(63)).astype(np.uint64)
            ) & np.uint64(1)
            result &= bit.astype(bool)
        return result

    @property
    def filter_bytes(self) -> int:
        return self._bits // 8

    def expected_false_positive_rate(self, build_rows: int) -> float:
        """Classic (1 - e^{-kn/m})^k estimate with k = 2 hashes."""
        load = 2.0 * build_rows / self._bits
        return (1.0 - math.exp(-load)) ** 2


@dataclass(frozen=True)
class BloomFilteredTritonJoin(JoinOperator):
    """Triton join with a Bloom-filter semi-join pushdown on S.

    It composes rather than follows the run skeleton: the inner Triton
    join runs (and simulates) the semi-joined workload, and the filter
    scan that precedes it (:meth:`build_graph`) is priced standalone.
    """

    inner: Optional[TritonJoin] = None

    name = "Bloom-Filtered Triton Join"

    def __post_init__(self) -> None:
        if self.inner is None:
            object.__setattr__(self, "inner", TritonJoin(self.system))

    @functools.cached_property
    def builder(self) -> GpuKernelBuilder:
        return GpuKernelBuilder(GpuModel(self.system))

    def build_graph(
        self, workload: Workload, filter_bytes: float, pass_rate: float
    ) -> TaskGraph:
        """The pre-filter scan: keys in, surviving row-ids out."""
        probe_rows = workload.probe.nominal_rows
        return TaskGraph([self.builder.build(
            name="bloom_filter",
            phase="Filter",
            requests=[
                # Stream S's key column over the link.
                MemoryRequest(
                    total_bytes=probe_rows * 8,
                    access_bytes=128,
                    op=Op.READ,
                    space=MemSpace.CPU,
                    pattern=AccessPattern.SEQUENTIAL,
                ),
                # Random single-word filter probes in GPU memory.
                MemoryRequest(
                    total_bytes=probe_rows * 2 * 8,
                    access_bytes=8,
                    op=Op.READ,
                    space=MemSpace.GPU,
                    pattern=AccessPattern.RANDOM,
                    footprint_bytes=max(filter_bytes, 8.0),
                ),
                # Emit surviving row ids back to CPU memory.
                MemoryRequest(
                    total_bytes=probe_rows * pass_rate * 8,
                    access_bytes=128,
                    op=Op.WRITE,
                    space=MemSpace.CPU,
                    pattern=AccessPattern.SEQUENTIAL,
                ),
            ],
            instructions=probe_rows * FILTER_SLOTS_PER_TUPLE,
            tuples=probe_rows,
        )])

    def cost(self, workload: Workload, *args, **kwargs):
        """No cost-only path: the filter's size and pass rate, which the
        pre-filter scan's graph needs, come from building it."""
        raise ConfigurationError(
            f"{self.name} has no cost-only path: its filter's size and "
            "pass rate come from a functional run"
        )

    def run(self, workload: Workload) -> JoinRun:
        # Build the filter and semi-join S functionally; false positives
        # survive here and are eliminated by the real join below.
        sp = telemetry.span(
            "bloom_filter",
            build=workload.build.nominal_rows,
            probe=workload.probe.nominal_rows,
        )
        with sp:
            bloom = BloomFilter(workload.build.keys)
            survives = bloom.contains(workload.probe.keys)
            pass_rate = float(survives.mean()) if len(survives) else 1.0
            sp.set(pass_rate=pass_rate)

        filtered_probe = workload.probe.take(np.nonzero(survives)[0])
        filtered_probe = filtered_probe.with_nominal_rows(
            max(int(workload.probe.nominal_rows * pass_rate), len(filtered_probe))
        )
        filtered = Workload(
            config=workload.config,
            build=workload.build,
            probe=filtered_probe,
            lineage=workload.lineage,
        )

        inner_run = self.inner.run(filtered)
        (filter_task,) = self.build_graph(
            workload, bloom.filter_bytes, pass_rate
        ).tasks
        filter_seconds = filter_task.standalone_seconds()

        run = JoinRun(
            name=self.name,
            workload=workload,
            match=inner_run.match,
            seconds=inner_run.seconds + filter_seconds,
            counters=inner_run.counters.snapshot().merge(filter_task.counters),
            sim=inner_run.sim,
            uses_gpu=True,
        )
        run.notes["pass_rate"] = pass_rate
        run.notes["filter_bytes"] = bloom.filter_bytes
        run.notes["filter_seconds"] = filter_seconds
        run.notes["false_positive_rate"] = bloom.expected_false_positive_rate(
            workload.build.nominal_rows
        )
        return run
