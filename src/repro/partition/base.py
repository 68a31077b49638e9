"""GPU partitioner interface and shared work-profile assembly.

A GPU partitioning pass reads its input sequentially (from CPU or GPU
memory) and writes each tuple to one of ``fanout`` output cursors. What
distinguishes the algorithms of section 4 is *how* the writes reach
memory: their granularity, alignment, TLB stream behaviour, auxiliary
buffer traffic, and instruction footprint. Subclasses provide those via
:meth:`GpuPartitioner.write_profile`; the base class assembles the full
:class:`PartitionWork` (read + write + auxiliary requests, issue slots)
that the kernel builder turns into a simulator task.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.hw.gpu import MemoryRequest
from repro.hw.interconnect import AccessPattern, Op
from repro.hw.tlb import MemSpace

#: Baseline warp-level issue slots per tuple: hash, cursor/slot claim
#: (atomic with replays), and the buffered store.
BASE_ISSUE_SLOTS_PER_TUPLE = 3.0
#: A warp covers 32 tuples; flushing from buffers smaller than a warp
#: under-utilizes the flush lanes (the Fig. 18e effect).
WARP_TUPLES = 32


@dataclass(frozen=True)
class DesignGoals:
    """Table 1: which of the paper's design goals an algorithm meets."""

    space_efficient: bool
    perfect_coalescing: bool
    high_fanout: bool


@dataclass(frozen=True)
class WriteProfile:
    """How an algorithm's writes reach the destination memory.

    Attributes:
        flush_bytes: granularity of each output write.
        aligned: whether flushes are aligned to the transaction size.
        extra_requests: auxiliary traffic (e.g. Hierarchical's GPU-memory
            second-level buffer eviction and read-back).
        issue_slots_per_tuple: total instruction issue slots per tuple.
        write_efficiency: flush-pipeline efficiency (< 1 when buffers are
            too small to hide flush latency).
    """

    flush_bytes: int
    aligned: bool
    issue_slots_per_tuple: float
    extra_requests: List[MemoryRequest] = field(default_factory=list)
    write_efficiency: float = 1.0


@dataclass(frozen=True)
class PartitionWork:
    """The complete work profile of one partitioning pass."""

    requests: List[MemoryRequest]
    issue_slots: float
    tuples: float
    fanout: int
    flush_bytes: int

    @property
    def input_bytes(self) -> float:
        return max(
            (r.total_bytes for r in self.requests if r.op is Op.READ),
            default=0.0,
        )


class GpuPartitioner(abc.ABC):
    """A GPU radix partitioning algorithm's cost model.

    Concrete partitioners are frozen dataclasses: equal configurations
    are equal, hashable values, so an operator can hold one as a field
    of its run-cache key.
    """

    #: Human-readable name matching the paper's figures.
    name: str
    #: Table 1 row for this algorithm.
    design_goals: DesignGoals

    @abc.abstractmethod
    def write_profile(
        self, fanout: int, tuple_bytes: int, scratchpad_bytes: int, dst: MemSpace
    ) -> WriteProfile:
        """The algorithm-specific write behaviour for one pass."""

    def max_fanout(self, tuple_bytes: int, scratchpad_bytes: int) -> int:
        """Largest supported fanout (buffer capacity bound)."""
        return scratchpad_bytes // tuple_bytes

    def gpu_work(
        self,
        tuples: float,
        tuple_bytes: int,
        fanout: int,
        src: MemSpace,
        dst: MemSpace,
        scratchpad_bytes: int,
        dst_footprint_bytes: Optional[float] = None,
    ) -> PartitionWork:
        """Assemble the full work profile of one partitioning pass.

        The pass reads ``tuples * tuple_bytes`` sequentially from ``src``
        and writes the same volume to ``dst`` through the algorithm's
        write path. When both source and destination live in CPU memory
        the link runs full duplex, capping each direction at the measured
        bidirectional bandwidth.
        """
        if tuples < 0:
            raise ConfigurationError("tuples cannot be negative")
        if fanout <= 0 or fanout & (fanout - 1):
            raise ConfigurationError("fanout must be a positive power of two")
        if fanout > self.max_fanout(tuple_bytes, scratchpad_bytes):
            raise ConfigurationError(
                f"{self.name}: fanout {fanout} exceeds the buffer capacity "
                f"for a {scratchpad_bytes}-byte scratchpad"
            )
        total_bytes = tuples * tuple_bytes
        duplex = src is MemSpace.CPU and dst is MemSpace.CPU
        profile = self.write_profile(fanout, tuple_bytes, scratchpad_bytes, dst)

        requests = [
            MemoryRequest(
                total_bytes=total_bytes,
                access_bytes=128,
                op=Op.READ,
                space=src,
                pattern=AccessPattern.SEQUENTIAL,
                duplex=duplex,
            ),
            MemoryRequest(
                total_bytes=total_bytes,
                access_bytes=profile.flush_bytes,
                op=Op.WRITE,
                space=dst,
                pattern=AccessPattern.RANDOM,
                footprint_bytes=dst_footprint_bytes or total_bytes,
                aligned=profile.aligned,
                duplex=duplex,
                stream_count=fanout,
                efficiency=profile.write_efficiency,
            ),
        ]
        requests.extend(profile.extra_requests)
        return PartitionWork(
            requests=requests,
            issue_slots=tuples * profile.issue_slots_per_tuple,
            tuples=tuples,
            fanout=fanout,
            flush_bytes=profile.flush_bytes,
        )


def buffer_tuples_per_partition(
    fanout: int, tuple_bytes: int, scratchpad_bytes: int
) -> int:
    """SWWC buffer slots per partition when the scratchpad is split evenly."""
    if fanout <= 0 or tuple_bytes <= 0:
        raise ConfigurationError("fanout and tuple size must be positive")
    return max(1, scratchpad_bytes // (fanout * tuple_bytes))


def flush_underutilization(buffer_tuples: int) -> float:
    """Warp-lane waste factor when flushing sub-warp buffers (Fig. 18e)."""
    return max(1.0, WARP_TUPLES / buffer_tuples)
