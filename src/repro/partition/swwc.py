"""CPU software write-combining partitioner (the paper's CPU baseline).

Implements the cost behaviour of the tuned CPU radix partitioning of
Balkesen et al. as ported to POWER9 in section 6.1: SWWC buffers of one
cacheline per partition flushed with SIMD stores, micro-row layout for
the partition offsets, and per-SIMD-lane histograms. POWER lacks
non-temporal stores, so every flushed cacheline is first read for
ownership (RFO), adding a third memory traffic stream.

The number of passes follows the cache capacity: when the SWWC buffers
for the requested fanout outgrow the per-core cache budget, the
partitioner switches to two passes of half the radix bits each — the
behaviour that degrades the Xeon baseline above 1408 M tuples
(section 6.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hw.cpu import CpuModel
from repro.units import next_power_of_two


#: CPU operations per tuple per pass: hash, histogram update, buffer
#: insert, and the amortized SIMD flush. Calibrated so that one POWER9
#: socket partitions at ~2 G tuples/s (Figs. 4 and 16b).
OPS_PER_TUPLE = 16.0
#: Radix partitioning reduces TLB misses but cannot eliminate them: with
#: more open write cursors than TLB entries, SWWC flushes start missing.
#: The POWER9's huge-page DTLB covers ~4096 streams; a miss costs the
#: equivalent of ~60 simple operations (~30 ns). This term produces the
#: paper's 22% POWER9 decline when the fanout grows from 2^12 to 2^14
#: (section 6.2.1).
CPU_TLB_STREAM_ENTRIES = 4096
TLB_MISS_EQUIVALENT_OPS = 60.0
CACHELINE_BYTES = 128


@dataclass(frozen=True)
class CpuPartitionWork:
    """Memory and compute work of a CPU partitioning run."""

    read_bytes: float
    write_bytes: float
    operations: float
    passes: int
    tuples: float


class CpuSwwcPartitioner:
    """Multi-core SWWC radix partitioning on one CPU socket."""

    name = "CPU SWWC"

    def __init__(self, cpu: CpuModel, non_temporal_stores: bool = False) -> None:
        self.cpu = cpu
        # POWER9 has no non-temporal stores (section 6.1): flushes read
        # the destination cacheline for ownership before writing it.
        self.non_temporal_stores = non_temporal_stores

    def passes_needed(self, fanout: int) -> int:
        """1 while the SWWC buffers fit the cache, else 2 (section 6.2.1)."""
        if fanout <= 0:
            raise ConfigurationError("fanout must be positive")
        return 1 if self.cpu.swwc_fits_in_cache(fanout) else 2

    def pass_fanouts(self, fanout: int) -> list:
        """Per-pass fanouts (splitting the radix bits across passes)."""
        passes = self.passes_needed(fanout)
        if passes == 1:
            return [fanout]
        bits = max(1, (fanout - 1).bit_length())
        first = 1 << (bits // 2)
        second = next_power_of_two(-(-fanout // first))
        return [first, second]

    def ops_per_tuple(self, fanout: int, tuple_bytes: int) -> float:
        """Per-tuple operations for one pass at the given fanout.

        Adds the TLB-miss equivalent for flushes once the fanout exceeds
        the CPU's stream-TLB coverage.
        """
        flushes_per_tuple = tuple_bytes / CACHELINE_BYTES
        miss_prob = max(0.0, 1.0 - CPU_TLB_STREAM_ENTRIES / fanout)
        return OPS_PER_TUPLE + (
            flushes_per_tuple * miss_prob * TLB_MISS_EQUIVALENT_OPS
        )

    def work(self, tuples: float, tuple_bytes: int, fanout: int) -> CpuPartitionWork:
        """Total memory and compute work to partition ``tuples``."""
        if tuples < 0:
            raise ConfigurationError("tuples cannot be negative")
        fanouts = self.pass_fanouts(fanout)
        bytes_per_pass = tuples * tuple_bytes
        write_factor = 1.0 if self.non_temporal_stores else 2.0
        operations = sum(
            tuples * self.ops_per_tuple(pass_fanout, tuple_bytes)
            for pass_fanout in fanouts
        )
        passes = len(fanouts)
        return CpuPartitionWork(
            read_bytes=passes * bytes_per_pass,
            write_bytes=passes * bytes_per_pass * write_factor,
            operations=operations,
            passes=passes,
            tuples=tuples,
        )

    def throughput_tuples_per_s(self, tuples: float, tuple_bytes: int, fanout: int) -> float:
        """Standalone partitioning rate (compute/memory bound, Fig. 4)."""
        work = self.work(tuples, tuple_bytes, fanout)
        mem_seconds = (
            work.read_bytes + work.write_bytes
        ) / self.cpu.spec.memory.bandwidth_bytes_per_s
        compute_seconds = self.cpu.compute_time(work.operations)
        seconds = max(mem_seconds, compute_seconds)
        if seconds <= 0:
            return float("inf")
        return tuples / seconds
