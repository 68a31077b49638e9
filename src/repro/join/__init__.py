"""Join operators: the Triton join and the paper's baselines.

Four end-to-end equi-join operators, all functionally correct (verified
against a reference join) and all costed against the hardware simulator:

- :class:`TritonJoin` — the paper's contribution: a GPU-partitioned,
  hierarchical hybrid hash join that spills over the fast interconnect,
  caches its working set in interleaved GPU/CPU pages, and overlaps the
  second partitioning pass with the join via concurrent kernels.
- :class:`NoPartitioningJoin` — the GPU baseline: one global hash table
  (linear probing / bucket chaining / perfect), optionally cached in GPU
  memory.
- :class:`CpuRadixJoin` — the multi-core radix join baseline (POWER9 or
  Xeon), single-pass SWWC partitioning plus cache-resident joins.
- :class:`CpuPartitionedJoin` — the prior CPU-partitioned GPU strategy
  (Sioulas et al.): the CPU partitions, the GPU joins.
"""

from repro.join import run_cache
from repro.join.base import JoinOperator, JoinRun, reference_join
from repro.join.ladder import (
    DegradationLadder,
    Rung,
    coprocess_rungs,
    default_rungs,
)
from repro.join.batched import batched_radix_join, reference_radix_join
from repro.join.caching import CachePolicy, CachePlan, plan_cache
from repro.join.no_partitioning import NoPartitioningJoin
from repro.join.cpu_radix import CpuRadixJoin
from repro.join.cpu_partitioned import CpuPartitionedJoin
from repro.join.triton import TritonJoin
from repro.join.coprocess import CoProcessingJoin
from repro.join.multi_gpu import MultiGpuTritonJoin
from repro.join.filters import BloomFilter, BloomFilteredTritonJoin

__all__ = [
    "BloomFilter",
    "BloomFilteredTritonJoin",
    "CachePlan",
    "CachePolicy",
    "CoProcessingJoin",
    "CpuPartitionedJoin",
    "CpuRadixJoin",
    "DegradationLadder",
    "JoinOperator",
    "JoinRun",
    "MultiGpuTritonJoin",
    "NoPartitioningJoin",
    "Rung",
    "TritonJoin",
    "batched_radix_join",
    "coprocess_rungs",
    "default_rungs",
    "plan_cache",
    "reference_join",
    "reference_radix_join",
    "run_cache",
]
