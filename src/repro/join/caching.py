"""Working-set caching in GPU memory (section 5.3, Figures 12 and 19).

The Triton join turns the partitioned radix join into a *hybrid* hash
join by keeping part of its intermediate state in GPU memory. The paper's
policy spreads the cache evenly over the state: GPU and CPU pages are
interleaved proportionally into one contiguous virtual array, so the GPU
touches both memories throughout execution and the interconnect never
idles.

The classic hybrid-hash policy (cache partition R0 entirely) is
implemented for the ablation benchmark: while the GPU processes the
cached partitions the link sits idle, losing transfer/compute overlap —
exactly the trade-off the paper describes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hw.memory import InterleavedMapping
from repro.units import GIB, MIB


class CachePolicy(enum.Enum):
    """How cached pages are distributed over the intermediate state."""

    #: The paper's policy: pages interleaved evenly (Fig. 12).
    EVEN_INTERLEAVED = "even_interleaved"
    #: Classic hybrid hash: first partitions fully cached, rest spilled.
    HYBRID_HASH_R0 = "hybrid_hash_r0"
    #: No caching: a plain two-pass out-of-core radix join.
    NONE = "none"


@dataclass(frozen=True)
class CachePlan:
    """The resolved cache layout for one join execution.

    Attributes:
        state_bytes: total intermediate (partitioned) state.
        cache_bytes: GPU memory dedicated to caching state.
        policy: page distribution policy.
    """

    state_bytes: float
    cache_bytes: float
    policy: CachePolicy

    def __post_init__(self) -> None:
        if self.state_bytes < 0 or self.cache_bytes < 0:
            raise ConfigurationError("sizes cannot be negative")

    @property
    def gpu_fraction(self) -> float:
        """Fraction of the state resident in GPU memory."""
        if self.state_bytes == 0:
            return 1.0
        return min(1.0, self.cache_bytes / self.state_bytes)

    @property
    def spilled_fraction(self) -> float:
        return 1.0 - self.gpu_fraction

    def mapping(self, page_bytes: int = 2 * MIB) -> InterleavedMapping:
        """The Fig. 12 virtual layout of the cached state."""
        total = int(self.state_bytes)
        gpu = int(self.state_bytes * self.gpu_fraction)
        return InterleavedMapping(
            total_bytes=total, gpu_bytes=min(gpu, total), page_bytes=page_bytes
        )


#: GPU memory the join pipeline itself needs (second-pass output buffers
#: for two partition pairs, hash tables, spare pools) — the paper notes
#: "a part of the GPU memory is required for the join pipeline"
#: (section 6.2.7), and sweeps the cache only up to 14.9 GiB of the
#: 16 GiB.
PIPELINE_RESERVED_BYTES = int(1.1 * GIB)


def plan_cache(
    state_bytes: float,
    gpu_capacity_bytes: float,
    policy: CachePolicy = CachePolicy.EVEN_INTERLEAVED,
    cache_bytes: float = None,
) -> CachePlan:
    """Resolve the cache size for one execution.

    By default the cache takes all GPU memory left after the pipeline
    reservation, clamped to the state size. An explicit ``cache_bytes``
    (Fig. 19's sweep variable) overrides the default but is still clamped
    to the available capacity.
    """
    available = max(0.0, gpu_capacity_bytes - PIPELINE_RESERVED_BYTES)
    if policy is CachePolicy.NONE:
        resolved = 0.0
    elif cache_bytes is None:
        resolved = min(available, state_bytes)
    else:
        if cache_bytes < 0:
            raise ConfigurationError("cache_bytes cannot be negative")
        resolved = min(cache_bytes, available, state_bytes)
    return CachePlan(
        state_bytes=state_bytes, cache_bytes=resolved, policy=policy
    )
