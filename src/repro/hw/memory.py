"""The Triton cache's page interleaving (Figure 12).

The contiguous virtual-memory mapping that interleaves GPU and CPU
pages in proportion to the cached fraction. Operators size their GPU
memory through :func:`repro.faults.effective_gpu_memory` and
:func:`repro.join.caching.plan_cache`; this module only lays the
cached state out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.errors import ConfigurationError
from repro.hw.tlb import MemSpace


@dataclass(frozen=True)
class InterleavedMapping:
    """The Figure 12 cache layout: GPU and CPU pages in one virtual array.

    Pages are interleaved in intervals proportional to the physical
    allocation sizes (e.g. one GPU page after every two CPU pages), so the
    GPU touches both memories throughout execution and the interconnect
    stays consistently busy (section 5.3).
    """

    total_bytes: int
    gpu_bytes: int
    page_bytes: int

    def __post_init__(self) -> None:
        if self.total_bytes < 0 or self.gpu_bytes < 0:
            raise ConfigurationError("sizes cannot be negative")
        if self.gpu_bytes > self.total_bytes:
            raise ConfigurationError("cached bytes cannot exceed total bytes")
        if self.page_bytes <= 0:
            raise ConfigurationError("page size must be positive")

    @property
    def gpu_fraction(self) -> float:
        if self.total_bytes == 0:
            return 0.0
        return self.gpu_bytes / self.total_bytes

    @property
    def page_count(self) -> int:
        return -(-self.total_bytes // self.page_bytes)

    def page_space(self, page_index: int) -> MemSpace:
        """Physical location of virtual page ``page_index``.

        Implements even interleaving by error diffusion: page ``i`` is a
        GPU page iff the cumulative GPU-page quota crosses an integer at
        ``i``. This yields the paper's proportional interval pattern for
        any ratio (e.g. 1 GPU page after every 2 CPU pages at 1/3).
        """
        if not 0 <= page_index < self.page_count:
            raise ConfigurationError(
                f"page index {page_index} out of range [0, {self.page_count})"
            )
        f = self.gpu_fraction
        before = int(page_index * f)
        after = int((page_index + 1) * f)
        return MemSpace.GPU if after > before else MemSpace.CPU

    def iter_pages(self) -> Iterator[Tuple[int, MemSpace]]:
        """Yield ``(page_index, space)`` pairs for all virtual pages."""
        for i in range(self.page_count):
            yield i, self.page_space(i)
