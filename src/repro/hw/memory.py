"""Memory spaces, page allocation, and the Triton cache's page interleaving.

Models the two physical memories of the fast-interconnect system (GPU
on-board memory and the CPU NUMA node nearest the GPU) with capacity
enforcement and 2 MiB huge-page allocation, plus the contiguous
virtual-memory mapping of Figure 12 that interleaves GPU and CPU pages in
proportion to the cached fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.errors import CapacityError, ConfigurationError
from repro.hw.tlb import MemSpace
from repro.units import align_up


@dataclass(frozen=True)
class Allocation:
    """One named allocation inside a memory space."""

    name: str
    bytes: int
    space: MemSpace


class MemorySpace:
    """A physical memory with capacity tracking.

    The hardware model enforces the paper's capacities (16 GiB GPU memory,
    128 GiB CPU memory per socket): algorithms must plan spills instead of
    over-allocating, so exceeding capacity raises :class:`CapacityError`.
    """

    def __init__(self, space: MemSpace, capacity_bytes: int, page_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError("capacity must be positive")
        if page_bytes <= 0:
            raise ConfigurationError("page size must be positive")
        self.space = space
        self.capacity_bytes = capacity_bytes
        self.page_bytes = page_bytes
        self._allocations: Dict[str, Allocation] = {}

    @property
    def allocated_bytes(self) -> int:
        return sum(a.bytes for a in self._allocations.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.allocated_bytes

    def alloc(self, name: str, nbytes: int) -> Allocation:
        """Reserve ``nbytes`` rounded up to whole (huge) pages."""
        if name in self._allocations:
            raise ConfigurationError(f"allocation {name!r} already exists")
        if nbytes < 0:
            raise ConfigurationError("allocation size cannot be negative")
        rounded = align_up(max(nbytes, 1), self.page_bytes)
        if rounded > self.free_bytes:
            raise CapacityError(
                f"{self.space.value} memory: requested {rounded} bytes for "
                f"{name!r} but only {self.free_bytes} free of "
                f"{self.capacity_bytes}"
            )
        allocation = Allocation(name=name, bytes=rounded, space=self.space)
        self._allocations[name] = allocation
        return allocation

    def free(self, name: str) -> None:
        if name not in self._allocations:
            raise ConfigurationError(f"no allocation named {name!r}")
        del self._allocations[name]

    def reset(self) -> None:
        """Drop all allocations (end of an experiment run)."""
        self._allocations.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._allocations


class PageAllocator:
    """Huge-page allocator over both memory spaces of one system.

    Mirrors the paper's setup: 2 MiB huge pages preallocated at boot on
    the NUMA node closest to the GPU (section 6.1), so allocations never
    fragment.
    """

    def __init__(
        self,
        gpu_capacity_bytes: int,
        cpu_capacity_bytes: int,
        page_bytes: int = 2 * 1024 * 1024,
    ) -> None:
        self.page_bytes = page_bytes
        self.gpu = MemorySpace(MemSpace.GPU, gpu_capacity_bytes, page_bytes)
        self.cpu = MemorySpace(MemSpace.CPU, cpu_capacity_bytes, page_bytes)

    def space(self, space: MemSpace) -> MemorySpace:
        return self.gpu if space is MemSpace.GPU else self.cpu

    def alloc(self, name: str, nbytes: int, space: MemSpace) -> Allocation:
        return self.space(space).alloc(name, nbytes)

    def free(self, name: str, space: MemSpace) -> None:
        self.space(space).free(name)

    def reset(self) -> None:
        self.gpu.reset()
        self.cpu.reset()


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
    def cpu_bytes(self) -> int:
        return self.total_bytes - self.gpu_bytes

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

    def run_lengths(self) -> List[Tuple[MemSpace, int]]:
        """Consecutive runs of pages in the same space (for inspection)."""
        runs: List[Tuple[MemSpace, int]] = []
        for _, space in self.iter_pages():
            if runs and runs[-1][0] is space:
                runs[-1] = (space, runs[-1][1] + 1)
            else:
                runs.append((space, 1))
        return runs

    def split_bytes(self, nbytes: float) -> Tuple[float, float]:
        """Split a byte amount accessed uniformly into (GPU, CPU) parts."""
        if nbytes < 0:
            raise ConfigurationError("byte amount cannot be negative")
        gpu_part = nbytes * self.gpu_fraction
        return gpu_part, nbytes - gpu_part
