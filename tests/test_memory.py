"""Unit tests for the interleaved cache layout (repro.hw.memory)."""

import itertools

import pytest

from repro.errors import ConfigurationError
from repro.hw.memory import InterleavedMapping
from repro.hw.tlb import MemSpace
from repro.units import MIB


def run_lengths(mapping):
    """Consecutive runs of pages in the same space."""
    return [
        (space, len(list(run)))
        for space, run in itertools.groupby(
            space for _, space in mapping.iter_pages()
        )
    ]


class TestInterleavedMapping:
    """The Fig. 12 layout: GPU/CPU pages interleaved proportionally."""

    def test_byte_split(self):
        mapping = InterleavedMapping(
            total_bytes=90 * MIB, gpu_bytes=30 * MIB, page_bytes=2 * MIB
        )
        assert mapping.gpu_fraction == pytest.approx(1 / 3)

    def test_one_gpu_page_after_every_two_cpu_pages(self):
        # The paper's example interval pattern at a 1:2 ratio.
        mapping = InterleavedMapping(
            total_bytes=90 * MIB, gpu_bytes=30 * MIB, page_bytes=2 * MIB
        )
        runs = run_lengths(mapping)
        cpu_runs = [n for space, n in runs if space is MemSpace.CPU]
        gpu_runs = [n for space, n in runs if space is MemSpace.GPU]
        assert all(n == 1 for n in gpu_runs)
        assert all(n == 2 for n in cpu_runs)

    def test_page_count_matches_fraction(self):
        mapping = InterleavedMapping(
            total_bytes=100 * 2 * MIB, gpu_bytes=25 * 2 * MIB,
            page_bytes=2 * MIB,
        )
        gpu_pages = sum(
            1 for _, space in mapping.iter_pages() if space is MemSpace.GPU
        )
        assert gpu_pages == 25

    def test_all_gpu(self):
        mapping = InterleavedMapping(
            total_bytes=10 * MIB, gpu_bytes=10 * MIB, page_bytes=2 * MIB
        )
        assert all(space is MemSpace.GPU for _, space in mapping.iter_pages())

    def test_all_cpu(self):
        mapping = InterleavedMapping(
            total_bytes=10 * MIB, gpu_bytes=0, page_bytes=2 * MIB
        )
        assert all(space is MemSpace.CPU for _, space in mapping.iter_pages())

    def test_interleaving_is_spread_not_clustered(self):
        # Error diffusion: no run of same-space pages exceeds the ratio.
        mapping = InterleavedMapping(
            total_bytes=1000 * 2 * MIB, gpu_bytes=300 * 2 * MIB,
            page_bytes=2 * MIB,
        )
        runs = run_lengths(mapping)
        assert max(n for space, n in runs if space is MemSpace.CPU) <= 3

    def test_gpu_cannot_exceed_total(self):
        with pytest.raises(ConfigurationError):
            InterleavedMapping(total_bytes=10, gpu_bytes=20, page_bytes=2 * MIB)

    def test_page_index_bounds(self):
        mapping = InterleavedMapping(
            total_bytes=4 * MIB, gpu_bytes=2 * MIB, page_bytes=2 * MIB
        )
        with pytest.raises(ConfigurationError):
            mapping.page_space(2)

    def test_empty_mapping(self):
        mapping = InterleavedMapping(0, 0, 2 * MIB)
        assert mapping.page_count == 0
        assert mapping.gpu_fraction == 0.0
        assert run_lengths(mapping) == []
