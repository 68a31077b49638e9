"""Property-based tests: interleaved cache mapping invariants (Fig. 12)."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.memory import InterleavedMapping
from repro.hw.tlb import MemSpace

PAGE = 2 * 1024 * 1024


@st.composite
def mappings(draw):
    pages = draw(st.integers(min_value=1, max_value=2000))
    gpu_pages = draw(st.integers(min_value=0, max_value=pages))
    return InterleavedMapping(
        total_bytes=pages * PAGE, gpu_bytes=gpu_pages * PAGE, page_bytes=PAGE
    )


@given(mappings())
@settings(max_examples=80, deadline=None)
def test_gpu_page_count_matches_fraction(mapping):
    gpu_pages = sum(
        1 for _, space in mapping.iter_pages() if space is MemSpace.GPU
    )
    expected = mapping.gpu_bytes // PAGE
    assert abs(gpu_pages - expected) <= 1


@given(mappings())
@settings(max_examples=80, deadline=None)
def test_interleaving_spreads_pages_evenly(mapping):
    """Error diffusion: no same-space run exceeds ceil(ratio) + 1."""
    f = mapping.gpu_fraction
    if f in (0.0, 1.0):
        return
    runs = [
        (space, len(list(run)))
        for space, run in itertools.groupby(
            space for _, space in mapping.iter_pages()
        )
    ]
    max_cpu_run = max(
        (n for space, n in runs if space is MemSpace.CPU), default=0
    )
    max_gpu_run = max(
        (n for space, n in runs if space is MemSpace.GPU), default=0
    )
    assert max_cpu_run <= (1.0 - f) / f + 2
    assert max_gpu_run <= f / (1.0 - f) + 2
