"""Functional radix partitioning primitives.

All partitioning algorithms in this library produce the same logical
result: tuples grouped by a window of their hashed key bits, stably
ordered within each partition. This module implements that shared
functional core (histogram, stable scatter, flush counting) on numpy;
the per-algorithm modules add the hardware work profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import telemetry
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.hashing.functions import hash_u64, radix_window
from repro.kernels.scatter import counting_order_and_offsets


def radix_histogram(
    keys: np.ndarray,
    bits: int,
    offset: int = 0,
    hashed: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Tuple counts per radix partition (the prefix-sum input)."""
    if hashed is None:
        hashed = hash_u64(keys)
    selector = radix_window(hashed, bits, offset)
    return np.bincount(selector, minlength=1 << bits).astype(np.int64)


@dataclass(frozen=True)
class PartitionedRelation:
    """A relation reordered into radix partitions.

    ``offsets`` has ``fanout + 1`` entries; partition ``i`` occupies rows
    ``offsets[i]:offsets[i + 1]`` of ``relation``. ``hashed`` carries the
    rows' multiply-shift hashes in partitioned order, so a later pass
    (or the join's bucket selection) can reuse them instead of
    re-hashing the same keys.
    """

    relation: Relation
    offsets: np.ndarray
    bits: int
    offset_bits: int
    hashed: Optional[np.ndarray] = None

    def partition_hashes(self, index: int) -> Optional[np.ndarray]:
        """Partition ``index``'s rows' hashes (``None`` if not carried)."""
        if self.hashed is None:
            return None
        rows = self.partition_rows(index)
        return self.hashed[rows.start:rows.stop]

    @property
    def fanout(self) -> int:
        return 1 << self.bits

    def partition_rows(self, index: int) -> slice:
        if not 0 <= index < self.fanout:
            raise ConfigurationError(
                f"partition index {index} out of range [0, {self.fanout})"
            )
        return slice(int(self.offsets[index]), int(self.offsets[index + 1]))

    def partition(self, index: int) -> Relation:
        """Materialize partition ``index`` as its own relation."""
        rows = self.partition_rows(index)
        return self.relation.take(
            np.arange(rows.start, rows.stop),
            name=f"{self.relation.name}[{index}]",
        )

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)


def partition_relation(
    relation: Relation,
    bits: int,
    offset: int = 0,
    hashed: Optional[np.ndarray] = None,
) -> PartitionedRelation:
    """Stable radix partition of a relation by hashed key bits.

    Equivalent to what every hardware algorithm computes: a histogram
    pass, an exclusive prefix sum for partition offsets, and a stable
    scatter of tuples to their partition's region. ``hashed`` takes the
    rows' precomputed multiply-shift hashes (from an earlier pass or
    :func:`~repro.hashing.functions.hash_u64`); the result carries the
    permuted hashes for the next pass either way.
    """
    if bits <= 0:
        raise ConfigurationError("bits must be positive")
    with telemetry.span(
        "partition_relation",
        tuples=len(relation),
        bits=bits,
        offset=offset,
        fanout=1 << bits,
        rehash=hashed is None,
    ):
        if hashed is None:
            hashed = hash_u64(relation.keys)
        selector = radix_window(hashed, bits, offset)
        # Histogram + exclusive scan + stable scatter — the counting
        # kernel computes the partition order and the offsets in one
        # linear pass.
        order, offsets = counting_order_and_offsets(selector, 1 << bits)
        return PartitionedRelation(
            relation=relation.take(order),
            offsets=offsets,
            bits=bits,
            offset_bits=offset,
            hashed=hashed[order],
        )


def count_flushes(counts: np.ndarray, buffer_tuples: int) -> int:
    """Buffer flushes a SWWC partitioner performs for given partition sizes.

    Each partition's buffer of ``buffer_tuples`` slots flushes once per
    filling plus one final partial flush for a non-empty remainder. Used
    to cross-check the analytic flush estimates against functional runs.
    """
    if buffer_tuples <= 0:
        raise ConfigurationError("buffer_tuples must be positive")
    counts = np.asarray(counts)
    full = counts // buffer_tuples
    partial = (counts % buffer_tuples) > 0
    return int(full.sum() + partial.sum())
