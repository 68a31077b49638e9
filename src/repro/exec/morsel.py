"""Morsel planning and execution over the grouped join kernels.

A **morsel** is a contiguous range of radix partitions whose combined
build + probe rows approximate the configured ``morsel_rows``. Because
both relations are laid out partition-major (in memory by
:func:`partition_state`, on disk by the spill shards), a morsel's rows
are contiguous slices — zero-copy views in shared memory, one
positional read per shard and column on disk — and hash partitions are
disjoint, so per-morsel :class:`~repro.join.base.JoinMatch` summaries
merge exactly through :func:`repro.join.base.merge_matches` (the
checksums are order-independent modular sums): the merged summary
equals that of the per-partition reference loop
(:func:`repro.join.batched.reference_radix_join`).

Each morsel runs :func:`~repro.hashing.batch.grouped_bucket_chaining_
join` with the partition ids **rebased** to the morsel's range, and
the source's pass-1 radix bits, above which the kernel reads each row's
bucket (the window pass 2 would read, section 5.1). The
grouped kernel's slot domain is ``groups × b``, with ``groups =
max_group + 1`` and ``b`` buckets per group sized from the morsel's
build rows; absolute partition ids would bill every morsel for the
whole fanout's slot space, rebasing keeps it proportional to the
morsel — a cache-sized table per call, the way the paper sizes each
partition's table to fast memory. :func:`serial_join` runs this loop
in-process; it is the plain in-memory join behind
:func:`repro.join.batched.batched_radix_join`, and the out-of-core
executor runs the same morsels serially, off disk, or across the
worker pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.data.chunked import ChunkedRelation
from repro.data.relation import Relation
from repro.hashing.batch import DEFAULT_BUCKETS, grouped_bucket_chaining_join
from repro.hashing.functions import hash_u64, radix_window
from repro.join import base
from repro.join.base import JoinMatch
from repro.kernels.scatter import (
    DENSE_FLOOR_ENTRIES,
    counting_order_and_offsets,
)

#: Fewest rows a partition-capped in-memory morsel may hold on average
#: (see :func:`serial_join`); below it, per-morsel dispatch costs more
#: than the dense probe saves.
MIN_DENSE_MORSEL_ROWS = 4096

#: One morsel's functional outcome: (matches, key_checksum,
#: payload_checksum, rows_processed).
Partial = Tuple[int, int, int, int]

EMPTY_PARTIAL: Partial = (0, 0, 0, 0)


@dataclass(frozen=True)
class Morsel:
    """A contiguous partition range ``[lo, hi)`` of both relations."""

    index: int
    lo: int
    hi: int
    rows: int  # combined build + probe rows (scheduling weight)


def plan_morsels(
    build_sizes: np.ndarray,
    probe_sizes: np.ndarray,
    morsel_rows: int,
    max_partitions: Optional[int] = None,
) -> List[Morsel]:
    """Cut the partition range into morsels of ~``morsel_rows`` rows.

    Greedy contiguous packing: partitions are appended until the
    combined build + probe rows reach the target (or the morsel spans
    ``max_partitions`` partitions); a single partition larger than the
    target becomes its own morsel (hash skew cannot be split without
    breaking the per-partition hash tables). Each cut is one binary
    search over the running row total, so planning costs
    O(morsels log partitions), not a Python step per partition.
    """
    totals = np.cumsum(
        np.asarray(build_sizes, dtype=np.int64)
        + np.asarray(probe_sizes, dtype=np.int64)
    )
    partitions = len(totals)
    morsels: List[Morsel] = []
    lo = 0
    base = 0  # rows before partition ``lo``
    while lo < partitions:
        # First partition whose running total reaches the target; sizes
        # are non-negative, so it is never left of ``lo`` (the clamp
        # covers a non-positive target, which closes every partition).
        cut = max(
            int(np.searchsorted(totals, base + morsel_rows, side="left")), lo
        )
        if max_partitions is not None:
            cut = min(cut, lo + max_partitions - 1)
        hi = min(cut + 1, partitions)
        end = int(totals[hi - 1])
        morsels.append(Morsel(len(morsels), lo, hi, end - base))
        lo, base = hi, end
    return morsels


# -- sources --------------------------------------------------------------------


def _range_groups(offsets: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Partition ids of the rows of partitions ``[lo, hi)``, rebased to 0."""
    return np.repeat(
        np.arange(hi - lo, dtype=np.int64), np.diff(offsets[lo : hi + 1])
    )


@dataclass
class ArraySource:
    """Partition-major arrays in memory (heap or shared memory).

    Only the three columns a join reads are held: build keys, build
    values and probe keys, as :func:`partition_state`'s counting scatter
    wrote them. ``build_offsets`` / ``probe_offsets`` are the
    ``fanout + 1`` partition offset tables; a morsel's rows are the
    contiguous slices ``[offsets[lo], offsets[hi])`` — views, never
    copies. Group ids and hashes are recomputed per morsel, as
    :class:`ChunkedSource` does: rehashing a morsel's keys while they
    are cache-resident is cheaper than scattering (and, for the pool,
    shipping) more full columns — one scatter call moves at most two.
    """

    build_keys: np.ndarray
    build_values: np.ndarray
    probe_keys: np.ndarray
    build_offsets: np.ndarray
    probe_offsets: np.ndarray

    @property
    def bits1(self) -> int:
        """The pass-1 radix bits the partitions were scattered by."""
        return (len(self.build_offsets) - 1).bit_length() - 1

    def load(self, morsel: Morsel):
        lo, hi = morsel.lo, morsel.hi
        bs, be = int(self.build_offsets[lo]), int(self.build_offsets[hi])
        ps, pe = int(self.probe_offsets[lo]), int(self.probe_offsets[hi])
        build_keys = self.build_keys[bs:be]
        probe_keys = self.probe_keys[ps:pe]
        return (
            build_keys,
            self.build_values[bs:be],
            _range_groups(self.build_offsets, lo, hi),
            hash_u64(build_keys),
            probe_keys,
            _range_groups(self.probe_offsets, lo, hi),
            hash_u64(probe_keys),
        )


@dataclass
class ChunkedSource:
    """Spilled relations: each morsel reads its partition range of
    every shard straight off the column files.

    Hashes are recomputed per morsel — rehashing a morsel's keys is
    cheaper than shipping a second 8-byte column through disk. The
    relations keep their files open across morsels; :meth:`close`
    releases them.
    """

    build: ChunkedRelation
    probe: ChunkedRelation
    build_value_column: str

    @property
    def bits1(self) -> int:
        """The spill's radix bits (0 for a single all-rows partition)."""
        return self.build.bits

    def load(self, morsel: Morsel):
        lo, hi = morsel.lo, morsel.hi
        build_keys = self.build.partition_range_column("key", lo, hi)
        probe_keys = self.probe.partition_range_column("key", lo, hi)
        offset = np.int64(lo)
        return (
            build_keys,
            self.build.partition_range_column(
                self.build_value_column, lo, hi
            ),
            self.build.partition_range_groups(lo, hi) - offset,
            hash_u64(build_keys),
            probe_keys,
            self.probe.partition_range_groups(lo, hi) - offset,
            hash_u64(probe_keys),
        )

    def close(self) -> None:
        self.build.close()
        self.probe.close()


def chunked_source(
    build: ChunkedRelation, probe: ChunkedRelation
) -> ChunkedSource:
    """Two spilled relations as one join source (the build side's
    first payload column, or its keys when it has none, is the value)."""
    value_column = next((c for c in build.columns if c != "key"), "key")
    return ChunkedSource(
        build=build, probe=probe, build_value_column=value_column
    )


def open_chunked_source(build_dir: str, probe_dir: str) -> ChunkedSource:
    """Attach to two spilled relation directories as one join source."""
    return chunked_source(
        ChunkedRelation(build_dir), ChunkedRelation(probe_dir)
    )


# -- in-memory partition state --------------------------------------------------


def partition_state(
    build: Relation,
    probe: Relation,
    bits1: int,
    allocate: Optional[Callable[[str, int, np.dtype], np.ndarray]] = None,
) -> ArraySource:
    """One partitioning pass producing a morsel-ready :class:`ArraySource`.

    Hash once and counting-scatter by the ``bits1`` window once per
    relation: the scatter writes the build key and value columns (one
    call) and the probe keys (another) straight into partition-major
    order, with no order array or gather. ``allocate(name, rows,
    dtype)`` supplies the destination arrays — the pool path hands in
    shared-memory-backed arrays so the scatter writes straight into the
    segments workers attach to, with no extra copy or pickling.
    """
    fanout = 1 << bits1
    if allocate is None:
        def allocate(name, rows, dtype):
            return np.empty(rows, dtype=dtype)

    def scatter(relation, names, columns):
        selector = radix_window(hash_u64(relation.keys), bits1)
        out = [
            allocate(name, len(relation), column.dtype)
            for name, column in zip(names, columns)
        ]
        return counting_order_and_offsets(
            selector, fanout, columns=columns, out=out
        )

    (build_keys, build_values), build_offsets = scatter(
        build, ("bk", "bv"), (build.keys, base.build_payload_column(build))
    )
    (probe_keys,), probe_offsets = scatter(probe, ("pk",), (probe.keys,))
    return ArraySource(
        build_keys=build_keys,
        build_values=build_values,
        probe_keys=probe_keys,
        build_offsets=build_offsets,
        probe_offsets=probe_offsets,
    )


# -- execution ------------------------------------------------------------------


def execute_morsel(source, morsel: Morsel) -> Partial:
    """Join one morsel; returns its mergeable partial summary."""
    bk, bv, bg, bh, pk, pg, ph = source.load(morsel)
    rows = len(bk) + len(pk)
    if len(bk) == 0 or len(pk) == 0:
        return (0, 0, 0, rows)
    idx, values = grouped_bucket_chaining_join(
        bk,
        bv,
        bg,
        pk,
        pg,
        build_hashes=bh,
        probe_hashes=ph,
        bits1=source.bits1,
    )
    part = JoinMatch.from_arrays(pk[idx], values)
    return (part.matches, part.key_checksum, part.payload_checksum, rows)


def merge_partials(partials: Iterable[Partial]) -> JoinMatch:
    """Fold per-morsel partials into the exact whole-join summary."""
    match = base.NO_MATCH
    for m, kcs, pcs, _rows in partials:
        match = base.merge_matches(match, JoinMatch(m, kcs, pcs))
    return match


def fill_histogram(
    histogram: Optional[np.ndarray],
    build_sizes: np.ndarray,
    probe_sizes: np.ndarray,
) -> None:
    """Write the pass-1 histogram (build + probe sizes) if one is asked for."""
    if histogram is not None:
        np.add(build_sizes, probe_sizes, out=histogram)


def serial_join(
    build: Relation,
    probe: Relation,
    bits1: int,
    morsel_rows: int,
    histogram: Optional[np.ndarray] = None,
) -> JoinMatch:
    """The in-memory join: one partitioning pass, then serial morsels.

    ``histogram`` receives the pass-1 partition sizes (see
    :func:`fill_histogram`). Uninstrumented on purpose — the ``exec.*``
    counters describe the out-of-core executor, and this is every plain
    in-memory join.
    """
    source = partition_state(build, probe, bits1)
    build_sizes = np.diff(source.build_offsets)
    probe_sizes = np.diff(source.probe_offsets)
    fill_histogram(histogram, build_sizes, probe_sizes)
    # At most ``dense_span`` partitions' full-size (paper geometry)
    # tables fit under the kernels' dense-offsets floor, so a morsel
    # that narrow probes by O(1) lookups whatever its rows. Sparse
    # partitions keep the row target alone: capped morsels would be too
    # small to amortize their dispatch.
    dense_span = max(1, (DENSE_FLOOR_ENTRIES - 1) // DEFAULT_BUCKETS)
    rows_per_partition = (len(build) + len(probe)) / len(build_sizes)
    morsels = plan_morsels(
        build_sizes,
        probe_sizes,
        morsel_rows,
        max_partitions=(
            dense_span
            if dense_span * rows_per_partition >= MIN_DENSE_MORSEL_ROWS
            else None
        ),
    )
    return merge_partials(execute_morsel(source, morsel) for morsel in morsels)


def run_serial(source, morsels: List[Morsel]) -> List[Partial]:
    """Execute every morsel in-process, in order."""
    partials = []
    for morsel in morsels:
        started = time.perf_counter()
        partials.append(execute_morsel(source, morsel))
        telemetry.registry.observe(
            "exec.morsel_seconds", time.perf_counter() - started
        )
        telemetry.registry.count("exec.morsels")
        telemetry.registry.count("exec.morsel_rows", partials[-1][3])
    return partials
