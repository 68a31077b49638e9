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
partition's table to fast memory.

A source also owns its pool transport: :meth:`ArraySource.descriptor`
and :meth:`ChunkedSource.descriptor` say what a worker needs to reach
the columns (shared-memory segment names, or shard directories), and
:func:`open_source` rebuilds the source from that inside the worker.
:func:`run_morsel` is the executor's one morsel body, inline or on a
worker; :func:`repro.exec.outofcore.join_morsels` drives the morsels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.data.chunked import ChunkedRelation
from repro.data.relation import Relation
from repro.hashing.batch import grouped_bucket_chaining_join
from repro.hashing.functions import hash_u64, radix_window
from repro.join import base
from repro.join.base import JoinMatch
from repro.kernels.scatter import counting_order_and_offsets

#: One morsel's functional outcome: (matches, key_checksum,
#: payload_checksum, rows_processed).
Partial = Tuple[int, int, int, int]


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


# -- shared memory --------------------------------------------------------------


def _attach(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without adopting its lifetime.

    Attaching registers the segment with the resource tracker, which
    would unlink the parent's segment when the worker exits
    (bpo-38119) — and under the fork start method the tracker is
    *shared* with the parent, so unregister-after-attach would strip
    the creator's own registration. Suppressing registration during
    the attach avoids both failure modes (Python 3.13's ``track=False``
    made this official; the worker is single-threaded here, so the
    temporary patch cannot race).
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class ShmBlock:
    """One shared-memory segment viewed as a numpy array.

    Without ``name`` it creates the segment and owns it (:meth:`close`
    unlinks it); with a :meth:`descriptor`'s ``name`` it attaches to the
    creator's segment and only unmaps it.
    """

    def __init__(
        self, rows: int, dtype: np.dtype, name: Optional[str] = None
    ) -> None:
        rows, dtype = int(rows), np.dtype(dtype)
        self.owner = name is None
        self.segment = (
            shared_memory.SharedMemory(
                create=True, size=max(1, rows * dtype.itemsize)
            )
            if self.owner
            else _attach(name)
        )
        self.array = np.ndarray(rows, dtype=dtype, buffer=self.segment.buf)

    def descriptor(self) -> Tuple[int, str, str]:
        """``ShmBlock(*descriptor)`` attaches to this segment."""
        return (len(self.array), self.array.dtype.str, self.segment.name)

    def close(self) -> None:
        self.array = None
        self.segment.close()
        if self.owner:
            try:
                self.segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


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
    ``blocks`` are the shared-memory segments behind the three columns
    when the source is pooled; :meth:`close` releases them.
    """

    build_keys: np.ndarray
    build_values: np.ndarray
    probe_keys: np.ndarray
    build_offsets: np.ndarray
    probe_offsets: np.ndarray
    blocks: Tuple[ShmBlock, ...] = ()

    @property
    def bits1(self) -> int:
        """The pass-1 radix bits the partitions were scattered by."""
        return (len(self.build_offsets) - 1).bit_length() - 1

    def sizes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-partition build and probe rows."""
        return np.diff(self.build_offsets), np.diff(self.probe_offsets)

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

    def descriptor(self) -> tuple:
        """The pool job's view of this source: its segments and offsets."""
        if not self.blocks:
            raise ValueError("only a shared-memory source can be pooled")
        return (
            "shm",
            tuple(block.descriptor() for block in self.blocks),
            self.build_offsets,
            self.probe_offsets,
        )

    def close(self) -> None:
        for block in self.blocks:
            block.close()


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

    @property
    def build_value_column(self) -> str:
        """The build side's first payload column, or its keys without one."""
        return next((c for c in self.build.columns if c != "key"), "key")

    @property
    def bits1(self) -> int:
        """The spill's radix bits (0 for a single all-rows partition)."""
        return self.build.bits

    def sizes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-partition build and probe rows."""
        return self.build.partition_sizes(), self.probe.partition_sizes()

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

    def descriptor(self) -> tuple:
        """The pool job's view of this source: its two shard directories."""
        directories = (self.build.directory, self.probe.directory)
        return ("chunked", *map(str, directories))

    def close(self) -> None:
        self.build.close()
        self.probe.close()


def open_source(descriptor: tuple):
    """Rebuild a source from its ``descriptor()`` inside a pool worker.

    The source attaches to the parent's segments or opens the shard
    files; its ``close`` unmaps or closes them and leaves them in place.
    """
    kind, *fields = descriptor
    if kind == "chunked":
        return ChunkedSource(*map(ChunkedRelation, fields))
    blocks, build_offsets, probe_offsets = fields
    blocks = tuple(ShmBlock(*block) for block in blocks)
    return ArraySource(
        *(block.array for block in blocks),
        build_offsets=build_offsets,
        probe_offsets=probe_offsets,
        blocks=blocks,
    )


# -- in-memory partition state --------------------------------------------------


def partition_state(
    build: Relation, probe: Relation, bits1: int, shared: bool = False
) -> ArraySource:
    """One partitioning pass producing a morsel-ready :class:`ArraySource`.

    Hash once and counting-scatter by the ``bits1`` window once per
    relation: the scatter writes the build key and value columns (one
    call) and the probe keys (another) straight into partition-major
    order, with no order array or gather. ``shared`` scatters straight
    into shared-memory segments the source owns, which pool workers
    attach to with no extra copy or pickling.
    """
    fanout = 1 << bits1
    blocks: List[ShmBlock] = []

    def allocate(rows, dtype):
        if not shared:
            return np.empty(rows, dtype=dtype)
        blocks.append(ShmBlock(rows, dtype))
        return blocks[-1].array

    def scatter(relation, columns):
        selector = radix_window(hash_u64(relation.keys), bits1)
        out = [allocate(len(relation), column.dtype) for column in columns]
        return counting_order_and_offsets(
            selector, fanout, columns=columns, out=out
        )

    try:
        (build_keys, build_values), build_offsets = scatter(
            build, (build.keys, base.build_payload_column(build))
        )
        (probe_keys,), probe_offsets = scatter(probe, (probe.keys,))
    except BaseException:
        for block in blocks:
            block.close()
        raise
    return ArraySource(
        build_keys=build_keys,
        build_values=build_values,
        probe_keys=probe_keys,
        build_offsets=build_offsets,
        probe_offsets=probe_offsets,
        blocks=tuple(blocks),
    )


def plan_source(
    source,
    morsel_rows: int,
    histogram: Optional[np.ndarray] = None,
    max_partitions: Optional[int] = None,
) -> List[Morsel]:
    """:func:`plan_morsels` over ``source``'s partitions; ``histogram``,
    if given, receives the pass-1 partition sizes (build + probe)."""
    build_sizes, probe_sizes = source.sizes()
    if histogram is not None:
        np.add(build_sizes, probe_sizes, out=histogram)
    return plan_morsels(build_sizes, probe_sizes, morsel_rows, max_partitions)


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


def run_morsel(source, morsel: Morsel, **attrs) -> Partial:
    """The executor's morsel body, inline or on a pool worker.

    Opens the ``morsel[i]`` span (``attrs`` add to its ``rows``), times
    the kernel into ``exec.morsel_seconds`` and counts ``exec.morsels``
    and ``exec.morsel_rows``, so a query's telemetry does not depend on
    where its morsels ran.
    """
    started = time.perf_counter()
    with telemetry.span(f"morsel[{morsel.index}]", rows=morsel.rows, **attrs):
        partial = execute_morsel(source, morsel)
    telemetry.registry.observe(
        "exec.morsel_seconds", time.perf_counter() - started
    )
    telemetry.registry.count("exec.morsels")
    telemetry.registry.count("exec.morsel_rows", partial[3])
    return partial


def merge_partials(partials: Iterable[Partial]) -> JoinMatch:
    """Fold per-morsel partials into the exact whole-join summary."""
    match = base.NO_MATCH
    for m, kcs, pcs, _rows in partials:
        match = base.merge_matches(match, JoinMatch(m, kcs, pcs))
    return match
