"""Functional partitioned joins: the batched path and its reference.

:func:`reference_radix_join` is the join as the paper states it, and
the one reference every other functional path is checked against:
partition, then per partition (optionally) re-partition and
build/probe a scratchpad hash table, in a Python loop. At 2**12-2**14
partitions this dispatch overhead dominates the functional layer's
wall-clock — the co-processing pitfall the paper's bulk GPU kernels
avoid by design.

:func:`batched_radix_join` runs the same join the way the paper's
Triton join does: partition once, then join cache-sized pieces.

1. one counting partition pass over the ``bits1`` window scatters the
   build keys and values, and the probe keys, partition-major
   (:func:`~repro.exec.morsel.partition_state`; the scatter moves the
   columns itself, with no order array or gather), and its offsets are
   the pass-1 histogram the caller may take back (``histogram=``);
2. contiguous partition ranges are packed into morsels of
   :data:`~repro.exec.context.DEFAULT_MORSEL_ROWS` rows — fewer
   partitions when that keeps a morsel's slot space within the dense
   probe table's floor (:func:`_dense_span`);
3. each morsel is one grouped build/probe (:func:`~repro.hashing.batch.
   grouped_bucket_chaining_join`) over that morsel's small slot space,
   and the morsel executor (:func:`~repro.exec.outofcore.join_morsels`)
   merges the per-morsel summaries exactly into the
   :class:`~repro.join.base.JoinMatch`.

The summary is order-independent, so the second pass's ``bits2``
subdivision (which only reorders rows inside a partition) changes
nothing and is skipped. Tests check the summary and the pass-1
histogram against :func:`reference_radix_join`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import telemetry
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.hashing.batch import DEFAULT_BUCKETS
from repro.hashing.bucket_chaining import BucketChainingTable
from repro.join import base, run_cache
from repro.kernels.scatter import DENSE_FLOOR_ENTRIES
from repro.partition.radix import partition_relation, radix_histogram

_EMPTY = np.empty(0, dtype=np.int64)

#: Fewest rows a partition-capped in-memory morsel may hold on average
#: (see :func:`_dense_span`); below it, per-morsel dispatch costs more
#: than the dense probe saves.
MIN_DENSE_MORSEL_ROWS = 4096


def _dense_span(rows: int, bits1: int) -> Optional[int]:
    """The in-memory join's cap on partitions per morsel, if any.

    At most ``span`` partitions' full-size (paper geometry) tables fit
    under the kernels' dense-offsets floor, so a morsel that narrow
    probes by O(1) lookups whatever its rows. Sparse partitions keep the
    row target alone: capped morsels would be too small to amortize
    their dispatch.
    """
    span = max(1, (DENSE_FLOOR_ENTRIES - 1) // DEFAULT_BUCKETS)
    if span * rows / (1 << bits1) >= MIN_DENSE_MORSEL_ROWS:
        return span
    return None


def _validate_bits(bits1: int, bits2: int) -> None:
    if bits1 <= 0:
        raise ConfigurationError("bits1 must be positive")
    if bits2 < 0:
        raise ConfigurationError("bits2 cannot be negative")


def reference_radix_join(
    build: Relation,
    probe: Relation,
    bits1: int,
    bits2: int = 0,
    buckets: int = DEFAULT_BUCKETS,
    histogram: Optional[np.ndarray] = None,
) -> base.JoinMatch:
    """The partitioned join, one radix partition at a time.

    Partitions both relations by ``bits1`` hash bits; then, for every
    partition both sides populate, a second pass by ``bits2`` bits at
    offset ``bits1`` (reusing the carried hashes) and one
    :class:`~repro.hashing.bucket_chaining.BucketChainingTable` built and
    probed. Arguments and result are those of
    :func:`batched_radix_join`, which must match it; the operators'
    ``reference=True`` mode runs it, and it never diverts out of core.
    """
    _validate_bits(bits1, bits2)
    build_parts = partition_relation(build, bits1)
    probe_parts = partition_relation(probe, bits1)
    build_sizes, probe_sizes = build_parts.sizes(), probe_parts.sizes()
    if histogram is not None:
        np.add(build_sizes, probe_sizes, out=histogram)
    probe_keys, payloads = [_EMPTY], [_EMPTY]
    both = (build_sizes > 0) & (probe_sizes > 0)
    for index in np.flatnonzero(both).tolist():
        build_i = build_parts.partition(index)
        probe_i = probe_parts.partition(index)
        build_hashes = build_parts.partition_hashes(index)
        probe_hashes = probe_parts.partition_hashes(index)
        if bits2 > 0:
            build_2 = partition_relation(build_i, bits2, bits1, build_hashes)
            probe_2 = partition_relation(probe_i, bits2, bits1, probe_hashes)
            build_i, build_hashes = build_2.relation, build_2.hashed
            probe_i, probe_hashes = probe_2.relation, probe_2.hashed
        table = BucketChainingTable(
            build_i.keys,
            base.build_payload_column(build_i),
            buckets=buckets,
            hashes=build_hashes,
        )
        idx, values = table.probe(probe_i.keys, hashes=probe_hashes)
        probe_keys.append(probe_i.keys[idx])
        payloads.append(values)
    return base.JoinMatch.from_arrays(
        np.concatenate(probe_keys), np.concatenate(payloads)
    )


def batched_radix_join(
    build: Relation,
    probe: Relation,
    bits1: int,
    bits2: int = 0,
    histogram: Optional[np.ndarray] = None,
) -> base.JoinMatch:
    """One- or two-pass partitioned join, executed as serial morsels.

    Drop-in replacement for the operators' per-partition functional
    loops: ``bits1`` is the first (or only) pass's radix window, ``bits2``
    the second pass's window at offset ``bits1`` (validated, but it
    cannot change the summary, so it is not executed). ``histogram``, a
    ``1 << bits1`` int64 array, receives the pass-1 partition sizes of
    both relations summed — the counts the partitioning pass already
    has, so a cost model need not histogram the relations again
    (:meth:`repro.join.triton.TritonJoin.build_graph`).

    This is the functional layer's single choke point, so the ambient
    out-of-core config (:mod:`repro.exec.context`) is consulted here:
    when a host-memory budget is exceeded (or ``force`` is set), the
    join runs through :func:`repro.exec.outofcore.out_of_core_join` —
    spilled radix shards and/or the morsel worker pool — and returns the
    identical match summary. :func:`reference_radix_join` never
    diverts, so cross-checks always compare against a plain in-memory
    execution. While the run cache is on, a join of the very arrays it
    has already joined is served from its match memo
    (:func:`repro.join.run_cache.memoized_match`).
    """
    # Deferred imports: repro.exec sits above the join layer (it reuses
    # JoinMatch and the grouped kernels); importing it lazily keeps the
    # layering acyclic.
    from repro.exec import context as exec_context

    if exec_context.should_go_out_of_core(build, probe):
        from repro.exec.outofcore import out_of_core_join

        return out_of_core_join(build, probe, bits1, histogram=histogram)
    _validate_bits(bits1, bits2)
    if len(build) == 0 or len(probe) == 0:
        if histogram is not None:
            np.add(
                radix_histogram(build.keys, bits1),
                radix_histogram(probe.keys, bits1),
                out=histogram,
            )
        return base.NO_MATCH
    from repro.exec.morsel import partition_state, plan_source
    from repro.exec.outofcore import join_morsels

    def join(histogram):
        source = partition_state(build, probe, bits1)
        morsels = plan_source(
            source,
            exec_context.DEFAULT_MORSEL_ROWS,
            histogram,
            _dense_span(len(build) + len(probe), bits1),
        )
        return join_morsels(source, morsels)[0]

    with telemetry.span(
        "batched_radix_join",
        build=len(build),
        probe=len(probe),
        bits1=bits1,
        bits2=bits2,
    ):
        # The three arrays the kernels read: joins that differ only in
        # what they simulate share them, and run once per cache lifetime.
        arrays = (build.keys, base.build_payload_column(build), probe.keys)
        return run_cache.memoized_match(arrays, bits1, histogram, join)
