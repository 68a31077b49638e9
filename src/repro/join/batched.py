"""Batched functional execution of partitioned joins.

The join operators' reference paths loop over radix partitions in
Python: partition, then per partition (optionally) re-partition and
build/probe a scratchpad hash table. At 2**12-2**14 partitions this
dispatch overhead dominates the functional layer's wall-clock — the
co-processing pitfall the paper's bulk GPU kernels avoid by design.

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
   probe table's floor (:func:`~repro.exec.morsel.serial_join`);
3. each morsel is one grouped build/probe (:func:`~repro.hashing.batch.
   grouped_bucket_chaining_join`) over that morsel's small slot space,
   and the per-morsel summaries merge exactly into the
   :class:`~repro.join.base.JoinMatch`.

The summary is order-independent, so the second pass's ``bits2``
subdivision (which only reorders rows inside a partition) changes
nothing and is skipped. :func:`batched_radix_join_arrays` keeps the
ordered-pairs form — one stable sort by the composite ``(pass-1,
pass-2)`` window and one grouped join over the whole relation — whose
pairs are byte-identical, in identical order, to the per-partition
reference loops; tests cross-check both functions against it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import telemetry
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.hashing.batch import DEFAULT_BUCKETS, grouped_bucket_chaining_join
from repro.hashing.functions import hash_u64, radix_window
from repro.join import base
from repro.kernels.scatter import counting_order
from repro.partition.radix import radix_histogram

_EMPTY = np.empty(0, dtype=np.int64)


def _validate_bits(bits1: int, bits2: int) -> None:
    if bits1 <= 0:
        raise ConfigurationError("bits1 must be positive")
    if bits2 < 0:
        raise ConfigurationError("bits2 cannot be negative")


def _composite_order(
    hashed: np.ndarray, bits1: int, bits2: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Partitioned order and pass-1 group ids for one relation.

    Returns ``(order, groups)``: the stable permutation equivalent to
    partitioning by ``bits1`` low hash bits then, within each partition,
    by the next ``bits2`` bits — and each reordered row's pass-1
    partition id (non-decreasing).
    """
    selector1 = radix_window(hashed, bits1, 0)
    if bits2 > 0:
        selector2 = radix_window(hashed, bits2, bits1)
        composite = (selector1 << np.int64(bits2)) | selector2
    else:
        composite = selector1
    # Composite selectors are dense in [0, 2**(bits1 + bits2)): the
    # counting kernel orders them in linear time (argsort at oversized
    # radix windows — identical output either way).
    order = counting_order(composite, 1 << (bits1 + bits2))
    return order, selector1[order]


def batched_radix_join_arrays(
    build: Relation,
    probe: Relation,
    bits1: int,
    bits2: int = 0,
    buckets: int = DEFAULT_BUCKETS,
) -> Tuple[np.ndarray, np.ndarray]:
    """The join's matched ``(probe_keys, build_values)`` arrays, in order.

    Byte-identical to concatenating the reference loop's per-partition
    outputs (tests assert this element-wise). This is the ordered-pairs
    reference the summary path is checked against; no operator runs it.
    """
    _validate_bits(bits1, bits2)
    if len(build) == 0 or len(probe) == 0:
        return _EMPTY, _EMPTY
    build_hashes = hash_u64(build.keys)
    probe_hashes = hash_u64(probe.keys)
    build_order, build_groups = _composite_order(build_hashes, bits1, bits2)
    probe_order, probe_groups = _composite_order(probe_hashes, bits1, bits2)

    probe_keys = probe.keys[probe_order]
    idx, values = grouped_bucket_chaining_join(
        build.keys[build_order],
        base.build_payload_column(build)[build_order],
        build_groups,
        probe_keys,
        probe_groups,
        buckets=buckets,
        build_hashes=build_hashes[build_order],
        probe_hashes=probe_hashes[probe_order],
    )
    return probe_keys[idx], values


def batched_radix_join(
    build: Relation,
    probe: Relation,
    bits1: int,
    bits2: int = 0,
    buckets: int = DEFAULT_BUCKETS,
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
    identical match summary. The reference per-partition loops and
    :func:`batched_radix_join_arrays` never divert, so cross-checks
    always compare against a plain in-memory execution.
    """
    # Deferred imports: repro.exec sits above the join layer (it reuses
    # JoinMatch and the grouped kernels); importing it lazily keeps the
    # layering acyclic.
    from repro.exec import context as exec_context

    if exec_context.should_go_out_of_core(build, probe):
        from repro.exec.outofcore import out_of_core_join

        return out_of_core_join(
            build, probe, bits1, bits2, buckets, histogram=histogram
        )
    _validate_bits(bits1, bits2)
    if len(build) == 0 or len(probe) == 0:
        if histogram is not None:
            np.add(
                radix_histogram(build.keys, bits1),
                radix_histogram(probe.keys, bits1),
                out=histogram,
            )
        return base.JoinMatch(matches=0, key_checksum=0, payload_checksum=0)
    from repro.exec.morsel import serial_join

    with telemetry.span(
        "batched_radix_join",
        build=len(build),
        probe=len(probe),
        bits1=bits1,
        bits2=bits2,
    ):
        return serial_join(
            build,
            probe,
            bits1,
            exec_context.DEFAULT_MORSEL_ROWS,
            buckets,
            histogram,
        )
