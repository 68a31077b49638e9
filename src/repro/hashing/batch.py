"""Grouped (batched) partition-wise hash-join kernels.

The partitioned joins conceptually build one scratchpad hash table per
partition and probe it — which the functional layer used to execute as a
Python loop over thousands of tiny tables. This module runs the *same*
logical computation for every partition at once, as a constant number of
vectorized numpy passes, mirroring how the GPU executes all partitions
as one bulk kernel launch. :func:`grouped_bucket_chaining_join`
concatenates every partition's chaining table into a single slot space
of ``groups × b`` slots keyed by ``(group, bucket)``, builds it with one
linear counting scatter (:mod:`repro.kernels.scatter`), and probes
every partition with one range expansion — identical pairs, in
identical order, to a per-partition :class:`~repro.hashing.
bucket_chaining.BucketChainingTable` loop. The paper's scratchpad
holds 2048 buckets per partition; at the functional layer's scaled-down
row counts ``b`` is sized from the build rows instead (the largest power
of two up to the requested count that keeps ``groups × b`` within the
counting scatter's crossover).

The bucket is the hash window pass 2 of the radix join would read
(section 5.1): the ``log2(b)`` bits just above the ``bits1`` bits pass 1
partitioned on. Multiply-shift by an odd constant is a bijection modulo
``2**(bits1 + log2(b))``, so within one pass-1 partition that window is
a bijection of the key's next ``log2(b)`` bits — dense keys never share
a bucket, and random keys spread as before. (The top bits of the
product, which a lone :class:`~repro.hashing.bucket_chaining.
BucketChainingTable` uses, pair dense keys up within a partition.)
Neither the bucket count nor the window can change the output: equal
keys share a bucket under every selector, and a probe's matches are the
build rows of its group with an equal key, in stable build order.
``reference=True``, :func:`~repro.kernels.scatter.force_reference`, a
window past bit 63, the comparison-sort path, and callers that do not
pass ``bits1`` keep the top bits.

Probes index a dense per-``(group, bucket)`` offsets table directly
(O(1) per probe) while that table is no larger than the build side
(:func:`~repro.kernels.scatter.dense_table_fits`) or falls out of the
counting scatter for free (:func:`~repro.kernels.scatter.
counting_offsets_free`); past that they fall back to a binary search
against the sorted build, and at extreme fanouts the build ordering
itself falls back to a stable argsort — all three paths produce
byte-identical output, and ``reference=True`` forces the original
argsort + ``searchsorted`` path for cross-checks.

Group ids must be *non-decreasing* (partition-major order, which is how
partitioned relations are laid out) for the outputs to be ordered
exactly like the reference loops; the matched pairs themselves are
correct for any grouping.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.hashing.functions import bucket_of, hash_u64, radix_window
from repro.kernels.scatter import (
    COUNTING_DOMAIN_FACTOR,
    counting_offsets_free,
    counting_order,
    counting_order_and_offsets,
    dense_table_fits,
    reference_mode_active,
)

#: Composite slot spaces must stay clear of int64; beyond this the
#: kernels use comparison sorts on the raw slot values.
_MAX_SLOT_DOMAIN = 2**62

#: The paper's bucket count per partition table (section 6.1); kept in
#: sync with ``repro.hashing.bucket_chaining.DEFAULT_BUCKETS``.
DEFAULT_BUCKETS = 2048

_EMPTY = np.empty(0, dtype=np.int64)


def expand_ranges(
    starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized expansion of half-open index ranges.

    For input row ``i`` with range ``[starts[i], ends[i])``, emits every
    index of the range in order. Returns ``(owners, flat)`` where
    ``flat`` concatenates all ranges and ``owners[j]`` is the input row
    whose range produced ``flat[j]`` — the candidate-expansion primitive
    shared by the chained probes.
    """
    counts = (ends - starts).astype(np.int64)
    nonzero = counts > 0
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    owners = np.nonzero(nonzero)[0]
    if total == len(owners):
        # Every non-empty range is a single index (the common case for
        # key-column builds: chains of length <= 1) — no repeats needed.
        return owners, starts[nonzero]
    seg_counts = counts[nonzero]
    owners = np.repeat(owners, seg_counts)
    seg_start = np.repeat(starts[nonzero], seg_counts)
    seg_offset = np.repeat(np.cumsum(seg_counts) - seg_counts, seg_counts)
    flat = seg_start + (np.arange(total) - seg_offset)
    return owners, flat


def _validate_buckets(buckets: int) -> None:
    if buckets <= 0 or buckets & (buckets - 1):
        raise ConfigurationError("buckets must be a positive power of two")


def _aligned(keys: np.ndarray, values: np.ndarray, what: str) -> None:
    if keys.shape != values.shape:
        raise ConfigurationError(f"{what} keys and groups/values must align")


def _bucket_window(hashed: np.ndarray, bits: int, offset: int) -> np.ndarray:
    """Hash bits ``[offset, offset + bits)`` as bucket indices; a window
    ending at bit 64 is :func:`~repro.hashing.functions.bucket_of`."""
    if offset + bits == 64:
        return bucket_of(hashed, bits)
    return radix_window(hashed, bits, offset)


def _slot_domain(
    build_groups: np.ndarray, probe_groups: np.ndarray, buckets: int
) -> Tuple[int, Optional[int]]:
    """Buckets per group to use, and the slot space they give.

    ``buckets`` is a ceiling: the kernel takes the largest power of two
    ``b <= buckets`` whose ``groups * b`` slots stay within
    :data:`~repro.kernels.scatter.COUNTING_DOMAIN_FACTOR` of the build
    rows (at least one bucket per group), so the build orders by the
    linear counting scatter and its offsets are the dense probe table.
    Matches do not depend on ``b``: equal keys share a bucket at every
    bucket count. A ``None`` domain (negative group ids, or a space
    near int64) keeps ``buckets`` and sends both the build ordering and
    the probe to the comparison-sort paths.
    """
    if int(build_groups.min()) < 0 or int(probe_groups.min()) < 0:
        return buckets, None
    groups = max(int(build_groups.max()), int(probe_groups.max())) + 1
    fit = max(COUNTING_DOMAIN_FACTOR * len(build_groups) // groups, 1)
    buckets = min(buckets, 1 << (fit.bit_length() - 1))
    domain = groups * buckets
    return buckets, domain if domain < _MAX_SLOT_DOMAIN else None


def grouped_bucket_chaining_join(
    build_keys: np.ndarray,
    build_values: np.ndarray,
    build_groups: np.ndarray,
    probe_keys: np.ndarray,
    probe_groups: np.ndarray,
    buckets: int = DEFAULT_BUCKETS,
    build_hashes: Optional[np.ndarray] = None,
    probe_hashes: Optional[np.ndarray] = None,
    reference: bool = False,
    bits1: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Build and probe every partition's chaining table in one pass.

    Equivalent to building a ``BucketChainingTable(build_keys[g == i],
    build_values[g == i], buckets)`` for every group ``i`` and probing it
    with ``probe_keys[probe_groups == i]`` — executed as one build (a
    stable counting scatter over the concatenated ``(group, bucket)``
    space) and one probe (each probe's candidate range read from the
    scatter's dense offsets table, or found by binary search when that
    table would outgrow the build side), then candidate expansion.
    ``buckets`` is a ceiling: the kernel sizes its ``(group, bucket)``
    space from the build rows (:func:`_slot_domain`), which changes no
    output. ``bits1`` is the width of the low hash window the groups
    were partitioned by (0 for one all-rows partition): each row's
    bucket is then the hash window just above it, the one pass 2 would
    read (see the module docstring). Without it the groups are not
    known to be hash partitions, and buckets come from the top hash
    bits — the window at offset 0 would put a pass-1 partition's rows
    all in one bucket. Precomputed
    :func:`~repro.hashing.functions.hash_u64` arrays can be passed to
    skip re-hashing; ``reference=True`` forces the original argsort +
    ``searchsorted`` path at ``buckets``, bucketed by the top hash bits.

    Returns ``(probe_idx, values)``: positions into ``probe_keys`` that
    matched (repeated per match) and the matched build-side values,
    ordered by probe row then chain position — byte-identical to the
    concatenated per-group loop when groups are non-decreasing.
    """
    _validate_buckets(buckets)
    build_keys = np.asarray(build_keys, dtype=np.int64)
    build_values = np.asarray(build_values, dtype=np.int64)
    probe_keys = np.asarray(probe_keys, dtype=np.int64)
    _aligned(build_keys, build_values, "build")
    _aligned(build_keys, np.asarray(build_groups), "build")
    _aligned(probe_keys, np.asarray(probe_groups), "probe")
    if len(build_keys) == 0 or len(probe_keys) == 0:
        return _EMPTY, _EMPTY

    sp = telemetry.span(
        "grouped_bucket_chaining_join",
        build=len(build_keys),
        probe=len(probe_keys),
    )
    with sp:
        build_groups = np.asarray(build_groups, dtype=np.int64)
        probe_groups = np.asarray(probe_groups, dtype=np.int64)
        domain = None
        if not (reference or reference_mode_active()):
            buckets, domain = _slot_domain(build_groups, probe_groups, buckets)
        sp.set(buckets=buckets)
        bits = buckets.bit_length() - 1
        if bits == 0:
            build_slots = build_groups
            probe_slots = probe_groups
        else:
            if build_hashes is None:
                build_hashes = hash_u64(build_keys)
            if probe_hashes is None:
                probe_hashes = hash_u64(probe_keys)
            # The pass-2 window where it fits below the sign bit, else
            # (and on the reference and comparison-sort paths) the top bits.
            if bits1 is not None and domain is not None and bits1 + bits <= 63:
                offset = bits1
            else:
                offset = 64 - bits
            sp.set(bucket_offset=offset)
            n_buckets = np.int64(buckets)
            build_slots = build_groups * n_buckets + _bucket_window(
                build_hashes, bits, offset
            )
            probe_slots = probe_groups * n_buckets + _bucket_window(
                probe_hashes, bits, offset
            )

        if domain is not None and (
            dense_table_fits(len(build_keys), domain)
            or counting_offsets_free(len(build_keys), domain)
        ):
            # Build: one counting scatter writes every group's chains
            # (keys and values) contiguously, exactly like each
            # per-partition table does, and its offsets double as the
            # dense per-(group, bucket) table.
            # Probe: two O(1) lookups per probe replace the binary search.
            telemetry.registry.count("batch.probe.dense")
            sp.set(probe_path="dense")
            (sorted_keys, sorted_values), offsets = counting_order_and_offsets(
                build_slots, domain, columns=(build_keys, build_values)
            )
            starts = offsets[probe_slots]
            ends = offsets[probe_slots + 1]
        else:
            # Oversized slot space: order the build without a domain-sized
            # table (counting_order falls back to argsort on its own at
            # extreme fanouts) and binary-search each probe's bucket range.
            telemetry.registry.count("batch.probe.searchsorted")
            sp.set(probe_path="searchsorted")
            if domain is None:
                order = np.argsort(build_slots, kind="stable")
            else:
                order = counting_order(build_slots, domain)
            sorted_slots = build_slots[order]
            sorted_keys = build_keys[order]
            sorted_values = build_values[order]
            starts = np.searchsorted(sorted_slots, probe_slots, side="left")
            ends = np.searchsorted(sorted_slots, probe_slots, side="right")
        if sp is not telemetry.NULL_SPAN:
            sp.set(long_chains=int(np.count_nonzero(ends - starts > 1)))
        probe_idx, candidates = expand_ranges(starts, ends)
        if len(candidates) == 0:
            return _EMPTY, _EMPTY
        hit = sorted_keys[candidates] == probe_keys[probe_idx]
        return probe_idx[hit], sorted_values[candidates[hit]]
