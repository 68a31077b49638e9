"""Prefix-sum + scatter primitives for small dense integer keys.

Every partitioning and grouped-join pass in the functional layer orders
tuples by a dense integer selector whose domain is known up front. The
kernels here compute that order the way the paper's GPU kernels do —
``np.bincount`` histogram, exclusive prefix sum, stable scatter — in
O(n + domain) instead of a comparison sort, and stay *byte-identical*
to ``np.argsort(kind="stable")`` (stability is the contract; tests
cross-check every kernel against the argsort path).

Implementation notes:

- The stable scatter itself runs at C speed through scipy's
  ``coo_tocsr`` routine (the COO→CSR conversion *is* a stable counting
  sort: histogram, exclusive scan, ordered scatter — and its row
  pointer *is* the offsets array). It writes its two inputs ``Aj`` and
  ``Ax`` to their sorted positions ``Bj`` / ``Bx``, so up to two int64
  columns move in the same pass that counts them
  (:func:`counting_order_and_offsets` with ``columns=``), the way the
  paper's partitioner writes whole tuples; only an order-only call
  scatters the row index. When scipy is absent the kernels fall back
  to numpy's stable argsort plus ``take`` — same output, one less
  dependency.
- Counting pays O(domain) for the histogram and the offsets array, so
  it only wins while the domain stays within a small factor of the
  input (:data:`COUNTING_DOMAIN_FACTOR`, measured crossover ~16x).
  Beyond that the kernels silently use the argsort path — the caller
  never sees a difference.
- ``reference=True`` (or the :func:`force_reference` context manager)
  forces the argsort path everywhere, keeping the replaced
  implementation reachable for cross-checks.
- Every entry point tallies which path ran into the telemetry metrics
  registry (``kernels.scatter.order.counting`` / ``.argsort``,
  ``kernels.scatter.claim.scatter`` / ``.argsort``), so a silently
  degraded run — scipy missing, domain past the crossover — is visible
  in any metrics dump instead of only as a wall-clock anomaly.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.telemetry import metrics as _metrics

try:  # scipy is optional: the kernels degrade to stable argsort.
    from scipy.sparse import _sparsetools as _sparsetools

    _coo_tocsr = getattr(_sparsetools, "coo_tocsr", None)
except ImportError:  # pragma: no cover - exercised on scipy-less installs
    _coo_tocsr = None

#: Counting beats the stable argsort while ``domain <= factor * n``;
#: beyond it the O(domain) histogram/offsets work dominates. The exact
#: crossover depends on the distribution (timsort exploits the sorted
#: group runs of grouped slots, so those cross earlier than uniform
#: hash windows); 16 is what minimizes end-to-end fig13 wall-clock.
COUNTING_DOMAIN_FACTOR = 16

#: Dense probe-offset tables below this entry count are always
#: considered affordable, whatever the build side's size.
DENSE_FLOOR_ENTRIES = 1 << 16

#: One offsets-table entry (int64) and one build tuple (key + payload).
_OFFSET_ENTRY_BYTES = 8
_BUILD_TUPLE_BYTES = 16

_reference_mode = False


@contextlib.contextmanager
def force_reference():
    """Force the argsort reference path inside the block (for tests)."""
    global _reference_mode
    previous = _reference_mode
    _reference_mode = True
    try:
        yield
    finally:
        _reference_mode = previous


def reference_mode_active() -> bool:
    """Whether :func:`force_reference` is in effect (for callers that
    select between whole code paths, not just scatter kernels)."""
    return _reference_mode


def exclusive_scan(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of partition counts -> partition offsets.

    The one prefix-sum implementation shared by the functional kernels
    and the modeled layer (re-exported as
    :func:`repro.partition.prefix_sum.exclusive_scan`).
    """
    counts = np.asarray(counts)
    if counts.ndim != 1:
        raise ConfigurationError("counts must be 1-D")
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _checked(keys: np.ndarray, domain: int) -> np.ndarray:
    if domain < 1:
        raise ConfigurationError("domain must be positive")
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 1:
        raise ConfigurationError("keys must be 1-D")
    if len(keys) and (int(keys.min()) < 0 or int(keys.max()) >= domain):
        raise ConfigurationError(f"keys out of domain [0, {domain})")
    return keys


def _counting_profitable(n: int, domain: int) -> bool:
    return domain <= COUNTING_DOMAIN_FACTOR * n


def _use_reference(reference: bool, n: int, domain: int) -> bool:
    return (
        reference
        or _reference_mode
        or _coo_tocsr is None
        or not _counting_profitable(n, domain)
    )


#: Columns one ``coo_tocsr`` call moves (its ``Aj`` and ``Ax`` inputs).
_SCATTER_SLOTS = 2


def _counting_scatter(
    keys: np.ndarray,
    domain: int,
    first: np.ndarray,
    second: np.ndarray,
    out_first: np.ndarray,
    out_second: np.ndarray,
) -> np.ndarray:
    """One coo_tocsr call: scatter two int64 columns, return the offsets.

    The CSR row pointer is the exclusive scan of the key histogram, and
    the ``Aj``/``Ax`` scatter is stable in input order — exactly the
    counting sort. ``out_first`` and ``out_second`` may share storage
    when ``first`` and ``second`` are the same column.
    """
    n = len(keys)
    offsets = np.empty(domain + 1, dtype=np.int64)
    _coo_tocsr(
        domain, n, n, keys, first, second, offsets, out_first, out_second
    )
    return offsets


def _counting_order(keys: np.ndarray, domain: int):
    """Stable order plus offsets: the row index rides the scatter."""
    n = len(keys)
    index = np.arange(n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    return order, _counting_scatter(keys, domain, index, index, order, order)


def counting_order(
    keys: np.ndarray, domain: int, reference: bool = False
) -> np.ndarray:
    """Stable permutation sorting dense integer ``keys`` in ``[0, domain)``.

    Byte-identical to ``np.argsort(keys, kind="stable")``; linear-time
    (histogram + prefix sum + scatter) while the domain stays within
    :data:`COUNTING_DOMAIN_FACTOR` of ``len(keys)``, argsort otherwise.
    """
    keys = _checked(keys, domain)
    if _use_reference(reference, len(keys), domain):
        _metrics.registry.count("kernels.scatter.order.argsort")
        return np.argsort(keys, kind="stable")
    _metrics.registry.count("kernels.scatter.order.counting")
    return _counting_order(keys, domain)[0]


def _destinations(
    columns: Sequence[np.ndarray],
    out: Optional[Sequence[np.ndarray]],
    n: int,
) -> List[np.ndarray]:
    """One destination per column: ``out``'s, checked, or fresh arrays."""
    if out is None:
        return [np.empty(n, dtype=column.dtype) for column in columns]
    if len(out) != len(columns):
        raise ConfigurationError("out must hold one array per column")
    for column, dest in zip(columns, out):
        if (
            dest.shape != (n,)
            or dest.dtype != column.dtype
            or not dest.flags.c_contiguous
            or not dest.flags.writeable
        ):
            raise ConfigurationError(
                "each out array must be writeable, contiguous, and match "
                "its column's length and dtype"
            )
    return list(out)


def counting_order_and_offsets(
    keys: np.ndarray,
    domain: int,
    reference: bool = False,
    columns: Optional[Sequence[np.ndarray]] = None,
    out: Optional[Sequence[np.ndarray]] = None,
) -> Tuple[object, np.ndarray]:
    """Stable order (or scattered columns) plus the offsets table.

    ``offsets[k]:offsets[k + 1]`` is key ``k``'s span of the reordered
    array — the dense probe table and the partitioner's offsets in one
    (``domain + 1`` entries).

    With ``columns`` (1-D arrays aligned with ``keys``), the first
    return value is instead the list of those columns in sorted order.
    While there are at most two and both are int64, the scatter moves
    them itself — no order array, no gathers; otherwise every column is
    gathered with an order array. ``out`` supplies one destination per
    column: a writeable contiguous array of the column's length and
    dtype (shared-memory segments on the pool path). Either form is
    byte-identical to ``np.argsort(keys, kind="stable")`` plus ``take``.
    """
    keys = _checked(keys, domain)
    n = len(keys)
    dests = None
    if columns is not None:
        columns = [np.asarray(column) for column in columns]
        if any(column.shape != (n,) for column in columns):
            raise ConfigurationError("columns must align with keys")
        dests = _destinations(columns, out, n)
    elif out is not None:
        raise ConfigurationError("out requires columns")
    if _use_reference(reference, n, domain):
        _metrics.registry.count("kernels.scatter.order.argsort")
        order = np.argsort(keys, kind="stable")
        offsets = exclusive_scan(np.bincount(keys, minlength=domain))
    else:
        _metrics.registry.count("kernels.scatter.order.counting")
        if dests is not None and 0 < len(columns) <= _SCATTER_SLOTS and all(
            column.dtype == np.int64 for column in columns
        ):
            return dests, _counting_scatter(
                keys, domain, columns[0], columns[-1], dests[0], dests[-1]
            )
        order, offsets = _counting_order(keys, domain)
    if dests is None:
        return order, offsets
    for column, dest in zip(columns, dests):
        np.take(column, order, out=dest)
    return dests, offsets


def counting_offsets_free(n: int, domain: int) -> bool:
    """Whether ordering ``n`` keys over ``domain`` yields free offsets.

    On the scipy scatter path, ``coo_tocsr`` materializes the full
    ``domain + 1`` offsets table as a byproduct of computing the stable
    order — so a dense probe table costs nothing extra even when
    :func:`dense_table_fits` would reject building one on its own.
    """
    return (
        _coo_tocsr is not None
        and not _reference_mode
        and _counting_profitable(n, domain)
    )


def dense_table_fits(build_rows: int, domain: int) -> bool:
    """Whether a dense per-slot offsets table is affordable.

    The probe side replaces its binary search with O(1) lookups into a
    ``domain + 1``-entry offsets table only while that table is no
    larger than the build side it indexes (with a small absolute floor,
    :data:`DENSE_FLOOR_ENTRIES`); past that, ``searchsorted`` against
    the sorted build keeps the footprint O(build).
    """
    table_bytes = (domain + 1) * _OFFSET_ENTRY_BYTES
    floor_bytes = DENSE_FLOOR_ENTRIES * _OFFSET_ENTRY_BYTES
    return table_bytes <= max(build_rows * _BUILD_TUPLE_BYTES, floor_bytes)


def claim_first(
    slots: np.ndarray, domain: int, reference: bool = False
) -> np.ndarray:
    """Mask of each slot value's first occurrence, in index order.

    The conflict-resolution kernel of the linear-probing build: among
    tuples aiming at the same slot, the first in input order wins the
    round. Scatter path: writing indices in reverse leaves each slot's
    smallest index in a claim table (fancy assignment keeps the last
    write per repeated index); argsort path: first-of-run on the stable
    sort, identical by construction.
    """
    slots = _checked(slots, domain)
    n = len(slots)
    if n == 0:
        return np.zeros(0, dtype=bool)
    # Pure numpy — no scipy gate, only the domain-size crossover.
    if reference or _reference_mode or not _counting_profitable(n, domain):
        _metrics.registry.count("kernels.scatter.claim.argsort")
        order = np.argsort(slots, kind="stable")
        sorted_slots = slots[order]
        first_of_slot = np.ones(n, dtype=bool)
        first_of_slot[1:] = sorted_slots[1:] != sorted_slots[:-1]
        mask = np.zeros(n, dtype=bool)
        mask[order[first_of_slot]] = True
        return mask
    _metrics.registry.count("kernels.scatter.claim.scatter")
    claim = np.full(domain, -1, dtype=np.int64)
    claim[slots[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
    return claim[slots] == np.arange(n, dtype=np.int64)
