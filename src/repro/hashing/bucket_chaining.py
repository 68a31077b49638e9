"""Bucket-chaining hash table, vectorized on numpy.

The Triton and radix joins use a bucket-chaining table with 2048 buckets
per partition, held in the GPU's scratchpad (section 6.1). Chains are
materialized contiguously by sorting build tuples by bucket — which is
also how the scratchpad variant lays memory out — and probes expand each
lookup over the candidate range of its bucket.

Unlike linear probing, bucket chaining naturally supports duplicate
build keys, so it is also the scheme used when the build side is not a
key column.

Build-then-probe flows that already hashed the keys (e.g. to pick radix
partitions) can pass the precomputed :func:`~repro.hashing.functions.
hash_u64` values to both the constructor and :meth:`probe`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.batch import expand_ranges
from repro.hashing.functions import bucket_of, multiply_shift
from repro.hashing.hash_table import (
    HashScheme,
    HashTable,
    TableProfile,
    bucket_chaining_profile,
)
from repro.kernels.scatter import counting_order_and_offsets

#: The paper's bucket count per table (section 6.1, citing Sioulas et al.).
DEFAULT_BUCKETS = 2048


class BucketChainingTable(HashTable):
    """A chained hash table with a fixed power-of-two bucket count."""

    scheme = HashScheme.BUCKET_CHAINING

    def __init__(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        buckets: int = DEFAULT_BUCKETS,
        hashes: Optional[np.ndarray] = None,
    ) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if keys.shape != values.shape:
            raise ConfigurationError("keys and values must align")
        if buckets <= 0 or buckets & (buckets - 1):
            raise ConfigurationError("buckets must be a positive power of two")
        self._buckets = buckets
        self._bits = buckets.bit_length() - 1
        bucket_idx = self._bucket_of(keys, hashes)
        # One counting scatter lays the chains' keys and values out
        # contiguously and yields the per-bucket offsets table in the
        # same pass.
        (self._keys, self._values), self._offsets = counting_order_and_offsets(
            bucket_idx, buckets, columns=(keys, values)
        )
        self.profile: TableProfile = bucket_chaining_profile(
            max(len(keys), 1), buckets
        )

    def _bucket_of(
        self, keys: np.ndarray, hashes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if self._bits == 0:
            # A single bucket: everything chains together.
            return np.zeros(len(keys), dtype=np.int64)
        if hashes is not None:
            return bucket_of(np.asarray(hashes, dtype=np.uint64), self._bits)
        return multiply_shift(keys, bits=self._bits)

    def probe(
        self, keys: np.ndarray, hashes: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        keys = np.asarray(keys, dtype=np.int64)
        if len(self._keys) == 0 or len(keys) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        bucket_idx = self._bucket_of(keys, hashes)
        starts = self._offsets[bucket_idx]
        ends = self._offsets[bucket_idx + 1]
        # Expand each probe over its bucket's candidate range.
        probe_idx, candidates = expand_ranges(starts, ends)
        if len(candidates) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        hit = self._keys[candidates] == keys[probe_idx]
        return probe_idx[hit], self._values[candidates[hit]]

    @property
    def table_bytes(self) -> int:
        return int(self.profile.table_bytes)

    def chain_lengths(self) -> np.ndarray:
        """Per-bucket chain lengths (for balance diagnostics)."""
        return np.diff(self._offsets)
