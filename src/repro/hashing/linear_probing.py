"""Linear probing hash table, vectorized on numpy.

The paper's no-partitioning join baseline configures linear probing with
a 50% load factor (section 6.1). The implementation is fully vectorized:
insertion resolves collisions round-by-round (each round claims one
winner per slot, losers advance), and probing advances all unresolved
lookups in lockstep. Expected round counts are O(1) at a 50% load
factor, so the vectorized loops terminate quickly.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.functions import multiply_shift
from repro.hashing.hash_table import (
    ENTRY_BYTES,
    HashScheme,
    HashTable,
    TableProfile,
    linear_probing_profile,
)
from repro.kernels.scatter import claim_first
from repro.units import next_power_of_two

_EMPTY = np.int64(-1)


class LinearProbingTable(HashTable):
    """An open-addressing table with linear probing."""

    scheme = HashScheme.LINEAR_PROBING

    def __init__(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        load_factor: float = 0.5,
    ) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if keys.shape != values.shape:
            raise ConfigurationError("keys and values must align")
        if len(keys) == 0:
            raise ConfigurationError("cannot build an empty hash table")
        if not 0 < load_factor < 1:
            raise ConfigurationError("load factor must be in (0, 1)")
        self._slots = next_power_of_two(int(np.ceil(len(keys) / load_factor)))
        self._mask = self._slots - 1
        self._bits = int(np.log2(self._slots))
        self._keys = np.full(self._slots, _EMPTY, dtype=np.int64)
        self._values = np.empty(self._slots, dtype=np.int64)
        # Explicit occupancy: keys may take any int64 value, including
        # the sentinel, so emptiness cannot be inferred from _keys.
        self._occupied = np.zeros(self._slots, dtype=bool)
        self.profile: TableProfile = linear_probing_profile(len(keys), load_factor)
        self.build_probe_rounds = self._insert_all(keys, values)

    def _slot_of(self, keys: np.ndarray) -> np.ndarray:
        return multiply_shift(keys, bits=self._bits) & self._mask

    def _insert_all(self, keys: np.ndarray, values: np.ndarray) -> int:
        """Insert all tuples; returns the number of conflict rounds."""
        pending = np.arange(len(keys))
        slots = self._slot_of(keys)
        rounds = 0
        while pending.size:
            rounds += 1
            if rounds > self._slots + 1:
                raise ConfigurationError("hash table insertion did not converge")
            current = slots[pending]
            empty = ~self._occupied[current]
            # Among pending tuples aiming at the same empty slot, the
            # first in input order wins this round.
            winner_mask = claim_first(current, self._slots) & empty
            winners = pending[winner_mask]
            self._keys[current[winner_mask]] = keys[winners]
            self._values[current[winner_mask]] = values[winners]
            self._occupied[current[winner_mask]] = True
            # Losers (and tuples aiming at occupied slots) advance.
            loser_mask = ~winner_mask
            slots[pending[loser_mask]] = (current[loser_mask] + 1) & self._mask
            pending = pending[loser_mask]
        return rounds

    def probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        keys = np.asarray(keys, dtype=np.int64)
        slots = self._slot_of(keys)
        active = np.arange(len(keys))
        out_idx = []
        out_val = []
        steps = 0
        while active.size:
            steps += 1
            if steps > self._slots + 1:
                raise ConfigurationError("probe did not converge")
            current = slots[active]
            occupied = self._occupied[current]
            hit = occupied & (self._keys[current] == keys[active])
            miss = ~occupied
            if hit.any():
                out_idx.append(active[hit])
                out_val.append(self._values[current[hit]])
            cont = ~(hit | miss)
            slots[active[cont]] = (current[cont] + 1) & self._mask
            active = active[cont]
        if not out_idx:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(out_idx), np.concatenate(out_val)

    @property
    def table_bytes(self) -> int:
        return self._slots * ENTRY_BYTES
