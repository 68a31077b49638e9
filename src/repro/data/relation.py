"""Columnar relations backed by numpy arrays.

A :class:`Relation` stores a key column and zero or more 8-byte payload
columns in a column-oriented layout, mirroring the paper's storage format
(section 6.1). Each relation carries two cardinalities:

- ``nominal_rows``: the cardinality the cost model reasons about (up to
  the paper's 2048 M tuples);
- ``len(relation)``: the materialized cardinality the functional layer
  actually executes on (``nominal_rows / scale_divisor``).

Running at ``scale_divisor=1`` makes them identical; tests do exactly
that on small inputs, while benchmarks use a divisor so that numpy works
on millions instead of billions of rows. The executed code path is the
same either way.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError

KEY_BYTES = 8
ATTRIBUTE_BYTES = 8


class DeferredColumns:
    """Payload columns that ``draw()`` returns on first use, then kept.

    Their names are known up front, so a relation's width and byte
    counts never need the values. Relations that share one instance
    (see :meth:`Relation.with_nominal_rows`) share its one draw.
    """

    def __init__(
        self, names: Iterable[str], draw: Callable[[], Dict[str, np.ndarray]]
    ) -> None:
        self.names = tuple(names)
        self._draw = draw
        self._values: Optional[Dict[str, np.ndarray]] = None

    def values(self) -> Dict[str, np.ndarray]:
        values = self._values
        if values is None:
            # Compute first, publish second: threads racing on the first
            # access may each draw (the same values), but none ever sees
            # a partial set of columns.
            values = self._draw()
            self._values = values
        return values


class Relation:
    """An immutable columnar relation of <key, payload...> tuples.

    ``payloads`` maps column names to arrays, or is a
    :class:`DeferredColumns` whose arrays are drawn on the first read of
    :attr:`payloads` (late materialization: a join that never reads the
    probe side's payloads never builds them).
    """

    def __init__(
        self,
        keys: np.ndarray,
        payloads: Union[Dict[str, np.ndarray], DeferredColumns, None] = None,
        nominal_rows: Optional[int] = None,
        name: str = "relation",
    ) -> None:
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ConfigurationError("keys must be a 1-D array")
        if keys.dtype != np.int64:
            keys = keys.astype(np.int64)
        self.name = name
        self.keys = keys
        if isinstance(payloads, DeferredColumns):
            self._payloads = payloads
            self._names = payloads.names
        else:
            self._payloads = self._checked(payloads or {})
            self._names = tuple(self._payloads)
        if nominal_rows is None:
            nominal_rows = len(keys)
        if nominal_rows < len(keys):
            raise ConfigurationError(
                "nominal_rows cannot be smaller than the materialized rows"
            )
        self.nominal_rows = int(nominal_rows)

    def _checked(self, payloads: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        checked = {}
        for column, values in payloads.items():
            values = np.asarray(values)
            if values.shape != self.keys.shape:
                raise ConfigurationError(
                    f"payload column {column!r} has {values.shape[0]} rows, "
                    f"expected {self.keys.shape[0]}"
                )
            checked[column] = values.astype(np.int64, copy=False)
        return checked

    @property
    def payloads(self) -> Dict[str, np.ndarray]:
        """The payload columns by name, drawn here if still deferred."""
        payloads = self._payloads
        if isinstance(payloads, DeferredColumns):
            payloads = self._checked(payloads.values())
            self._payloads = payloads
        return payloads

    # -- sizes ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def payload_columns(self) -> int:
        return len(self._names)

    @property
    def tuple_bytes(self) -> int:
        """Bytes per tuple: 8-byte key plus 8 bytes per payload column."""
        return KEY_BYTES + self.payload_columns * ATTRIBUTE_BYTES

    @property
    def nominal_bytes(self) -> int:
        """Size of the relation at nominal cardinality."""
        return self.nominal_rows * self.tuple_bytes

    @property
    def materialized_bytes(self) -> int:
        return len(self) * self.tuple_bytes

    @property
    def scale_divisor(self) -> float:
        """Ratio of nominal to materialized cardinality."""
        if len(self) == 0:
            return 1.0
        return self.nominal_rows / len(self)

    # -- access ---------------------------------------------------------------

    def column_names(self) -> List[str]:
        return ["key", *self._names]

    def column(self, name: str) -> np.ndarray:
        if name == "key":
            return self.keys
        if name not in self.payloads:
            raise ConfigurationError(
                f"{self.name}: no column {name!r}; have {self.column_names()}"
            )
        return self.payloads[name]

    def take(self, indices: np.ndarray, name: Optional[str] = None) -> "Relation":
        """A new relation containing the rows at ``indices`` (in order).

        The nominal cardinality scales with the selected fraction so cost
        reasoning stays consistent for partitions of a scaled relation.
        """
        indices = np.asarray(indices)
        if len(self) == 0:
            nominal = 0
        else:
            nominal = round(self.nominal_rows * len(indices) / len(self))
        return Relation(
            keys=self.keys[indices],
            payloads={c: v[indices] for c, v in self.payloads.items()},
            nominal_rows=max(nominal, len(indices)),
            name=name or self.name,
        )

    def with_nominal_rows(self, nominal_rows: int) -> "Relation":
        """Same data, different nominal cardinality (still deferred if
        this relation's payloads are)."""
        payloads = self._payloads
        if not isinstance(payloads, DeferredColumns):
            payloads = dict(payloads)
        return Relation(
            keys=self.keys,
            payloads=payloads,
            nominal_rows=nominal_rows,
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Relation({self.name!r}, rows={len(self)}, "
            f"nominal={self.nominal_rows}, columns={self.column_names()})"
        )
