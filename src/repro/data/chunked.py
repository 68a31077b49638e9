"""Disk-sharded columnar relations over ``numpy`` memory maps.

A :class:`ChunkedRelation` is the on-disk twin of
:class:`~repro.data.relation.Relation`: the same key + payload columns,
split row-wise into fixed-size **shards**, one ``.npy`` file per
(shard, column). Shards are written radix-partitioned — within each
shard, rows are stored partition-major by the low ``bits`` of the key
hash, with a ``fanout + 1`` offsets table alongside — so a reader can
pull *one partition range of every shard* without touching the rest of
the file (the Hadoop GPU-join blueprint: map-side radix partitioning,
reduce-side streamed joins). Columns are read back with
``np.load(mmap_mode="r")``: slicing a memory map materializes only the
sliced rows, which is what keeps a morsel's working set at morsel size
rather than relation size.

Layout of a chunked relation directory::

    meta.json                  format/columns/bits/shard row counts
    shard00000.c0.npy          column 0 ("key") of shard 0, partition-major
    shard00000.c1.npy          column 1 (first payload) of shard 0
    shard00000.offsets.npy     fanout+1 partition offsets into shard 0
    shard00001.c0.npy          ...

The format round-trips exactly: ``ChunkedRelation.from_relation`` then
:meth:`to_relation` reproduces every column byte-identically up to the
stable partition-major permutation (``bits=0`` keeps the original row
order and round-trips byte-identically row for row); property tests
assert both.
"""

from __future__ import annotations

import json
import pathlib
import shutil
from typing import Dict, List, Optional

import numpy as np

from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.hashing.functions import hash_u64, radix_window
from repro.kernels.scatter import counting_order_and_offsets

FORMAT_VERSION = 1

#: Shards below this many rows make per-shard file overhead dominate.
MIN_SHARD_ROWS = 512


def _shard_stem(index: int) -> str:
    return f"shard{index:05d}"


class ChunkedRelation:
    """A relation stored as radix-partitioned, memory-mappable shards."""

    def __init__(self, directory) -> None:
        self.directory = pathlib.Path(directory)
        meta_path = self.directory / "meta.json"
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError) as error:
            raise ConfigurationError(
                f"not a chunked relation: {meta_path} ({error})"
            )
        if meta.get("format") != FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported chunked-relation format: {meta.get('format')!r}"
            )
        self.name: str = meta["name"]
        self.columns: List[str] = list(meta["columns"])
        self.bits: int = int(meta["bits"])
        self.shards: int = int(meta["shards"])
        self.shard_rows: List[int] = [int(n) for n in meta["shard_rows"]]
        self.total_rows: int = int(meta["total_rows"])
        self.nominal_rows: int = int(meta["nominal_rows"])

    # -- writing ---------------------------------------------------------------

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        directory,
        shard_rows: int,
        bits: int = 0,
    ) -> "ChunkedRelation":
        """Write ``relation`` as radix-partitioned shards under ``directory``.

        Rows are cut into chunks of at most ``shard_rows``; each chunk is
        hashed, counting-scattered partition-major by the low ``bits``
        hash window (``bits=0``: original order, a single all-rows
        partition), and saved one ``.npy`` per column plus the partition
        offsets table.
        Peak memory is proportional to one shard, not the relation.
        """
        if shard_rows < MIN_SHARD_ROWS:
            raise ConfigurationError(
                f"shard_rows must be >= {MIN_SHARD_ROWS}, got {shard_rows}"
            )
        if bits < 0:
            raise ConfigurationError("bits cannot be negative")
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        fanout = 1 << bits if bits else 1
        columns = relation.column_names()
        rows = len(relation)
        counts: List[int] = []
        for index, start in enumerate(range(0, rows, shard_rows)):
            stop = min(start + shard_rows, rows)
            stem = _shard_stem(index)
            parts = [relation.column(c)[start:stop] for c in columns]
            if bits:
                selector = radix_window(
                    hash_u64(relation.keys[start:stop]), bits
                )
                parts, offsets = counting_order_and_offsets(
                    selector, fanout, columns=parts
                )
            else:
                offsets = np.array([0, stop - start], dtype=np.int64)
            for c, values in enumerate(parts):
                np.save(directory / f"{stem}.c{c}.npy", values)
            np.save(directory / f"{stem}.offsets.npy", offsets)
            counts.append(stop - start)
        meta = {
            "format": FORMAT_VERSION,
            "name": relation.name,
            "columns": columns,
            "bits": bits,
            "shards": len(counts),
            "shard_rows": counts,
            "total_rows": rows,
            "nominal_rows": relation.nominal_rows,
        }
        (directory / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        return cls(directory)

    # -- sizes -----------------------------------------------------------------

    def __len__(self) -> int:
        return self.total_rows

    @property
    def fanout(self) -> int:
        return 1 << self.bits if self.bits else 1

    @property
    def tuple_bytes(self) -> int:
        return 8 * len(self.columns)

    def bytes_on_disk(self) -> int:
        """Total size of the shard + meta files currently on disk."""
        return sum(
            path.stat().st_size
            for path in self.directory.iterdir()
            if path.is_file()
        )

    # -- reading ---------------------------------------------------------------

    def _column_path(self, shard: int, column: str) -> pathlib.Path:
        try:
            index = self.columns.index(column)
        except ValueError:
            raise ConfigurationError(
                f"{self.name}: no column {column!r}; have {self.columns}"
            )
        return self.directory / f"{_shard_stem(shard)}.c{index}.npy"

    def shard_column(
        self, shard: int, column: str, mmap: bool = True
    ) -> np.ndarray:
        """One shard's column, memory-mapped read-only by default."""
        return np.load(
            self._column_path(shard, column),
            mmap_mode="r" if mmap else None,
        )

    def shard_offsets(self, shard: int) -> np.ndarray:
        """The ``fanout + 1`` partition offsets into one shard's rows."""
        return np.load(self.directory / f"{_shard_stem(shard)}.offsets.npy")

    def partition_sizes(self) -> np.ndarray:
        """Per-partition row counts summed across all shards."""
        sizes = np.zeros(self.fanout, dtype=np.int64)
        for shard in range(self.shards):
            sizes += np.diff(self.shard_offsets(shard))
        return sizes

    def partition_range_column(
        self, column: str, lo: int, hi: int
    ) -> np.ndarray:
        """Partitions ``[lo, hi)`` of ``column``, partition-major.

        Concatenates each shard's contiguous ``[offsets[lo], offsets[hi])``
        slice — only those rows are read off the memory maps. Rows come
        out grouped by shard within each morsel-range read, which is
        fine for the grouped join kernels: they require partition ids to
        be *labelled*, not sorted.
        """
        parts = []
        for shard in range(self.shards):
            offsets = self.shard_offsets(shard)
            start, stop = int(offsets[lo]), int(offsets[hi])
            if stop > start:
                parts.append(
                    np.asarray(self.shard_column(shard, column)[start:stop])
                )
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def partition_range_groups(self, lo: int, hi: int) -> np.ndarray:
        """Each row's partition id for the :meth:`partition_range_column`
        layout of partitions ``[lo, hi)`` (same order, same length)."""
        parts = []
        for shard in range(self.shards):
            offsets = self.shard_offsets(shard)
            sizes = np.diff(offsets[lo : hi + 1])
            if sizes.sum() > 0:
                parts.append(
                    np.repeat(np.arange(lo, hi, dtype=np.int64), sizes)
                )
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    # -- interop ---------------------------------------------------------------

    def to_relation(self) -> Relation:
        """Reassemble the full in-memory :class:`Relation`.

        Shards concatenate in order; within each shard rows are in the
        stored (partition-major) order. With ``bits=0`` this is exactly
        the original row order.
        """
        data: Dict[str, np.ndarray] = {}
        for column in self.columns:
            if self.shards:
                data[column] = np.concatenate(
                    [
                        np.asarray(self.shard_column(shard, column))
                        for shard in range(self.shards)
                    ]
                )
            else:
                data[column] = np.empty(0, dtype=np.int64)
        payloads = {c: data[c] for c in self.columns if c != "key"}
        return Relation(
            keys=data["key"],
            payloads=payloads,
            nominal_rows=max(self.nominal_rows, self.total_rows),
            name=self.name,
        )

    def delete(self) -> None:
        """Remove the shard files and the directory."""
        shutil.rmtree(self.directory, ignore_errors=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkedRelation({self.name!r}, rows={self.total_rows}, "
            f"shards={self.shards}, bits={self.bits}, "
            f"dir={str(self.directory)!r})"
        )
