"""Disk-sharded columnar relations: one ``.npy`` per column.

A :class:`ChunkedRelation` is the on-disk twin of
:class:`~repro.data.relation.Relation`: the same key + payload columns,
split row-wise into fixed-size **shards**. Shards are written
radix-partitioned — within each shard, rows are stored partition-major
by the low ``bits`` of the key hash — and appended shard by shard to
one file per column, with every shard's ``fanout + 1`` offsets in one
table alongside. A reader pulls *one partition range of every shard*
as one contiguous byte range per shard, without touching the rest of
the file (the Hadoop GPU-join blueprint: map-side radix partitioning,
reduce-side streamed joins).

Layout of a chunked relation directory (format 2)::

    meta.json      format/columns/bits/shard row counts
    c0.npy         column 0 ("key"): every shard back to back, each
                   partition-major
    c1.npy         column 1 (first payload), same row order
    offsets.npy    (shards, fanout + 1) partition offsets into each
                   shard's rows

The reader opens each file once: the first read loads the offsets
table and resolves each column file's data offset, later reads copy a
partition range's per-shard slices straight into one preallocated
array with positional reads (``os.preadv``) — no per-read ``np.load``,
memory map or concatenation. :meth:`ChunkedRelation.close` (or
:meth:`~ChunkedRelation.delete`) releases the open files.

The format round-trips exactly: ``ChunkedRelation.from_relation`` then
:meth:`to_relation` reproduces every column byte-identically up to the
stable partition-major permutation (``bits=0`` keeps the original row
order and round-trips byte-identically row for row); property tests
assert both.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
from typing import Dict, List, Tuple

import numpy as np

from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.hashing.functions import hash_u64, radix_window
from repro.kernels.scatter import counting_order_and_offsets

FORMAT_VERSION = 2

#: Shards below this many rows make per-shard read overhead dominate.
MIN_SHARD_ROWS = 512

OFFSETS_FILE = "offsets.npy"


def _column_file(index: int) -> str:
    return f"c{index}.npy"


def _read_at(file, view: memoryview, offset: int) -> None:
    """Fill ``view`` with the file's bytes starting at ``offset``."""
    while len(view):
        if hasattr(os, "preadv"):
            read = os.preadv(file.fileno(), [view], offset)
        else:  # pragma: no cover - platforms without preadv
            file.seek(offset)
            read = file.readinto(view)
        if not read:
            raise ConfigurationError(f"{file.name}: truncated column file")
        view, offset = view[read:], offset + read


class ChunkedRelation:
    """A relation stored as radix-partitioned shards, one file per column."""

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
        # Each shard's first row in the column files.
        self._shard_base = np.cumsum([0] + self.shard_rows, dtype=np.int64)
        self._table = None
        #: column index -> (open file, data byte offset, dtype)
        self._files: Dict[int, Tuple[object, int, np.dtype]] = {}

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
        partition), and appended to one ``.npy`` per column; the chunk's
        partition offsets become one row of ``offsets.npy``.
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
        table: List[np.ndarray] = []
        files = []
        try:
            for c, column in enumerate(columns):
                file = open(directory / _column_file(c), "wb")
                files.append(file)
                header = np.lib.format.header_data_from_array_1_0(
                    relation.column(column)[:0]
                )
                header["shape"] = (rows,)
                np.lib.format.write_array_header_1_0(file, header)
            for start in range(0, rows, shard_rows):
                stop = min(start + shard_rows, rows)
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
                for file, values in zip(files, parts):
                    file.write(np.ascontiguousarray(values).data)
                table.append(offsets)
                counts.append(stop - start)
        finally:
            for file in files:
                file.close()
        np.save(
            directory / OFFSETS_FILE,
            np.array(table, dtype=np.int64).reshape(len(counts), fanout + 1),
        )
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
        """Total size of the column, offsets and meta files on disk."""
        return sum(
            path.stat().st_size
            for path in self.directory.iterdir()
            if path.is_file()
        )

    # -- reading ---------------------------------------------------------------

    def _offset_table(self) -> np.ndarray:
        """The ``(shards, fanout + 1)`` offsets table, loaded once."""
        if self._table is None:
            table = np.load(self.directory / OFFSETS_FILE)
            table.setflags(write=False)
            self._table = table
        return self._table

    def _column_index(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise ConfigurationError(
                f"{self.name}: no column {column!r}; have {self.columns}"
            )

    def _open_column(self, column: str) -> Tuple[object, int, np.dtype]:
        """``(file, data offset, dtype)`` of one column, opened once."""
        index = self._column_index(column)
        entry = self._files.get(index)
        if entry is None:
            file = open(self.directory / _column_file(index), "rb")
            try:
                # The writer always writes version 1.0 headers.
                np.lib.format.read_magic(file)
                _shape, _fortran, dtype = (
                    np.lib.format.read_array_header_1_0(file)
                )
            except BaseException:
                file.close()
                raise
            entry = (file, file.tell(), dtype)
            self._files[index] = entry
        return entry

    def _read_rows(
        self, column: str, starts: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Rows ``[start, start + count)`` of ``column`` for each pair,
        back to back, into one fresh array."""
        file, data_offset, dtype = self._open_column(column)
        out = np.empty(int(counts.sum()), dtype=dtype)
        view = memoryview(out).cast("B")
        size = dtype.itemsize
        position = 0
        for start, count in zip(starts.tolist(), counts.tolist()):
            if count:
                _read_at(
                    file,
                    view[position : position + count * size],
                    data_offset + start * size,
                )
                position += count * size
        return out

    def partition_sizes(self) -> np.ndarray:
        """Per-partition row counts summed across all shards."""
        return np.diff(self._offset_table(), axis=1).sum(
            axis=0, dtype=np.int64
        )

    def partition_range_column(
        self, column: str, lo: int, hi: int
    ) -> np.ndarray:
        """Partitions ``[lo, hi)`` of ``column``, partition-major.

        Reads each shard's contiguous ``[offsets[lo], offsets[hi])``
        slice, in shard order, into one array — only those rows leave
        the disk. Rows come out grouped by shard within each
        morsel-range read, which is fine for the grouped join kernels:
        they require partition ids to be *labelled*, not sorted.
        """
        table = self._offset_table()
        return self._read_rows(
            column,
            self._shard_base[:-1] + table[:, lo],
            table[:, hi] - table[:, lo],
        )

    def partition_range_groups(self, lo: int, hi: int) -> np.ndarray:
        """Each row's partition id for the :meth:`partition_range_column`
        layout of partitions ``[lo, hi)`` (same order, same length)."""
        sizes = np.diff(self._offset_table()[:, lo : hi + 1], axis=1)
        return np.repeat(
            np.tile(np.arange(lo, hi, dtype=np.int64), self.shards),
            sizes.ravel(),
        )

    # -- interop ---------------------------------------------------------------

    def to_relation(self) -> Relation:
        """Reassemble the full in-memory :class:`Relation`.

        Shards come back in order; within each shard rows are in the
        stored (partition-major) order. With ``bits=0`` this is exactly
        the original row order.
        """
        whole = (np.array([0]), np.array([self.total_rows]))
        data = {column: self._read_rows(column, *whole) for column in self.columns}
        payloads = {c: data[c] for c in self.columns if c != "key"}
        return Relation(
            keys=data["key"],
            payloads=payloads,
            nominal_rows=max(self.nominal_rows, self.total_rows),
            name=self.name,
        )

    def close(self) -> None:
        """Close the column files the reader opened (reopened on use)."""
        files, self._files = self._files, {}
        for file, _offset, _dtype in files.values():
            file.close()

    def delete(self) -> None:
        """Close the open files and remove the directory."""
        self.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkedRelation({self.name!r}, rows={self.total_rows}, "
            f"shards={self.shards}, bits={self.bits}, "
            f"dir={str(self.directory)!r})"
        )
