"""Budget-driven spilling of relations to disk shards.

The :class:`SpillManager` turns in-memory relations into
:class:`~repro.data.chunked.ChunkedRelation` shard directories when a
join's state exceeds the configured host-memory budget, sizes the shards
so the *writer's* working set (one chunk's columns plus its hash, radix
selector and scattered copies) stays inside the budget, and accounts
for every byte it puts on disk:

- counter ``exec.spill.bytes_written`` — cumulative shard bytes;
- counter ``exec.spill.shards`` — shards written;
- gauge ``exec.spill.tempdir_bytes`` — bytes currently on disk, set
  back to ``0`` by :meth:`SpillManager.cleanup` (the CI leak guard
  additionally checks the directory itself is gone).

The manager always creates its own subdirectory (under ``spill_dir`` or
the system temp dir) and removes it on cleanup, so a crashed run leaves
at most one recognizable ``repro-spill-*`` directory to sweep.
"""

from __future__ import annotations

import pathlib
import shutil
import tempfile
from typing import List, Optional

from repro import telemetry
from repro.data.chunked import MIN_SHARD_ROWS, ChunkedRelation
from repro.data.relation import Relation

#: Writer working-set multiple of a chunk's column bytes: the chunk's
#: columns, the hash array, the radix selector and the partition-major
#: column copies the counting scatter writes are live while a shard is
#: written.
SPILL_WORKING_FACTOR = 4

#: Shard rows when no budget constrains them (pure chunking).
DEFAULT_SHARD_ROWS = 1 << 20


def shard_rows_for(
    relation: Relation, budget_bytes: Optional[int], streams: int = 2
) -> int:
    """Shard row count that keeps the spill writer under budget.

    ``streams`` is how many relations share the budget while spilling
    (a join spills build and probe, so 2). The writer's peak per shard
    is ~``SPILL_WORKING_FACTOR`` times the chunk's column bytes.
    """
    if budget_bytes is None:
        return DEFAULT_SHARD_ROWS
    row_bytes = max(relation.tuple_bytes, 8)
    rows = (budget_bytes // max(streams, 1)) // (
        SPILL_WORKING_FACTOR * row_bytes
    )
    return max(MIN_SHARD_ROWS, int(rows))


class SpillManager:
    """Owns one run's spill directory and its lifetime."""

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        directory: Optional[str] = None,
    ) -> None:
        self.budget_bytes = budget_bytes
        self._parent = directory
        self._root: Optional[pathlib.Path] = None
        self._spilled: List[ChunkedRelation] = []

    @property
    def root(self) -> Optional[pathlib.Path]:
        """The managed spill directory (``None`` until first spill)."""
        return self._root

    def _ensure_root(self) -> pathlib.Path:
        if self._root is None:
            if self._parent is not None:
                pathlib.Path(self._parent).mkdir(parents=True, exist_ok=True)
            self._root = pathlib.Path(
                tempfile.mkdtemp(prefix="repro-spill-", dir=self._parent)
            )
        return self._root

    def spill(self, relation: Relation, bits: int) -> ChunkedRelation:
        """Write ``relation`` as radix-partitioned shards, tracked here."""
        root = self._ensure_root()
        subdir = root / f"{relation.name}-{len(self._spilled)}"
        with telemetry.span(
            "spill", relation=relation.name, rows=len(relation), bits=bits
        ):
            chunked = ChunkedRelation.from_relation(
                relation,
                subdir,
                shard_rows=shard_rows_for(relation, self.budget_bytes),
                bits=bits,
            )
        self._spilled.append(chunked)
        shard_bytes = chunked.bytes_on_disk()
        telemetry.registry.count("exec.spill.bytes_written", shard_bytes)
        telemetry.registry.count("exec.spill.shards", chunked.shards)
        telemetry.registry.gauge(
            "exec.spill.tempdir_bytes", self.tempdir_bytes()
        )
        telemetry.emit_event(
            "spill.shard_written",
            relation=relation.name,
            shards=chunked.shards,
            bytes=shard_bytes,
        )
        return chunked

    def tempdir_bytes(self) -> int:
        """Bytes currently on disk under the managed directory."""
        if self._root is None or not self._root.exists():
            return 0
        return sum(
            path.stat().st_size
            for path in self._root.rglob("*")
            if path.is_file()
        )

    def cleanup(self) -> None:
        """Delete every spilled shard and the managed directory."""
        for chunked in self._spilled:
            chunked.delete()
        self._spilled.clear()
        if self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
            self._root = None
        telemetry.registry.gauge("exec.spill.tempdir_bytes", 0)

    def __enter__(self) -> "SpillManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cleanup()
