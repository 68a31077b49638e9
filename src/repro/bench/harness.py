"""Result tables for the benchmark harness.

Experiments return :class:`ExperimentTable` objects: a titled grid of
rows mirroring the corresponding paper figure's series, plus free-form
notes (configuration, deviations). Tables render as aligned plain text
so benchmark output is directly comparable against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Row:
    """One row of an experiment table."""

    label: str
    values: Dict[str, float]

    def get(self, column: str) -> Optional[float]:
        return self.values.get(column)


@dataclass
class ExperimentTable:
    """A reproduced paper artifact: title, columns, rows, notes."""

    experiment: str
    title: str
    columns: List[str]
    unit: str = ""
    rows: List[Row] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, label: str, values: Dict[str, float]) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ConfigurationError(
                f"{self.experiment}: unknown columns {sorted(unknown)}"
            )
        self.rows.append(Row(label=label, values=dict(values)))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def row(self, label: str) -> Row:
        for row in self.rows:
            if row.label == label:
                return row
        raise ConfigurationError(f"{self.experiment}: no row {label!r}")

    def column(self, name: str) -> List[Optional[float]]:
        if name not in self.columns:
            raise ConfigurationError(f"{self.experiment}: no column {name!r}")
        return [row.get(name) for row in self.rows]

    def format(self, precision: int = 3) -> str:
        return format_table(self, precision=precision)

    def to_dict(self) -> dict:
        """JSON-serializable representation of the whole table."""
        return {
            "experiment": self.experiment,
            "title": self.title,
            "unit": self.unit,
            "columns": list(self.columns),
            "rows": [
                {"label": row.label, "values": dict(row.values)}
                for row in self.rows
            ],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentTable":
        """Inverse of :meth:`to_dict`."""
        table = cls(
            experiment=data["experiment"],
            title=data["title"],
            columns=list(data["columns"]),
            unit=data.get("unit", ""),
        )
        for row in data["rows"]:
            table.add_row(row["label"], row["values"])
        for note in data.get("notes", ()):
            table.add_note(note)
        return table

    def __str__(self) -> str:  # pragma: no cover - formatting convenience
        return self.format()


def _format_value(value: Optional[float], precision: int) -> str:
    if value is None:
        return "-"
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e5 or magnitude < 10 ** (-precision):
        return f"{value:.2e}"
    return f"{value:.{precision}f}".rstrip("0").rstrip(".")


def format_table(table: ExperimentTable, precision: int = 3) -> str:
    """Render an experiment table as aligned plain text."""
    header = [table.title + (f"  [{table.unit}]" if table.unit else "")]
    label_width = max(
        [len("series")] + [len(row.label) for row in table.rows]
    )
    col_widths = {}
    for column in table.columns:
        cells = [
            _format_value(row.get(column), precision) for row in table.rows
        ]
        col_widths[column] = max([len(column)] + [len(c) for c in cells])
    head_cells = ["series".ljust(label_width)] + [
        column.rjust(col_widths[column]) for column in table.columns
    ]
    lines = [" | ".join(head_cells)]
    lines.append("-+-".join("-" * len(cell) for cell in head_cells))
    for row in table.rows:
        cells = [row.label.ljust(label_width)] + [
            _format_value(row.get(column), precision).rjust(col_widths[column])
            for column in table.columns
        ]
        lines.append(" | ".join(cells))
    body = "\n".join(lines)
    notes = "\n".join(f"  note: {n}" for n in table.notes)
    parts = [header[0], body]
    if notes:
        parts.append(notes)
    return "\n".join(parts)
