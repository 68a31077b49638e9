"""Plain-text timeline of a simulated execution.

Renders a :class:`~repro.sim.engine.SimResult` as a Gantt chart in plain
text — one row per task (or per phase), time flowing right — so the
overlap structure the Triton join relies on (Fig. 11) can be inspected
directly in a terminal or a test failure message. The same timeline
opens in https://ui.perfetto.dev from ``python -m repro.bench <exp>
--trace``, and ``ExplainedRun.format()`` (:mod:`repro.explain`) renders
its bottleneck attribution.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.sim.engine import SimResult
from repro.sim.trace import TraceEntry

_FULL = "█"
_PARTIAL = "▒"


def _bar(
    entry_start: float, entry_end: float, makespan: float, width: int
) -> str:
    """A bar spanning the entry's active columns."""
    if makespan <= 0:
        return " " * width
    begin = entry_start / makespan * width
    end = entry_end / makespan * width
    cells: List[str] = []
    for column in range(width):
        overlap = min(end, column + 1) - max(begin, column)
        if overlap >= 0.5:
            cells.append(_FULL)
        elif overlap > 0.02:
            cells.append(_PARTIAL)
        else:
            cells.append(" ")
    return "".join(cells)


def gantt(
    result: SimResult,
    width: int = 64,
    by_phase: bool = True,
    max_rows: int = 40,
) -> str:
    """Render the execution timeline as an ASCII Gantt chart.

    With ``by_phase`` (default), entries of the same phase merge onto a
    single row — the Fig. 11-style view. Otherwise each task gets its
    own row (trimmed to ``max_rows``).
    """
    if width < 8:
        raise ConfigurationError("width must be at least 8")
    makespan = result.makespan_seconds
    if not result.trace:
        return "(empty trace)"

    if by_phase:
        grouped: Dict[str, List[TraceEntry]] = {}
        for entry in result.trace:
            grouped.setdefault(entry.phase, []).append(entry)
        # Order phases by first activity.
        rows = sorted(
            grouped.items(), key=lambda kv: min(e.start for e in kv[1])
        )
        label_width = max(len(label) for label, _ in rows)
        lines = []
        for label, entries in rows:
            bar = [" "] * width
            for entry in entries:
                for i, ch in enumerate(
                    _bar(entry.start, entry.end, makespan, width)
                ):
                    if ch != " " and bar[i] != _FULL:
                        bar[i] = ch
            busy = sum(e.duration for e in entries)
            lines.append(
                f"{label.rjust(label_width)} |{''.join(bar)}| "
                f"{busy * 1e3:8.1f} ms"
            )
    else:
        entries = sorted(result.trace, key=lambda e: (e.start, e.end))
        if len(entries) > max_rows:
            entries = entries[:max_rows]
        label_width = max(len(e.name) for e in entries)
        lines = [
            f"{e.name.rjust(label_width)} |"
            f"{_bar(e.start, e.end, makespan, width)}| "
            f"{e.duration * 1e3:8.1f} ms"
            for e in entries
        ]
        if len(result.trace) > max_rows:
            lines.append(f"... {len(result.trace) - max_rows} more tasks")

    header = f"timeline: 0 .. {makespan * 1e3:.1f} ms"
    return "\n".join([header] + lines)
