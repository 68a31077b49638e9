"""Plain-text rendering of explanations and run diffs.

The same information the JSON carries, shaped for a terminal: the
critical path as an indented chain with waits and retries called out,
the utilization summary as the familiar bar rows, and the bound-class
breakdown as percentages of the makespan. Truncation is always
reported — a clipped view never masquerades as complete.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.explain import ExplainedRun
    from repro.explain.diff import RunDiff

_BAR = "█"


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:10.3f} ms"


def _bar(fraction: float, width: int = 20) -> str:
    return (_BAR * int(round(width * min(max(fraction, 0.0), 1.0)))).ljust(
        width
    )


def format_explanation(run: "ExplainedRun", max_rows: int = 12) -> str:
    """Render one explained run as plain text."""
    lines: List[str] = [
        f"explain: {run.label}",
        f"  makespan {_ms(run.makespan_seconds).strip()}, "
        f"{run.task_count} tasks"
        + (f", {run.retries} retries" if run.retries else "")
        + (f", {run.fault_events} fault events" if run.fault_events else ""),
    ]

    dominant = run.dominant_bound()
    if dominant:
        lines.append(f"  dominant bound class: {dominant}")
    lines.append("")

    if run.seconds_by_bound:
        lines.append("bound classes (share of makespan):")
        total = run.makespan_seconds or 1.0
        for name, seconds in sorted(
            run.seconds_by_bound.items(), key=lambda kv: -kv[1]
        ):
            share = seconds / total
            lines.append(
                f"  {name:>18} |{_bar(share)}| {100 * share:5.1f}%  "
                f"{_ms(seconds).strip()}"
            )
        lines.append("")

    if run.average_utilization:
        lines.append("average resource utilization:")
        for name, value in sorted(
            run.average_utilization.items(), key=lambda kv: -kv[1]
        ):
            lines.append(
                f"  {name:>18} |{_bar(value)}| {100 * value:5.1f}%"
            )
        if run.interconnect_utilization_75 > 0:
            lines.append(
                "  fig14-style CPU->GPU wire utilization vs 75 GB/s: "
                f"{100 * run.interconnect_utilization_75:.1f}%"
            )
        lines.append("")

    if run.critical_path:
        shown = run.critical_path
        clipped = 0
        if len(shown) > max_rows:
            # Keep the longest steps; order is preserved for the shown set.
            keep = set(
                id(step)
                for step in sorted(
                    shown, key=lambda s: -s.attributed_seconds
                )[:max_rows]
            )
            clipped = len(shown) - max_rows
            shown = [step for step in shown if id(step) in keep]
        lines.append(
            f"critical path ({len(run.critical_path)} tasks, "
            f"{_ms(run.critical_path_seconds).strip()} attributed, "
            f"{_ms(run.critical_wait_seconds).strip()} waiting):"
        )
        for step in shown:
            record = step.record
            suffix = ""
            if step.wait_seconds > 0:
                suffix += f"  +{_ms(step.wait_seconds).strip()} wait"
            if record.retries:
                suffix += (
                    f"  [{record.retries} retries, "
                    f"{_ms(record.backoff_seconds).strip()} backoff "
                    "-> dependency-wait]"
                )
            slack = run.slack_seconds.get(record.name)
            if slack is not None and slack > 1e-9:
                suffix += f"  slack {_ms(slack).strip()}"
            lines.append(
                f"  {record.name:>24} {_ms(record.span_seconds)}{suffix}"
            )
        if clipped:
            lines.append(f"  ... {clipped} shorter critical tasks clipped")
        lines.append("")

    if run.bounds:
        slowest = sorted(
            run.bounds, key=lambda b: -b.span_seconds
        )[:max_rows]
        lines.append("slowest tasks and what bounds them:")
        for bound in slowest:
            resource = f" on {bound.resource}" if bound.resource else ""
            lines.append(
                f"  {bound.name:>24} {_ms(bound.span_seconds)}  "
                f"{bound.bound}{resource} "
                f"(share {100 * bound.share:.0f}%)"
            )
        if len(run.bounds) > max_rows:
            lines.append(f"  ... {len(run.bounds) - max_rows} more tasks")
    return "\n".join(lines).rstrip()


def format_diff(diff: "RunDiff", max_rows: int = 8) -> str:
    """Render a run diff as plain text."""
    lines: List[str] = [
        f"diff: {diff.label_a}  ->  {diff.label_b}",
    ]
    for sentence in diff.drivers:
        lines.append(f"  * {sentence}")
    lines.append("")

    moved = [d for d in diff.task_deltas if d.delta_seconds != 0]
    if moved:
        lines.append("task deltas (B - A):")
        for delta in moved[:max_rows]:
            sa = "-" if delta.seconds_a is None else _ms(delta.seconds_a).strip()
            sb = "-" if delta.seconds_b is None else _ms(delta.seconds_b).strip()
            sign = "+" if delta.delta_seconds > 0 else "-"
            tag = f" [{delta.bound}]" if delta.bound else ""
            lines.append(
                f"  {delta.name:>24} {sa:>14} -> {sb:<14} "
                f"{sign}{_ms(abs(delta.delta_seconds)).strip()}{tag}"
            )
        if len(moved) > max_rows:
            lines.append(f"  ... {len(moved) - max_rows} more tasks moved")
        lines.append("")

    changed = [d for d in diff.resource_deltas if d.delta_seconds != 0]
    if changed:
        lines.append("resource deltas (busy seconds, B - A):")
        for delta in changed[:max_rows]:
            sign = "+" if delta.delta_seconds > 0 else "-"
            lines.append(
                f"  {delta.name:>18} {sign}"
                f"{_ms(abs(delta.delta_seconds)).strip()}  "
                f"(util {100 * delta.utilization_a:.1f}% -> "
                f"{100 * delta.utilization_b:.1f}%)"
            )
    return "\n".join(lines).rstrip()
