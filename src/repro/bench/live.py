"""Live fleet dashboard for ``python -m repro.bench all --live``.

Renders run progress to **stderr** — stdout stays byte-identical to a
run without ``--live``, so the experiment tables remain pipeable and
diffable (the acceptance property: ``--live`` must never corrupt table
output, TTY or not).

Two render modes, chosen by ``stream.isatty()``:

- **TTY** — an ANSI block redrawn in place each tick: one line per
  experiment slot (queued / running+elapsed / done+seconds) plus a
  footer of fleet vitals (progress, ETA, pool occupancy, spill bytes,
  steals / recoveries / deaths / stalls, faults injected);
- **plain** — one ``[live] ...`` summary line per state change, no
  cursor movement, safe for CI logs.

The vitals come from the parent-side telemetry registry and the
events in the record buffer, which the parallel runner populates as it
absorbs each worker's delta — the dashboard is a reader, never a new
source of truth. ETA is
the mean of completed experiment durations times the remaining count,
scaled by the worker fan-out.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional

from repro import telemetry
from repro.telemetry import tracing
from repro.telemetry.events import counts_by_type

#: Seconds between full repaints in TTY mode (plain mode only prints on
#: state changes, so a tick cadence would spam CI logs).
TICK_SECONDS = 1.0

_HIDE_CURSOR = "\x1b[?25l"
_SHOW_CURSOR = "\x1b[?25h"
_CLEAR_LINE = "\x1b[2K"


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n:.1f}GiB"  # pragma: no cover - unreachable


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--:--"
    seconds = max(0, int(round(seconds)))
    return f"{seconds // 60:02d}:{seconds % 60:02d}"


class LiveDashboard:
    """Tracks per-experiment state and paints it to ``stream``."""

    def __init__(self, names: List[str], jobs: int = 1, stream=None) -> None:
        self.names = list(names)
        self.jobs = max(1, jobs)
        self.stream = sys.stderr if stream is None else stream
        self.tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._state: Dict[str, str] = {name: "queued" for name in self.names}
        self._started: Dict[str, float] = {}
        self._seconds: Dict[str, float] = {}
        self._painted_lines = 0
        self._last_tick = 0.0
        self._epoch = time.time()
        if self.tty:
            self.stream.write(_HIDE_CURSOR)

    # -- state transitions -----------------------------------------------------

    def mark_running(self, name: str) -> None:
        self._state[name] = "running"
        self._started[name] = time.time()
        if not self.tty:
            self._plain(f"start {name}")
        self.tick(force=True)

    def mark_done(self, name: str, seconds: float) -> None:
        self._state[name] = "done"
        self._seconds[name] = seconds
        if not self.tty:
            done = len(self._seconds)
            self._plain(
                f"done  {name} {seconds:.1f}s "
                f"({done}/{len(self.names)}, eta {_fmt_eta(self._eta())})"
            )
        self.tick(force=True)

    # -- vitals ----------------------------------------------------------------

    def _eta(self) -> Optional[float]:
        if not self._seconds:
            return None
        remaining = len(self.names) - len(self._seconds)
        mean = sum(self._seconds.values()) / len(self._seconds)
        return mean * remaining / self.jobs

    def _vitals(self) -> str:
        registry = telemetry.registry
        done = len(self._seconds)
        counts = counts_by_type(tracing.events())
        parts = [
            f"{done}/{len(self.names)} done",
            f"eta {_fmt_eta(self._eta())}",
            f"elapsed {time.time() - self._epoch:.0f}s",
        ]
        occupancy = registry.snapshot()["gauges"].get("exec.pool.occupancy")
        if occupancy is not None:
            parts.append(f"pool occ {occupancy:.0%}")
        spilled = registry.counter("exec.spill.bytes_written")
        if spilled:
            parts.append(f"spill {_fmt_bytes(spilled)}")
        steals = registry.counter("exec.pool.morsels_stolen")
        recovered = registry.counter("exec.pool.morsels_recovered")
        deaths = registry.counter("exec.pool.worker_deaths")
        stalls = registry.counter("exec.pool.worker_stalls")
        if steals or recovered or deaths or stalls:
            parts.append(
                f"steal {steals:g} recover {recovered:g} "
                f"death {deaths:g} stall {stalls:g}"
            )
        faults = counts.get("fault.injected", 0)
        if faults:
            parts.append(f"faults {faults}")
        fallbacks = counts.get("ladder.fallback", 0)
        if fallbacks:
            parts.append(f"fallbacks {fallbacks}")
        return " | ".join(parts)

    # -- painting --------------------------------------------------------------

    def _plain(self, message: str) -> None:
        self.stream.write(f"[live] {message}\n")
        self.stream.flush()

    def _lines(self) -> List[str]:
        now = time.time()
        lines = []
        for name in self.names:
            state = self._state[name]
            if state == "done":
                lines.append(f"  ✓ {name:18s} {self._seconds[name]:6.1f}s")
            elif state == "running":
                lines.append(
                    f"  ▶ {name:18s} {now - self._started[name]:6.1f}s ..."
                )
            else:
                lines.append(f"    {name:18s}      queued")
        lines.append(f"  {self._vitals()}")
        return lines

    def tick(self, force: bool = False) -> None:
        """Repaint (TTY) or emit a heartbeat line (plain, forced only)."""
        now = time.time()
        if not force and now - self._last_tick < TICK_SECONDS:
            return
        self._last_tick = now
        if not self.tty:
            return  # plain mode prints on state changes only
        out = []
        if self._painted_lines:
            out.append(f"\x1b[{self._painted_lines}A")
        lines = self._lines()
        for line in lines:
            out.append(f"{_CLEAR_LINE}{line}\n")
        self._painted_lines = len(lines)
        self.stream.write("".join(out))
        self.stream.flush()

    def close(self) -> None:
        """Final paint + cursor restore; plain mode prints the summary."""
        if self.tty:
            self.tick(force=True)
            self.stream.write(_SHOW_CURSOR)
            self.stream.flush()
        else:
            self._plain(f"finished: {self._vitals()}")
