"""Execution traces and phase breakdowns.

The paper accounts where join time goes per kernel (Fig. 15a) and which
stall reasons dominate (Fig. 15b). The simulator produces a trace of
(task, phase, start, end) entries; :class:`PhaseBreakdown` turns it into
the percentage-of-total-time view the paper plots, splitting overlapped
wall-clock time between concurrently running phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class TraceEntry:
    """One completed task occurrence in the simulated timeline."""

    name: str
    phase: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TaskRecord:
    """One task occurrence with the scheduling facts attribution needs.

    Unlike :class:`TraceEntry` (which only names the completed interval),
    a record carries the dependency edges, the resource demands, and the
    retry accounting — everything :mod:`repro.explain` uses to walk the
    critical path and classify what bounded the task. ``start`` is the
    *first attempt's* start (dependencies were satisfied then); ``end``
    is the final completion, so a retried task's span includes its failed
    attempts and backoff waits.
    """

    task_id: int
    name: str
    phase: str
    start: float
    end: float
    demands: Dict[str, float] = field(default_factory=dict, compare=False)
    dep_ids: Tuple[int, ...] = ()
    min_seconds: float = 0.0
    retries: int = 0
    #: Simulated seconds spent waiting out retry backoff inside the span.
    backoff_seconds: float = 0.0
    #: Simulated seconds the task actually progressed (all attempts).
    active_seconds: float = 0.0

    @property
    def span_seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "name": self.name,
            "phase": self.phase,
            "start": self.start,
            "end": self.end,
            "demands": dict(self.demands),
            "dep_ids": list(self.dep_ids),
            "min_seconds": self.min_seconds,
            "retries": self.retries,
            "backoff_seconds": self.backoff_seconds,
            "active_seconds": self.active_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TaskRecord":
        return cls(
            task_id=int(data["task_id"]),
            name=data["name"],
            phase=data["phase"],
            start=float(data["start"]),
            end=float(data["end"]),
            demands={k: float(v) for k, v in data.get("demands", {}).items()},
            dep_ids=tuple(int(i) for i in data.get("dep_ids", ())),
            min_seconds=float(data.get("min_seconds", 0.0)),
            retries=int(data.get("retries", 0)),
            backoff_seconds=float(data.get("backoff_seconds", 0.0)),
            active_seconds=float(data.get("active_seconds", 0.0)),
        )


@dataclass(frozen=True)
class OccupancyInterval:
    """Resource draw during one scheduling step of the engine.

    ``usage`` maps resource names to the absolute rate (units/second)
    the running tasks collectively drew over ``[start, end)``. The
    engine emits one interval per time-advancing scheduling round;
    integrating ``usage[r] * (end - start)`` over all intervals
    reproduces ``SimResult.resource_busy_units[r]``, which is the
    cross-check :mod:`repro.explain` verifies.
    """

    start: float
    end: float
    usage: Dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "usage": dict(self.usage),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OccupancyInterval":
        return cls(
            start=float(data["start"]),
            end=float(data["end"]),
            usage={k: float(v) for k, v in data.get("usage", {}).items()},
        )


@dataclass(frozen=True)
class PhaseBreakdown:
    """Wall-clock seconds attributed to each phase; sums to the makespan."""

    seconds_by_phase: Dict[str, float]
    total_seconds: float

    @classmethod
    def from_trace(
        cls, trace: List[TraceEntry], makespan: float
    ) -> "PhaseBreakdown":
        """Split the timeline into slices; share each slice among phases.

        Within every time slice bounded by task starts/ends, each active
        phase receives an equal share of the slice (tasks of the same
        phase pool their share). The result preserves the paper's reading
        of the breakdown: percentages sum to 100% of the runtime.
        """
        if not trace:
            return cls(seconds_by_phase={}, total_seconds=0.0)
        boundaries = sorted({e.start for e in trace} | {e.end for e in trace})
        seconds: Dict[str, float] = {}
        for lo, hi in zip(boundaries, boundaries[1:]):
            if hi <= lo:
                continue
            active_phases = {
                e.phase for e in trace if e.start < hi and e.end > lo
            }
            if not active_phases:
                continue
            share = (hi - lo) / len(active_phases)
            for phase in active_phases:
                seconds[phase] = seconds.get(phase, 0.0) + share
        return cls(seconds_by_phase=seconds, total_seconds=makespan)

    def fraction(self, phase: str) -> float:
        """Fraction of total time spent in ``phase``."""
        if self.total_seconds <= 0:
            return 0.0
        return self.seconds_by_phase.get(phase, 0.0) / self.total_seconds

    def percentages(self) -> Dict[str, float]:
        """Phase percentages, normalized to sum to 100."""
        total = sum(self.seconds_by_phase.values())
        if total <= 0:
            return {phase: 0.0 for phase in self.seconds_by_phase}
        return {
            phase: 100.0 * sec / total
            for phase, sec in self.seconds_by_phase.items()
        }
