"""Declarative SLOs, error budgets, and burn rates for the join service.

An :class:`SLOSpec` states objectives the way an operator would write
them down — *"99% of ``triton-small`` queries finish under 250 ms"*,
*"99.9% of all queries succeed"* — and :class:`SLOMonitor` evaluates
them continuously from the same mergeable log-bucketed histograms the
rest of the telemetry stack uses (:mod:`repro.telemetry.histogram`).
That choice matters: latency objectives are answered by
:meth:`Histogram.fraction_over`, so shards from many workers (or many
processes) merge by bucket addition and the SLO math still works at
fleet scale, with the same one-bucket error bound as every percentile
in ``BENCH_kernels.json``.

Vocabulary (the standard SRE framing):

- **objective** — the target fraction of *good* events, e.g. 0.99.
- **error budget** — ``1 - objective``: the fraction of events allowed
  to be bad before the objective is broken.
- **burn rate** — observed bad fraction over the budget. 1.0 means the
  budget is being consumed exactly as fast as it accrues; 2.0 means the
  window will exhaust a period's budget in half the period. Burn rate
  is the alertable quantity — it is dimensionless and comparable across
  objectives with very different budgets.

Two objective kinds:

- ``latency`` — a query is bad when its wall time exceeds
  ``threshold_seconds``; the bad fraction comes from the histogram.
- ``errors`` — a query is bad when the service reports it failed
  (rejected / errored / timed out); the bad fraction is an exact count
  ratio, so it is deterministic across machines.

The spec is plain JSON (``load_spec``), the monitor plugs into
:class:`repro.service.server.JoinService` (``slo=``) and
``load_gen --slo``, and :func:`history_anomalies` runs the same
"observed over allowed" idea across ``BENCH_history.json`` entries to
flag runs whose wall time jumped far outside their trailing mean.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.telemetry.histogram import Histogram

#: Objective kinds an :class:`SLOObjective` may declare.
OBJECTIVE_KINDS = ("latency", "errors")

#: Matches every plan template in a spec's ``template`` field.
ALL_TEMPLATES = "*"


@dataclass(frozen=True)
class SLOObjective:
    """One declared objective (immutable; validation at construction)."""

    name: str
    kind: str
    objective: float
    #: Plan-template name this objective scopes to, or ``"*"`` for all.
    template: str = ALL_TEMPLATES
    #: Latency objectives only: seconds past which a query is "bad".
    threshold_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("SLO objective needs a name")
        if self.kind not in OBJECTIVE_KINDS:
            raise ConfigurationError(
                f"SLO objective {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {OBJECTIVE_KINDS}"
            )
        if not 0.0 < self.objective < 1.0:
            raise ConfigurationError(
                f"SLO objective {self.name!r}: objective must be in (0, 1), "
                f"got {self.objective!r}"
            )
        if self.kind == "latency":
            if self.threshold_seconds is None or self.threshold_seconds <= 0:
                raise ConfigurationError(
                    f"SLO objective {self.name!r}: latency objectives need "
                    f"a positive threshold_seconds"
                )
        elif self.threshold_seconds is not None:
            raise ConfigurationError(
                f"SLO objective {self.name!r}: threshold_seconds only "
                f"applies to latency objectives"
            )

    @property
    def error_budget(self) -> float:
        """The allowed bad fraction: ``1 - objective``."""
        return 1.0 - self.objective

    @classmethod
    def from_dict(cls, data: dict) -> "SLOObjective":
        if not isinstance(data, dict):
            raise ConfigurationError("SLO objective must be an object")
        unknown = set(data) - {
            "name", "kind", "objective", "template", "threshold_seconds",
        }
        if unknown:
            raise ConfigurationError(
                f"SLO objective has unknown fields: {sorted(unknown)}"
            )
        threshold = data.get("threshold_seconds")
        return cls(
            name=str(data.get("name", "")),
            kind=str(data.get("kind", "")),
            objective=float(data.get("objective", 0.0)),
            template=str(data.get("template", ALL_TEMPLATES)),
            threshold_seconds=(
                None if threshold is None else float(threshold)
            ),
        )

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "template": self.template,
        }
        if self.threshold_seconds is not None:
            out["threshold_seconds"] = self.threshold_seconds
        return out


@dataclass(frozen=True)
class SLOSpec:
    """A set of objectives evaluated together (one service's contract)."""

    objectives: Sequence[SLOObjective] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [objective.name for objective in self.objectives]
        if len(names) != len(set(names)):
            duplicates = sorted(
                {name for name in names if names.count(name) > 1}
            )
            raise ConfigurationError(
                f"duplicate SLO objective names: {duplicates}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "SLOSpec":
        if not isinstance(data, dict):
            raise ConfigurationError("SLO spec must be an object")
        raw = data.get("objectives")
        if not isinstance(raw, list) or not raw:
            raise ConfigurationError(
                "SLO spec needs a non-empty 'objectives' list"
            )
        return cls(
            objectives=tuple(SLOObjective.from_dict(item) for item in raw)
        )

    def to_dict(self) -> dict:
        return {
            "objectives": [
                objective.to_dict() for objective in self.objectives
            ]
        }


def load_spec(path) -> SLOSpec:
    """Load and validate an SLO spec from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return SLOSpec.from_dict(json.load(handle))


def default_spec() -> SLOSpec:
    """The committed default contract for the load-generator mix.

    Error objectives are deterministic (exact count ratios of the
    seeded workload) and gate tightly; the latency objective is wall
    clock and deliberately generous, so the spec passes on any machine
    that is not pathologically slow.
    """
    return SLOSpec(
        objectives=(
            SLOObjective(
                name="availability",
                kind="errors",
                objective=0.999,
            ),
            SLOObjective(
                name="query-latency",
                kind="latency",
                objective=0.95,
                threshold_seconds=5.0,
            ),
        )
    )


class _TemplateWindow:
    """Per-template tallies: a latency histogram plus exact counts."""

    __slots__ = ("histogram", "total", "errors", "by_status")

    def __init__(self) -> None:
        self.histogram = Histogram()
        self.total = 0
        self.errors = 0
        self.by_status: Dict[str, int] = {}

    def record(self, seconds: float, error: bool, status: str) -> None:
        self.total += 1
        if error:
            self.errors += 1
        else:
            # Bad-latency fractions are measured over *successful*
            # queries: a rejected query has no meaningful wall time and
            # already burns the availability budget.
            self.histogram.observe(seconds)
        self.by_status[status] = self.by_status.get(status, 0) + 1


class SLOMonitor:
    """Rolling evaluator: feed it query outcomes, ask for a report.

    Thread-safe — the join service's worker threads record concurrently.
    The monitor is windowless by design (it accumulates for the process
    lifetime); callers that want windows run one monitor per window,
    exactly like they record one event buffer per run.
    """

    def __init__(self, spec) -> None:
        if isinstance(spec, SLOSpec):
            self.spec = spec
        elif isinstance(spec, dict):
            self.spec = SLOSpec.from_dict(spec)
        else:
            raise ConfigurationError(
                f"SLOMonitor needs an SLOSpec or spec dict, "
                f"got {type(spec).__name__}"
            )
        self._lock = threading.Lock()
        self._windows: Dict[str, _TemplateWindow] = {}

    def record(
        self,
        template: str,
        seconds: float,
        error: bool = False,
        status: str = "done",
    ) -> None:
        """Record one finished (or refused) query's outcome."""
        with self._lock:
            window = self._windows.get(template)
            if window is None:
                window = self._windows[template] = _TemplateWindow()
            window.record(float(seconds), bool(error), str(status))

    # -- evaluation ------------------------------------------------------------

    def _scoped(self, template: str) -> _TemplateWindow:
        """The (merged) window an objective's template scope sees."""
        merged = _TemplateWindow()
        for name, window in self._windows.items():
            if template != ALL_TEMPLATES and name != template:
                continue
            merged.histogram.merge(window.histogram)
            merged.total += window.total
            merged.errors += window.errors
            for status, count in window.by_status.items():
                merged.by_status[status] = (
                    merged.by_status.get(status, 0) + count
                )
        return merged

    def evaluate(self, objective: SLOObjective) -> dict:
        """One objective's verdict: bad fraction, budget, burn rate."""
        with self._lock:
            window = self._scoped(objective.template)
        if objective.kind == "errors":
            total = window.total
            bad = float(window.errors)
        else:
            total = window.histogram.count
            bad = total * window.histogram.fraction_over(
                objective.threshold_seconds
            )
        bad_fraction = (bad / total) if total else 0.0
        budget = objective.error_budget
        burn_rate = (bad_fraction / budget) if budget > 0 else math.inf
        return {
            "name": objective.name,
            "kind": objective.kind,
            "template": objective.template,
            "objective": objective.objective,
            "threshold_seconds": objective.threshold_seconds,
            "total": total,
            "bad": bad,
            "bad_fraction": bad_fraction,
            "error_budget": budget,
            #: Fraction of the budget consumed ([0, 1], capped).
            "budget_consumed": min(1.0, burn_rate),
            "burn_rate": burn_rate,
            "ok": bad_fraction <= budget,
        }

    def report(self) -> dict:
        """Every objective's verdict plus an overall pass/fail."""
        verdicts = [
            self.evaluate(objective) for objective in self.spec.objectives
        ]
        with self._lock:
            by_template = {
                name: {
                    "total": window.total,
                    "errors": window.errors,
                    "by_status": dict(sorted(window.by_status.items())),
                    "latency": window.histogram.percentiles(),
                }
                for name, window in sorted(self._windows.items())
            }
        return {
            "kind": "slo-report",
            "ok": all(verdict["ok"] for verdict in verdicts),
            "objectives": verdicts,
            "by_template": by_template,
        }


# -- bench-history anomaly sweep ---------------------------------------------------


def history_anomalies(
    history: dict, factor: float = 5.0, minimum: int = 3
) -> List[dict]:
    """Entries whose per-experiment seconds blew past their history.

    The error-budget idea applied retrospectively: for each experiment
    key in ``BENCH_history.json``, an entry is anomalous when its
    seconds exceed ``factor`` times the mean of all *prior* entries that
    measured the same experiment (requiring at least ``minimum`` priors
    so two noisy early runs cannot flag each other). Returns one dict
    per anomaly — empty means the history is clean.
    """
    if factor <= 1.0:
        raise ConfigurationError("anomaly factor must exceed 1.0")
    entries = history.get("entries", []) if isinstance(history, dict) else []
    seen: Dict[str, List[float]] = {}
    anomalies: List[dict] = []
    for index, entry in enumerate(entries):
        experiments = entry.get("experiments", {})
        if not isinstance(experiments, dict):
            continue
        for name, seconds in sorted(experiments.items()):
            try:
                seconds = float(seconds)
            except (TypeError, ValueError):
                continue
            priors = seen.setdefault(name, [])
            if len(priors) >= minimum:
                mean = sum(priors) / len(priors)
                if mean > 0 and seconds > factor * mean:
                    anomalies.append(
                        {
                            "entry": index,
                            "timestamp": entry.get("timestamp"),
                            "experiment": name,
                            "seconds": seconds,
                            "trailing_mean": mean,
                            "ratio": seconds / mean,
                        }
                    )
            priors.append(seconds)
    return anomalies
