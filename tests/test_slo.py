"""SLO specs, error budgets, burn rates, and the history anomaly sweep.

Burn-rate fixtures are hand-computed: the monitor's output must equal
the textbook definitions (budget = 1 - objective; burn rate =
bad_fraction / budget), not merely be self-consistent.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.slo import (
    ALL_TEMPLATES,
    SLOMonitor,
    SLOObjective,
    SLOSpec,
    default_spec,
    history_anomalies,
    load_spec,
)


class TestSpecValidation:
    def test_objective_must_be_a_fraction(self):
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ConfigurationError, match=r"\(0, 1\)"):
                SLOObjective(name="x", kind="errors", objective=bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kind"):
            SLOObjective(name="x", kind="uptime", objective=0.99)

    def test_latency_needs_a_positive_threshold(self):
        with pytest.raises(ConfigurationError, match="threshold_seconds"):
            SLOObjective(name="x", kind="latency", objective=0.99)
        with pytest.raises(ConfigurationError, match="threshold_seconds"):
            SLOObjective(
                name="x", kind="latency", objective=0.99,
                threshold_seconds=0.0,
            )

    def test_errors_objective_rejects_threshold(self):
        with pytest.raises(ConfigurationError, match="only"):
            SLOObjective(
                name="x", kind="errors", objective=0.99,
                threshold_seconds=1.0,
            )

    def test_nameless_objective_rejected(self):
        with pytest.raises(ConfigurationError, match="name"):
            SLOObjective(name="", kind="errors", objective=0.99)

    def test_duplicate_names_rejected(self):
        objective = SLOObjective(name="x", kind="errors", objective=0.99)
        with pytest.raises(ConfigurationError, match="duplicate"):
            SLOSpec(objectives=(objective, objective))

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            SLOObjective.from_dict(
                {"name": "x", "kind": "errors", "objective": 0.99,
                 "window": "30d"}
            )

    def test_spec_dict_round_trip(self):
        spec = default_spec()
        clone = SLOSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_load_spec_from_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(default_spec().to_dict()))
        assert load_spec(path) == default_spec()

    def test_empty_objectives_list_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            SLOSpec.from_dict({"objectives": []})

    def test_error_budget_is_one_minus_objective(self):
        objective = SLOObjective(name="x", kind="errors", objective=0.999)
        assert objective.error_budget == pytest.approx(0.001)


class TestBurnRateMath:
    def test_errors_burn_rate_exact_fixture(self):
        # 1000 queries, 2 failures, 99.9% objective: budget 0.1%, bad
        # fraction 0.2% -> burn rate exactly 2.0, objective violated.
        monitor = SLOMonitor(
            SLOSpec(objectives=(
                SLOObjective(name="avail", kind="errors", objective=0.999),
            ))
        )
        for i in range(1000):
            monitor.record(
                "t", 0.01, error=(i < 2),
                status="failed" if i < 2 else "done",
            )
        verdict = monitor.evaluate(monitor.spec.objectives[0])
        assert verdict["total"] == 1000
        assert verdict["bad"] == 2.0
        assert verdict["bad_fraction"] == pytest.approx(0.002)
        assert verdict["error_budget"] == pytest.approx(0.001)
        assert verdict["burn_rate"] == pytest.approx(2.0)
        assert verdict["budget_consumed"] == 1.0  # capped
        assert not verdict["ok"]

    def test_exactly_at_budget_is_ok(self):
        # 1 failure in 1000 against 99.9%: burn rate 1.0, still within.
        monitor = SLOMonitor(
            {"objectives": [
                {"name": "avail", "kind": "errors", "objective": 0.999},
            ]}
        )
        for i in range(1000):
            monitor.record("t", 0.01, error=(i == 0))
        verdict = monitor.evaluate(monitor.spec.objectives[0])
        assert verdict["burn_rate"] == pytest.approx(1.0)
        assert verdict["ok"]

    def test_latency_burn_rate_fixture(self):
        # 90 fast + 10 slow against p95 under 1s: bad fraction 10%,
        # budget 5% -> burn rate 2.0.
        monitor = SLOMonitor(
            SLOSpec(objectives=(
                SLOObjective(
                    name="lat", kind="latency", objective=0.95,
                    threshold_seconds=1.0,
                ),
            ))
        )
        for _ in range(90):
            monitor.record("t", 0.1)
        for _ in range(10):
            monitor.record("t", 2.0)
        verdict = monitor.evaluate(monitor.spec.objectives[0])
        assert verdict["bad_fraction"] == pytest.approx(0.1)
        assert verdict["burn_rate"] == pytest.approx(2.0)
        assert not verdict["ok"]

    def test_latency_measured_over_successes_only(self):
        # A rejected query has no wall time: it burns the availability
        # budget, not the latency one.
        monitor = SLOMonitor(
            SLOSpec(objectives=(
                SLOObjective(
                    name="lat", kind="latency", objective=0.95,
                    threshold_seconds=1.0,
                ),
            ))
        )
        monitor.record("t", 0.1)
        monitor.record("t", 0.0, error=True, status="rejected")
        verdict = monitor.evaluate(monitor.spec.objectives[0])
        assert verdict["total"] == 1
        assert verdict["bad_fraction"] == 0.0
        assert verdict["ok"]

    def test_template_scoping(self):
        spec = SLOSpec(objectives=(
            SLOObjective(
                name="small-only", kind="errors", objective=0.5,
                template="small",
            ),
            SLOObjective(name="all", kind="errors", objective=0.5),
        ))
        monitor = SLOMonitor(spec)
        monitor.record("small", 0.1)
        monitor.record("big", 0.1, error=True, status="failed")
        scoped, unscoped = (
            monitor.evaluate(spec.objectives[0]),
            monitor.evaluate(spec.objectives[1]),
        )
        assert scoped["total"] == 1 and scoped["bad"] == 0.0
        assert unscoped["total"] == 2 and unscoped["bad"] == 1.0
        assert scoped["ok"] and unscoped["ok"]  # 50% budget holds both

    def test_empty_monitor_reports_zero_burn(self):
        monitor = SLOMonitor(default_spec())
        report = monitor.report()
        assert report["ok"]
        assert all(
            verdict["burn_rate"] == 0.0 for verdict in report["objectives"]
        )
        assert report["by_template"] == {}

    def test_report_shape(self):
        monitor = SLOMonitor(default_spec())
        monitor.record("t", 0.1)
        monitor.record("t", 0.2, error=True, status="timeout")
        report = monitor.report()
        assert report["kind"] == "slo-report"
        assert {v["name"] for v in report["objectives"]} == {
            "availability", "query-latency",
        }
        window = report["by_template"]["t"]
        assert window["total"] == 2
        assert window["errors"] == 1
        assert window["by_status"] == {"done": 1, "timeout": 1}

    def test_monitor_rejects_garbage_spec(self):
        with pytest.raises(ConfigurationError, match="SLOSpec"):
            SLOMonitor(["not", "a", "spec"])

    def test_default_spec_scopes_all_templates(self):
        assert all(
            objective.template == ALL_TEMPLATES
            for objective in default_spec().objectives
        )


class TestHistoryAnomalies:
    def _history(self, series):
        return {
            "entries": [
                {"timestamp": f"t{i}", "experiments": {"fig13": seconds}}
                for i, seconds in enumerate(series)
            ]
        }

    def test_clean_history_has_no_anomalies(self):
        assert history_anomalies(self._history([1.0, 1.1, 0.9, 1.0])) == []

    def test_blowup_after_enough_priors_is_flagged(self):
        anomalies = history_anomalies(
            self._history([1.0, 1.0, 1.0, 10.0]), factor=5.0
        )
        assert len(anomalies) == 1
        anomaly = anomalies[0]
        assert anomaly["experiment"] == "fig13"
        assert anomaly["entry"] == 3
        assert anomaly["seconds"] == 10.0
        assert anomaly["trailing_mean"] == pytest.approx(1.0)
        assert anomaly["ratio"] == pytest.approx(10.0)

    def test_too_few_priors_never_flag(self):
        # Two noisy early runs cannot flag each other.
        assert history_anomalies(self._history([1.0, 10.0, 100.0])) == []

    def test_anomalous_entry_still_joins_the_trailing_mean(self):
        # After the spike, the mean includes it, so a return to normal
        # is not flagged as an anomaly in the other direction.
        anomalies = history_anomalies(
            self._history([1.0, 1.0, 1.0, 10.0, 1.0]), factor=5.0
        )
        assert [a["entry"] for a in anomalies] == [3]

    def test_factor_must_exceed_one(self):
        with pytest.raises(ConfigurationError, match="factor"):
            history_anomalies(self._history([1.0]), factor=1.0)

    def test_malformed_entries_are_skipped(self):
        history = {
            "entries": [
                {"experiments": "not-a-dict"},
                {"experiments": {"fig13": "not-a-number"}},
                {"no_experiments": True},
            ]
        }
        assert history_anomalies(history) == []
