"""Unit tests for the Gantt visualizer and the CLI experiment runner."""

import pytest

from repro.bench.__main__ import main as cli_main
from repro.data.generator import generate_workload
from repro.errors import ConfigurationError
from repro.join import TritonJoin
from repro.sim.engine import SimEngine
from repro.sim.resources import Resource, ResourcePool
from repro.sim.tasks import Task, TaskGraph, chain
from repro.sim.visualize import gantt


@pytest.fixture(scope="module")
def sim_result():
    pool = ResourcePool({"link": Resource("link", 100.0)})
    a = Task(name="a", phase="Phase A", demands={"link": 100.0})
    b = Task(name="b", phase="Phase B", demands={"link": 50.0})
    graph = TaskGraph(chain([a, b]))
    return SimEngine(pool).run(graph), pool


class TestGantt:
    def test_contains_all_phases(self, sim_result):
        result, _ = sim_result
        chart = gantt(result)
        assert "Phase A" in chart
        assert "Phase B" in chart
        assert "timeline" in chart

    def test_per_task_mode(self, sim_result):
        result, _ = sim_result
        chart = gantt(result, by_phase=False)
        assert "a " in chart or chart.count("|") >= 4

    def test_sequence_is_visible(self, sim_result):
        result, _ = sim_result
        lines = gantt(result, width=30).splitlines()[1:]
        row_a = next(l for l in lines if "Phase A" in l)
        row_b = next(l for l in lines if "Phase B" in l)
        bar_a = row_a.split("|")[1]
        bar_b = row_b.split("|")[1]
        # A occupies the first two thirds, B the last third.
        assert bar_a[:10].count("█") > 5
        assert bar_b[:10].strip() == ""
        assert bar_b[-8:].count("█") > 3

    def test_row_limit(self):
        pool = ResourcePool({"link": Resource("link", 100.0)})
        tasks = chain(
            [Task(name=f"t{i}", demands={"link": 10.0}) for i in range(50)]
        )
        result = SimEngine(pool).run(TaskGraph(tasks))
        chart = gantt(result, by_phase=False, max_rows=5)
        assert "more tasks" in chart

    def test_rejects_tiny_width(self, sim_result):
        result, _ = sim_result
        with pytest.raises(ConfigurationError):
            gantt(result, width=2)

    def test_real_triton_timeline(self, system):
        workload = generate_workload(512, 512, scale_divisor=65536)
        run = TritonJoin(system).run(workload)
        chart = gantt(run.sim)
        for phase in ("Part 1", "Part 2", "Join"):
            assert phase in chart


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out
        assert "ext_interconnect" in out

    def test_run_single_experiment(self, capsys):
        assert cli_main(["fig06"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6(a)" in out

    def test_run_with_sizes_and_divisor(self, capsys):
        code = cli_main(["fig01", "--sizes", "128,2048", "--divisor", "65536"])
        assert code == 0
        out = capsys.readouterr().out
        assert "128M" in out and "2048M" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["bogus"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestExplainFormat:
    def test_explain_on_synthetic_result(self, sim_result):
        from repro import explain

        result, pool = sim_result
        explained = explain.explain(result, pool=pool, label="toy")
        assert explained.verify() == []
        # a saturates the link; b runs at half rate afterwards.
        assert explained.average_utilization["link"] > 0.5
        assert [s.record.name for s in explained.critical_path] == ["a", "b"]
