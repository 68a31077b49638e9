"""Unit tests for the simulated timeline and the CLI experiment runner."""

import pytest

from repro.bench.__main__ import main as cli_main
from repro.data.generator import generate_workload
from repro.join import TritonJoin
from repro.sim.engine import SimEngine
from repro.sim.resources import Resource, ResourcePool
from repro.sim.tasks import Task, TaskGraph, chain


@pytest.fixture(scope="module")
def sim_result():
    pool = ResourcePool({"link": Resource("link", 100.0)})
    a = Task(name="a", phase="Phase A", demands={"link": 100.0})
    b = Task(name="b", phase="Phase B", demands={"link": 50.0})
    graph = TaskGraph(chain([a, b]))
    return SimEngine(pool).run(graph), pool


class TestTimeline:
    def test_real_triton_timeline(self, system):
        workload = generate_workload(512, 512, scale_divisor=65536)
        run = TritonJoin(system).run(workload)
        phases = {entry.phase for entry in run.sim.trace}
        assert {"Part 1", "Part 2", "Join"} <= phases


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
