"""Unit tests for the multi-GPU Triton join extension."""

import numpy as np
import pytest

from repro.data.generator import generate_workload
from repro.errors import ConfigurationError
from repro.join import TritonJoin, reference_join
from repro.join.multi_gpu import XBUS, MultiGpuTritonJoin, _retarget, _suffixed
from repro.sim import resources as res
from repro.sim.tasks import Task


@pytest.fixture(scope="module")
def workload():
    return generate_workload(2048, 2048, scale_divisor=32768, seed=21)


class TestRetargeting:
    def test_per_gpu_resources_renamed(self):
        task = Task(
            name="k",
            demands={res.NVLINK_TO_GPU: 10.0, res.CPU_CORES: 5.0},
            rate_caps={res.NVLINK_TO_GPU: 2.0},
        )
        _retarget(task, 1)
        assert _suffixed(res.NVLINK_TO_GPU, 1) in task.demands
        assert res.NVLINK_TO_GPU not in task.demands
        # Shared (non-GPU) resources keep their names.
        assert res.CPU_CORES in task.demands
        assert task.rate_caps[_suffixed(res.NVLINK_TO_GPU, 1)] == 2.0


class TestCorrectness:
    def test_matches_reference(self, system, workload):
        expected = reference_join(workload.build, workload.probe)
        run = MultiGpuTritonJoin(system, gpu_count=2).run(workload)
        assert run.match == expected

    def test_one_gpu_equals_single_gpu_result(self, system, workload):
        single = TritonJoin(system).run(workload)
        multi = MultiGpuTritonJoin(system, gpu_count=1).run(workload)
        assert multi.match == single.match

    def test_rejects_zero_gpus(self, system):
        with pytest.raises(ConfigurationError):
            MultiGpuTritonJoin(system, gpu_count=0)


class TestScaling:
    def test_two_gpus_speed_up(self, system, workload):
        single = TritonJoin(system).run(workload).seconds
        dual = MultiGpuTritonJoin(system, gpu_count=2).run(workload).seconds
        assert dual < single

    def test_scaling_efficiency_band(self, system, workload):
        # Near-linear: degraded by the X-bus exchange but boosted by the
        # doubled aggregate GPU-memory cache (a larger fraction of the
        # state stays resident), so slight superlinearity is possible.
        single = TritonJoin(system).run(workload).seconds
        multi = MultiGpuTritonJoin(system, gpu_count=2).run(workload).seconds
        efficiency = single / multi / 2
        assert 0.55 < efficiency <= 1.15

    def test_xbus_resource_in_graph(self, system, workload):
        op = MultiGpuTritonJoin(system, gpu_count=2)
        run = op.run(workload)
        assert run.notes["gpu_count"] == 2
        # Part-1 tasks carry X-bus demand.
        part1 = [e for e in run.sim.trace if e.phase == "Part 1"]
        assert len(part1) == 2


class TestTinySlices:
    """A slice never stands for fewer rows than it materializes."""

    def test_fully_materialized_workload_runs(self, system):
        workload = generate_workload(0.001, 0.001, scale_divisor=1)
        assert workload.build.nominal_rows == len(workload.build)
        run = MultiGpuTritonJoin(system).run(workload)
        assert run.match == reference_join(workload.build, workload.probe)
        assert run.seconds > 0

    def test_one_row_relations(self, system):
        from repro.data.generator import Workload, WorkloadConfig
        from repro.data.relation import Relation

        build = Relation(np.array([5]), {"attr0": np.array([50])})
        probe = Relation(np.array([5]), {"attr0": np.array([51])})
        workload = Workload(
            config=WorkloadConfig(1e-6, 1e-6), build=build, probe=probe
        )
        op = MultiGpuTritonJoin(system, gpu_count=3)
        sliced = op._slice_workload(workload)
        assert sliced.build.nominal_rows == sliced.probe.nominal_rows == 1
        run = op.run(workload)
        assert run.match == reference_join(build, probe)
        assert run.match.matches == 1
