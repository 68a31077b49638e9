"""Multi-GPU Triton join (an extension beyond the paper).

The paper evaluates a single GPU and cites multi-GPU joins (MG-Join,
Gao & Sakharnykh) as related work. The AC922 actually carries two V100s,
one per POWER9 socket, each with its own NVLink 2.0 — so this extension
scales the Triton join across GPUs:

- The base relations are split evenly across the sockets; each GPU runs
  the first partitioning pass over its socket's slice.
- Radix ranges are owned by GPUs: tuples whose first-pass partition
  belongs to the other GPU cross the inter-socket X-bus (64 GB/s on the
  AC922) during the exchange — the classic shuffle cost.
- Each GPU then runs its own second-pass + join pipeline over its
  partition range, exactly like the single-GPU Triton join.

Per-GPU links, SM pools, GPU memories, CPU memories, and IOMMUs are
independent simulator resources; the X-bus is shared. The expected
behaviour (asserted in tests): near-linear scaling, degraded by the
exchange — a faithful miniature of the multi-GPU literature's findings.

Fault plans (:mod:`repro.faults`) target the suffixed per-GPU resources
with ``*`` patterns: ``"nvlink_to_gpu[1]"`` degrades one GPU's inbound
link, ``"nvlink_*"`` all links on all GPUs, ``"xbus"`` the shared
exchange. Task faults match the suffixed task names the same way (e.g.
``"join[*]@1"`` for GPU 1's join kernels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.data.generator import Workload
from repro.errors import ConfigurationError
from repro.join.base import JoinMatch, JoinOperator, JoinRun
from repro.join.triton import TritonJoin
from repro.sim import resources as res
from repro.sim.resources import Resource, ResourcePool
from repro.sim.tasks import Task, TaskGraph

#: AC922 inter-socket SMP interconnect (X-bus) bandwidth.
DEFAULT_XBUS_BYTES_PER_S = 64e9
XBUS = "xbus"

#: Resources that are private to one GPU (or its socket).
_PER_GPU_RESOURCES = (
    res.NVLINK_TO_GPU,
    res.NVLINK_TO_CPU,
    res.GPU_MEM_BW,
    res.GPU_SM,
    res.CPU_MEM_BW,
    res.IOMMU_WALKS,
)


def _suffixed(name: str, gpu: int) -> str:
    return f"{name}[{gpu}]"


def _retarget(task: Task, gpu: int) -> Task:
    """Move a task's per-GPU resource demands onto GPU ``gpu``'s copies.

    Also tags the task name with its GPU (``join[0]@1``) so traces stay
    unambiguous and fault plans can target one GPU's kernels — and so
    the deterministic per-task-name failure draws of
    :class:`repro.faults.TaskFault` are independent across GPUs.
    """
    for mapping in (task.demands, task.rate_caps):
        for name in list(mapping):
            if name in _PER_GPU_RESOURCES:
                mapping[_suffixed(name, gpu)] = mapping.pop(name)
    task.name = f"{task.name}@{gpu}"
    return task


@dataclass(frozen=True)
class MultiGpuTritonJoin(JoinOperator):
    """The Triton join scaled over multiple GPUs with radix ownership.

    The single-GPU :class:`TritonJoin` that plans and executes each
    GPU's slice is the ``triton`` field (the default Triton join when
    left out).
    """

    gpu_count: int = 2
    triton: Optional[TritonJoin] = None

    def __post_init__(self) -> None:
        if self.gpu_count < 1:
            raise ConfigurationError("gpu_count must be >= 1")
        if self.triton is None:
            object.__setattr__(self, "triton", TritonJoin(self.system))

    @property
    def name(self) -> str:
        return f"Multi-GPU Triton Join ({self.gpu_count} GPUs)"

    def resources(self) -> ResourcePool:
        """Per-GPU copies of every private resource, plus the X-bus."""
        base = ResourcePool.for_system(self.system)
        resources: Dict[str, Resource] = {}
        for gpu in range(self.gpu_count):
            for name in _PER_GPU_RESOURCES:
                suffixed = _suffixed(name, gpu)
                resources[suffixed] = Resource(suffixed, base.capacity(name))
        # Shared cross-socket exchange path.
        resources[XBUS] = Resource(XBUS, DEFAULT_XBUS_BYTES_PER_S)
        # Keep the base names too: CPU-side tasks (prefix sums) use them.
        for name in base.names():
            resources[name] = Resource(name, base.capacity(name))
        return ResourcePool(resources)

    def _slice_workload(self, workload: Workload) -> Workload:
        """A 1/gpu_count slice of the workload, nominally scaled.

        The slice keeps every materialized row, so it never stands for
        fewer rows than it holds (a tiny workload's slice is the
        workload itself).
        """
        build, probe = (
            relation.with_nominal_rows(
                max(relation.nominal_rows // self.gpu_count, len(relation))
            )
            for relation in (workload.build, workload.probe)
        )
        return Workload(config=workload.config, build=build, probe=probe)

    def prepare(self, workload: Workload) -> dict:
        return {"plan": self.triton.plan(workload)}

    def functional(self, workload: Workload, plan) -> JoinMatch:
        # Radix ownership does not change the result, so the single-GPU
        # functional join verifies correctness.
        return self.triton.functional(workload, plan)

    def build_graph(self, workload: Workload, plan=None) -> TaskGraph:
        """Each GPU's Triton pipeline over its slice, on its resources.

        The slice's own plan may pick fewer radix bits than the whole
        workload's (``plan`` is not used), so each slice histograms
        itself.
        """
        slice_workload = self._slice_workload(workload)
        graph = TaskGraph()
        exchange_fraction = (self.gpu_count - 1) / self.gpu_count
        exchange_bytes = slice_workload.total_nominal_bytes * exchange_fraction
        for gpu in range(self.gpu_count):
            for task in self.triton.build_graph(slice_workload).tasks:
                _retarget(task, gpu)
                graph.add(task)
                # The first pass's spilled writes that land in the
                # other socket's partition ranges cross the X-bus.
                if task.phase == "Part 1" and exchange_fraction > 0:
                    demand = task.demands.get(XBUS, 0.0) + exchange_bytes
                    task.demands[XBUS] = demand
                    task.rate_caps[XBUS] = DEFAULT_XBUS_BYTES_PER_S
        return graph

    def annotate(self, run: JoinRun, plan) -> None:
        run.notes["gpu_count"] = self.gpu_count
        run.notes["plan_bits"] = plan.bits_per_pass
