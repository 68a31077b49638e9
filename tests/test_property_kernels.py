"""Property: the kernel builder's shape memo changes no float.

:class:`~repro.sim.kernels.GpuKernelBuilder` costs a kernel's requests
in one pass: it takes each request's bandwidth from a memo keyed by the
request's shape without ``total_bytes`` and adds the counters straight
into the task. The reference below costs the same requests one by one
through :meth:`GpuModel.access_cost` and merges a fresh counter record
per request. Both must build the same task, float for float, for any
mix of memory spaces, ops, patterns, stream cursors, footprints,
duplex, alignment and efficiency -- including a byte count given per
request through ``request_bytes``.

One builder serves every example, so later examples read shapes that
earlier ones memoized, at other byte counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.counters import PerfCounters
from repro.hw.gpu import GpuModel, MemoryRequest
from repro.hw.interconnect import AccessPattern, Op
from repro.hw.specs import ac922
from repro.hw.tlb import MemSpace
from repro.sim import resources as res
from repro.sim.kernels import GpuKernelBuilder
from repro.sim.tasks import Task

GPU = GpuModel(ac922())
BUILDER = GpuKernelBuilder(GPU)


def reference_task(requests, instructions, sm_fraction, tuples):
    """The kernel task costed request by request through access_cost."""
    demands = {}
    alone = {}
    counters = PerfCounters()
    memory_seconds = 0.0
    cpu_capacity = GPU.system.cpu.memory.bandwidth_bytes_per_s
    iommu = GPU.system.cpu.iommu
    walk_capacity = iommu.page_table_walkers / iommu.walk_latency_s
    for request in requests:
        if request.total_bytes <= 0:
            continue
        cost = GPU.access_cost(request)
        counters.merge(cost.counters)
        memory_seconds = max(memory_seconds, cost.seconds)
        if request.space is MemSpace.GPU:
            resources = (res.GPU_MEM_BW,)
        elif request.op is Op.READ:
            resources = (res.NVLINK_TO_GPU, res.CPU_MEM_BW)
        else:
            resources = (res.NVLINK_TO_CPU, res.CPU_MEM_BW)
        for resource in resources:
            demands[resource] = demands.get(resource, 0.0) + request.total_bytes
            if resource == res.CPU_MEM_BW:
                seconds = request.total_bytes / cpu_capacity
            else:
                seconds = cost.seconds
            alone[resource] = alone.get(resource, 0.0) + seconds
        if cost.walks > 0:
            demands[res.IOMMU_WALKS] = (
                demands.get(res.IOMMU_WALKS, 0.0) + cost.walks
            )
            alone[res.IOMMU_WALKS] = (
                alone.get(res.IOMMU_WALKS, 0.0) + cost.walks / walk_capacity
            )
    rate_caps = {
        resource: demands[resource] / alone[resource]
        for resource in demands
        if alone.get(resource, 0.0) > 0
    }
    compute_seconds = 0.0
    if instructions > 0:
        demands[res.GPU_SM] = instructions
        rate_caps[res.GPU_SM] = GPU.spec.total_ops_per_s * sm_fraction
        compute_seconds = GPU.compute_time(instructions, sm_fraction)
        counters.instructions += instructions
    counters.tuples_processed += tuples
    task = Task(
        name="k", phase="k", demands=demands, rate_caps=rate_caps,
        counters=counters,
    )
    task.meta["memory_seconds"] = memory_seconds
    task.meta["compute_seconds"] = compute_seconds
    return task


def _exact(task):
    """Everything the builder sets, with floats compared by repr."""
    return repr(
        (
            list(task.demands.items()),
            list(task.rate_caps.items()),
            task.counters,
            list(task.meta.items()),
        )
    )


# A handful of shapes per example, so byte counts repeat shapes.
shapes = st.builds(
    dict,
    access_bytes=st.sampled_from([4, 8, 16, 32, 64, 96, 128, 256, 512, 4096]),
    op=st.sampled_from(list(Op)),
    space=st.sampled_from(list(MemSpace)),
    pattern=st.sampled_from(list(AccessPattern)),
    footprint_bytes=st.one_of(
        st.none(), st.floats(min_value=1.0, max_value=2.0**40)
    ),
    aligned=st.booleans(),
    duplex=st.booleans(),
    stream_count=st.one_of(st.none(), st.integers(1, 1 << 14)),
    efficiency=st.sampled_from([1.0, 0.75, 0.5, 0.125]),
)
sizes = st.one_of(
    st.just(0.0),
    st.floats(min_value=1.0, max_value=2.0**38),
    st.integers(1, 1 << 36).map(float),
)
kernels = st.lists(shapes, min_size=1, max_size=4).flatmap(
    lambda menu: st.lists(
        st.tuples(st.sampled_from(menu), sizes), max_size=8
    )
)


@settings(max_examples=300, deadline=None)
@given(
    kernel=kernels,
    instructions=st.sampled_from([0.0, 1e3, 3.5e9]),
    sm_fraction=st.sampled_from([1.0, 0.5, 0.25]),
    tuples=st.floats(min_value=0.0, max_value=1e10),
    per_request_bytes=st.booleans(),
)
def test_memoized_costing_matches_per_request_costing(
    kernel, instructions, sm_fraction, tuples, per_request_bytes
):
    requests = [MemoryRequest(total_bytes=b, **shape) for shape, b in kernel]
    expected = reference_task(requests, instructions, sm_fraction, tuples)
    if per_request_bytes:
        templates = [
            MemoryRequest(total_bytes=0.0, **shape) for shape, _ in kernel
        ]
        task = BUILDER.build(
            "k", templates, instructions=instructions,
            sm_fraction=sm_fraction, tuples=tuples,
            request_bytes=[b for _, b in kernel],
        )
    else:
        task = BUILDER.build(
            "k", requests, instructions=instructions,
            sm_fraction=sm_fraction, tuples=tuples,
        )
    assert _exact(task) == _exact(expected)
