"""Join operators are frozen records; the run-cache key is their hash.

Every concrete :class:`~repro.join.base.JoinOperator` is a frozen
dataclass of its configuration with a traced, memoized ``run`` in its
own class body (per-class instrumentation wraps only what a class
defines itself). Equal configurations give equal run-cache keys, and
changing any one field, or the workload's lineage, gives a new key.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.aggregate import (
    NoPartitioningAggregation,
    NoPartitioningDistinct,
    TritonAggregation,
    TritonDistinct,
)
from repro.data.generator import generate_workload
from repro.hashing.hash_table import HashScheme
from repro.hw.specs import ac922, v100_pcie, xeon_system
from repro.join import (
    BloomFilteredTritonJoin,
    CachePolicy,
    CoProcessingJoin,
    CpuPartitionedJoin,
    CpuRadixJoin,
    MultiGpuTritonJoin,
    NoPartitioningJoin,
    TritonJoin,
)
from repro.join.base import JoinOperator, Operator
from repro.join.run_cache import run_key
from repro.partition.hierarchical import HierarchicalPartitioner
from repro.partition.prefix_sum import PrefixSumLocation
from repro.partition.shared import SharedPartitioner
from repro.partition.standard import StandardPartitioner
from repro.sort import CpuRadixSort, GpuRadixSort

SYSTEM = ac922()

#: Per operator class: a maker for the default configuration, and for
#: every field a maker of the default with only that field changed.
CASES = {
    TritonJoin: (
        lambda: TritonJoin(SYSTEM),
        {
            "system": lambda: TritonJoin(v100_pcie()),
            "scheme": lambda: TritonJoin(SYSTEM, scheme=HashScheme.PERFECT),
            "first_pass": lambda: TritonJoin(
                SYSTEM, first_pass=StandardPartitioner()
            ),
            "cache_policy": lambda: TritonJoin(
                SYSTEM, cache_policy=CachePolicy.NONE
            ),
            "cache_bytes": lambda: TritonJoin(SYSTEM, cache_bytes=2**30),
            "prefix_sum": lambda: TritonJoin(
                SYSTEM, prefix_sum=PrefixSumLocation.GPU
            ),
            "overlap": lambda: TritonJoin(SYSTEM, overlap=False),
            "aggregate": lambda: TritonJoin(SYSTEM, aggregate=True),
            "reference": lambda: TritonJoin(SYSTEM, reference=True),
            "degraded": lambda: TritonJoin(SYSTEM, degraded=True),
        },
    ),
    NoPartitioningJoin: (
        lambda: NoPartitioningJoin(SYSTEM),
        {
            "system": lambda: NoPartitioningJoin(v100_pcie()),
            "scheme": lambda: NoPartitioningJoin(
                SYSTEM, scheme=HashScheme.LINEAR_PROBING
            ),
            "cache_bytes": lambda: NoPartitioningJoin(
                SYSTEM, cache_bytes=2**30
            ),
        },
    ),
    CpuRadixJoin: (
        lambda: CpuRadixJoin(SYSTEM),
        {
            "system": lambda: CpuRadixJoin(xeon_system()),
            "scheme": lambda: CpuRadixJoin(
                SYSTEM, scheme=HashScheme.BUCKET_CHAINING
            ),
            "reference": lambda: CpuRadixJoin(SYSTEM, reference=True),
        },
    ),
    CpuPartitionedJoin: (
        lambda: CpuPartitionedJoin(SYSTEM),
        {
            "system": lambda: CpuPartitionedJoin(v100_pcie()),
            "reference": lambda: CpuPartitionedJoin(SYSTEM, reference=True),
        },
    ),
    CoProcessingJoin: (
        lambda: CoProcessingJoin(SYSTEM),
        {
            "system": lambda: CoProcessingJoin(v100_pcie()),
            "cpu_fraction": lambda: CoProcessingJoin(SYSTEM, cpu_fraction=0.5),
            "reference": lambda: CoProcessingJoin(SYSTEM, reference=True),
            "label": lambda: CoProcessingJoin(SYSTEM, label="other"),
        },
    ),
    MultiGpuTritonJoin: (
        lambda: MultiGpuTritonJoin(SYSTEM),
        {
            "system": lambda: MultiGpuTritonJoin(v100_pcie()),
            "gpu_count": lambda: MultiGpuTritonJoin(SYSTEM, gpu_count=3),
            "triton": lambda: MultiGpuTritonJoin(
                SYSTEM, triton=TritonJoin(SYSTEM, reference=True)
            ),
        },
    ),
    BloomFilteredTritonJoin: (
        lambda: BloomFilteredTritonJoin(SYSTEM),
        {
            "system": lambda: BloomFilteredTritonJoin(v100_pcie()),
            "inner": lambda: BloomFilteredTritonJoin(
                SYSTEM, inner=TritonJoin(SYSTEM, aggregate=True)
            ),
        },
    ),
}


def _concrete_operators(cls=JoinOperator):
    for sub in cls.__subclasses__():
        if not inspect.isabstract(sub):
            yield sub
        yield from _concrete_operators(sub)


@pytest.fixture(scope="module")
def workload():
    return generate_workload(64, 64, scale_divisor=65536, seed=3)


def test_every_concrete_operator_is_covered():
    assert set(CASES) <= set(_concrete_operators())
    assert {
        cls for cls in _concrete_operators() if cls.__module__.startswith("repro.")
    } == set(CASES)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
class TestOperatorRecord:
    def test_frozen_dataclass(self, cls):
        assert dataclasses.is_dataclass(cls)
        assert cls.__dataclass_params__.frozen
        operator = CASES[cls][0]()
        with pytest.raises(dataclasses.FrozenInstanceError):
            operator.system = SYSTEM

    def test_wrapped_run_in_own_class_body(self, cls):
        run = cls.__dict__["run"]
        assert inspect.unwrap(run) is not run

    def test_every_field_has_a_variant(self, cls):
        assert set(CASES[cls][1]) == {f.name for f in dataclasses.fields(cls)}

    def test_equal_configurations_give_equal_keys(self, cls, workload):
        make = CASES[cls][0]
        first, second = make(), make()
        assert first is not second
        assert run_key(first, workload) == run_key(second, workload)
        assert hash(run_key(first, workload)) == hash(
            run_key(second, workload)
        )

    def test_each_field_changes_the_key(self, cls, workload):
        make, variants = CASES[cls]
        default = make()
        key = run_key(default, workload)
        for name, make_variant in variants.items():
            variant = make_variant()
            # Other fields may differ too: a system change also reaches
            # an inner operator's system.
            assert getattr(variant, name) != getattr(default, name), name
            assert run_key(variant, workload) != key, name

    def test_replace_rebuilds_an_equal_record(self, cls):
        operator = CASES[cls][0]()
        assert dataclasses.replace(operator) == operator

    def test_lineage_changes_the_key(self, cls, workload):
        operator = CASES[cls][0]()
        derived = dataclasses.replace(workload, lineage="filter(scan)")
        assert run_key(operator, derived) != run_key(operator, workload)


def test_settable_fields():
    """The join and aggregation records keep 22 settable fields beside
    ``system``: each is set outside the tests or selects a reference
    mode. A fixed model parameter is a module constant instead."""
    join_fields = sum(len(variants) - 1 for _, variants in CASES.values())
    aggregation_fields = [
        {f.name for f in dataclasses.fields(cls) if f.init} - {"system"}
        for cls in (
            TritonAggregation,
            NoPartitioningAggregation,
            TritonDistinct,
            NoPartitioningDistinct,
        )
    ]
    assert aggregation_fields == [{"function"}, {"function"}, set(), set()]
    assert join_fields + 2 == 22


@pytest.mark.parametrize(
    "cls", [GpuRadixSort, CpuRadixSort], ids=lambda cls: cls.__name__
)
class TestSortRecord:
    """The sorts are frozen records of their system alone."""

    def test_frozen_dataclass(self, cls):
        assert dataclasses.is_dataclass(cls)
        assert cls.__dataclass_params__.frozen
        with pytest.raises(dataclasses.FrozenInstanceError):
            cls(SYSTEM).system = SYSTEM

    def test_value_equal(self, cls):
        assert cls(SYSTEM) == cls(SYSTEM)
        assert hash(cls(SYSTEM)) == hash(cls(SYSTEM))
        assert cls(SYSTEM) != cls(xeon_system())
        assert dataclasses.replace(cls(SYSTEM)) == cls(SYSTEM)

    def test_no_settable_field_beside_system(self, cls):
        assert {f.name for f in dataclasses.fields(cls) if f.init} == {"system"}


#: Per record, keywords that were fixed model parameters, and a value.
FIXED_PARAMETERS = [
    (TritonJoin, "second_pass", SharedPartitioner()),
    (TritonJoin, "pipeline_chunks", 4),
    (NoPartitioningJoin, "aggregate", True),
    (CpuPartitionedJoin, "scheme", HashScheme.PERFECT),
    (CpuPartitionedJoin, "pipeline_chunks", 4),
    (CpuPartitionedJoin, "aggregate", True),
    (CoProcessingJoin, "scheme", HashScheme.PERFECT),
    (CoProcessingJoin, "cpu_scheme", HashScheme.BUCKET_CHAINING),
    (CoProcessingJoin, "pipeline_chunks", 4),
    (MultiGpuTritonJoin, "xbus_bytes_per_s", 8e9),
    (BloomFilteredTritonJoin, "bits_per_key", 8),
    (TritonAggregation, "cache_policy", CachePolicy.NONE),
    (GpuRadixSort, "first_pass_bits", 8),
    (CpuRadixSort, "digit_bits", 11),
]


@pytest.mark.parametrize(
    "cls, keyword, value",
    FIXED_PARAMETERS,
    ids=[f"{cls.__name__}-{keyword}" for cls, keyword, _ in FIXED_PARAMETERS],
)
def test_fixed_parameters_are_not_keywords(cls, keyword, value):
    with pytest.raises(TypeError):
        cls(SYSTEM, **{keyword: value})


def test_multi_gpu_replace_keeps_the_triton_join(workload):
    operator = MultiGpuTritonJoin(SYSTEM)
    spelled_out = MultiGpuTritonJoin(SYSTEM, triton=TritonJoin(SYSTEM))
    assert operator == spelled_out
    assert run_key(operator, workload) == run_key(spelled_out, workload)
    three = dataclasses.replace(operator, gpu_count=3)
    assert three == MultiGpuTritonJoin(SYSTEM, gpu_count=3)
    assert three.triton is operator.triton


def test_inherited_skeleton_is_wrapped_in_the_subclass_body():
    @dataclasses.dataclass(frozen=True)
    class Tagged(CpuRadixJoin):
        tag: str = "tagged"

    run = Tagged.__dict__["run"]
    assert run is not CpuRadixJoin.__dict__["run"]
    assert inspect.unwrap(run) is Operator.__dict__["run"]


def test_partitioners_are_value_equal():
    assert HierarchicalPartitioner() == HierarchicalPartitioner()
    assert hash(SharedPartitioner()) == hash(SharedPartitioner())
    assert HierarchicalPartitioner() != HierarchicalPartitioner(
        l2_buffer_bytes=8192
    )
    assert SharedPartitioner() != StandardPartitioner()
