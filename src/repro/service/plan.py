"""Volcano-style pull-based query plans over the reproduction's operators.

A plan is a tree of iterator nodes (Scan → Filter → Partition → Join →
GroupBy), each implementing the classic ``open()`` / ``next()`` /
``close()`` protocol: parents *pull* relation batches from their
children, pipeline breakers (join, group-by) drain their inputs before
producing. Plans are compiled from a plain dict (or JSON) spec, so
queries travel over process and wire boundaries as data:

.. code-block:: python

    spec = {
        "name": "analytics",
        "workload": {"build_m_tuples": 256, "probe_m_tuples": 2048,
                     "probe_hit_rate": 0.25, "scale_divisor": 16384,
                     "seed": 71},
        "root": {
            "op": "groupby", "function": "sum",
            "input": {
                "op": "join", "algorithm": "bloom-triton",
                "aggregate": True,
                "build": {"op": "scan", "relation": "build"},
                "probe": {"op": "scan", "relation": "probe"},
            },
        },
    }
    result = execute_plan(compile_plan(spec))

Every spec is validated **at compile time** in the Volcano tradition —
each node constructor checks its own invariants and raises
:class:`~repro.errors.PlanError` naming the offending path (``root.
build.relation``), so a malformed query is refused before any array is
generated. Execution composes the *existing* operators; nothing here
re-implements a join. A plan whose join inputs are plain scans passes
the generated :class:`~repro.data.generator.Workload` through
untouched, which makes the serial service path byte-identical to
calling the operators directly (the ``examples/analytics_query.py``
composition is :func:`analytics_spec`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.aggregate.group_by import (
    AggregateFunction,
    AggregationResult,
    TritonAggregation,
)
from repro.bench.harness import ExperimentTable
from repro.data.generator import Workload, WorkloadConfig
from repro.data.relation import Relation
from repro.errors import PlanError
from repro.hw.specs import SystemSpec
from repro.join.base import JoinMatch
from repro.partition.radix import partition_relation
from repro.telemetry import tracing

#: Join algorithms a plan may name, mapped to operator factories in
#: :meth:`JoinNode._make_operator`.
JOIN_ALGORITHMS = ("triton", "bloom-triton", "cpu-radix", "coprocess", "ladder")

#: Algorithms whose operators support the join's aggregate mode (no
#: result materialization; matches flow straight to an aggregation).
AGGREGATE_ALGORITHMS = ("triton", "bloom-triton")

#: Filter predicates :class:`FilterNode` evaluates.
FILTER_PREDICATES = ("semijoin", "key_range", "modulo")

#: Aggregate function names (the :class:`AggregateFunction` values).
GROUPBY_FUNCTIONS = tuple(f.value for f in AggregateFunction)

#: Bytes per materialized tuple for a workload with ``payload_columns``
#: 8-byte attributes (mirrors :attr:`repro.data.relation.Relation.
#: tuple_bytes` without generating the arrays).
def _tuple_bytes(payload_columns: int) -> int:
    return 8 + 8 * payload_columns


# -- execution context ------------------------------------------------------------


@dataclass
class PlanState:
    """Everything a node needs while the plan runs."""

    system: SystemSpec
    workload: Workload
    #: Called with the stage label before each unit of work — the
    #: service's cooperative cancellation/timeout hook. Raising from it
    #: aborts the plan between operator pulls.
    checkpoint: Callable[[str], None]
    stages: List[dict] = field(default_factory=list)
    runs: List[object] = field(default_factory=list)

    def record(self, stage: dict, run: object = None) -> None:
        self.stages.append(stage)
        if run is not None:
            self.runs.append(run)


def _no_checkpoint(stage: str) -> None:
    return None


# -- plan nodes -------------------------------------------------------------------


class PlanNode:
    """One Volcano iterator: ``open(ctx)``, then ``next()`` until None."""

    #: Child nodes in pull order (set by subclasses).
    children: Sequence["PlanNode"] = ()

    def open(self, ctx: PlanState) -> None:
        self._ctx = ctx
        for child in self.children:
            child.open(ctx)

    def next(self) -> Optional[Relation]:  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        for child in self.children:
            child.close()
        # The plan outlives its run (a service handle keeps it); the
        # state's checkpoint closure refers back to that handle, so
        # keeping the state would pin the run's relations in a cycle.
        self._ctx = None

    @property
    def lineage(self) -> str:  # pragma: no cover - abstract
        """Structural identity of the rows this node emits.

        Folded into the run-cache key of any join consuming derived
        (non-scan) inputs, so two filters that happen to keep the same
        *number* of rows can never alias each other's cached runs.
        """
        raise NotImplementedError

    def describe(self, indent: int = 0) -> str:
        lines = [" " * indent + self.label]
        for child in self.children:
            lines.append(child.describe(indent + 2))
        return "\n".join(lines)

    label = "node"


def _drain(node: PlanNode, name: str) -> Relation:
    """Pull a child to exhaustion and merge its batches into one relation."""
    batches: List[Relation] = []
    while True:
        batch = node.next()
        if batch is None:
            break
        batches.append(batch)
    if not batches:
        raise PlanError(f"plan node produced no rows for {name}")
    if len(batches) == 1:
        return batches[0]
    return Relation(
        keys=np.concatenate([b.keys for b in batches]),
        payloads={
            column: np.concatenate([b.payloads[column] for b in batches])
            for column in batches[0].payloads
        },
        nominal_rows=sum(b.nominal_rows for b in batches),
        name=batches[0].name,
    )


class ScanNode(PlanNode):
    """Leaf: emits one of the workload's base relations.

    ``batches > 1`` splits the relation into that many contiguous
    chunks (nominal cardinality distributed exactly, remainder to the
    leading chunks) so downstream streaming nodes see a real batch
    sequence; the default single batch passes the generated relation
    object through untouched.
    """

    def __init__(self, relation: str, batches: int = 1) -> None:
        self.relation = relation
        self.batches = batches
        self.label = f"Scan({relation})"

    @property
    def lineage(self) -> str:
        return f"scan:{self.relation}"

    def open(self, ctx: PlanState) -> None:
        super().open(ctx)
        self._emitted = 0
        self._source = (
            ctx.workload.build if self.relation == "build" else ctx.workload.probe
        )

    def close(self) -> None:
        self._source = None
        super().close()

    def next(self) -> Optional[Relation]:
        if self._emitted >= self.batches:
            return None
        self._ctx.checkpoint(self.label)
        index = self._emitted
        self._emitted += 1
        source = self._source
        if self.batches == 1:
            return source
        rows = len(source)
        start = rows * index // self.batches
        stop = rows * (index + 1) // self.batches
        chunk = source.take(np.arange(start, stop))
        # Distribute the nominal cardinality exactly: the chunks' sum
        # must equal the source's nominal rows so a breaker's merged
        # relation costs identically to the unbatched scan.
        nominal_stop = source.nominal_rows * (index + 1) // self.batches
        nominal_start = source.nominal_rows * index // self.batches
        return chunk.with_nominal_rows(
            max(nominal_stop - nominal_start, len(chunk))
        )


class FilterNode(PlanNode):
    """Streaming row filter over one input.

    Predicates:

    - ``semijoin`` — keep rows whose key exists in a base relation
      (default ``build``); with an explicit ``selectivity``, the output
      nominal cardinality is ``int(input nominal * selectivity)`` — the
      exact arithmetic of the analytics example's surviving-probe step.
    - ``key_range`` — keep keys in ``[lo, hi)``.
    - ``modulo`` — keep keys with ``key % divisor == remainder``.
    """

    def __init__(
        self,
        child: PlanNode,
        predicate: str,
        *,
        against: str = "build",
        selectivity: Optional[float] = None,
        lo: int = 0,
        hi: int = 0,
        divisor: int = 2,
        remainder: int = 0,
    ) -> None:
        self.children = (child,)
        self.predicate = predicate
        self.against = against
        self.selectivity = selectivity
        self.lo = lo
        self.hi = hi
        self.divisor = divisor
        self.remainder = remainder
        self.label = f"Filter({predicate})"

    @property
    def lineage(self) -> str:
        params = {
            "semijoin": f"{self.against}:{self.selectivity}",
            "key_range": f"{self.lo}:{self.hi}",
            "modulo": f"{self.divisor}:{self.remainder}",
        }[self.predicate]
        return f"filter:{self.predicate}:{params}({self.children[0].lineage})"

    def _mask(self, relation: Relation) -> np.ndarray:
        if self.predicate == "semijoin":
            target = (
                self._ctx.workload.build
                if self.against == "build"
                else self._ctx.workload.probe
            )
            return np.isin(relation.keys, target.keys)
        if self.predicate == "key_range":
            return (relation.keys >= self.lo) & (relation.keys < self.hi)
        return relation.keys % self.divisor == self.remainder

    def next(self) -> Optional[Relation]:
        batch = self.children[0].next()
        if batch is None:
            return None
        self._ctx.checkpoint(self.label)
        out = batch.take(np.nonzero(self._mask(batch))[0])
        if self.selectivity is not None:
            out = out.with_nominal_rows(
                int(batch.nominal_rows * self.selectivity)
            )
        return out


class PartitionNode(PlanNode):
    """Streaming radix partition: emits each batch partition-ordered.

    The output carries the same rows (stably permuted by hashed key
    bits), so checksums are unchanged while downstream operators see
    partition-clustered data — the plan-level face of
    :func:`repro.partition.radix.partition_relation`.
    """

    def __init__(self, child: PlanNode, bits: int) -> None:
        self.children = (child,)
        self.bits = bits
        self.label = f"Partition(bits={bits})"

    @property
    def lineage(self) -> str:
        return f"partition:{self.bits}({self.children[0].lineage})"

    def next(self) -> Optional[Relation]:
        batch = self.children[0].next()
        if batch is None:
            return None
        self._ctx.checkpoint(self.label)
        with tracing.span(self.label, rows=len(batch)):
            parts = partition_relation(batch, self.bits)
        self._ctx.record(
            {
                "stage": self.label,
                "operator": "partition_relation",
                "fanout": parts.fanout,
                "rows": len(parts.relation),
            }
        )
        return parts.relation


class JoinNode(PlanNode):
    """Pipeline breaker: drains both inputs, runs a join operator.

    Emits the *surviving probe relation* (probe rows whose key exists in
    the build input, nominal cardinality scaled by the join
    selectivity) — exactly the rows an aggregation over the join result
    consumes, and exactly the arithmetic of ``examples/
    analytics_query.py``.
    """

    def __init__(
        self,
        build: PlanNode,
        probe: PlanNode,
        algorithm: str,
        *,
        aggregate: bool = False,
        cpu_fraction: Optional[float] = None,
        selectivity: Optional[float] = None,
    ) -> None:
        self.children = (build, probe)
        self.algorithm = algorithm
        self.aggregate = aggregate
        self.cpu_fraction = cpu_fraction
        self.selectivity = selectivity
        self.label = f"Join({algorithm})"

    @property
    def lineage(self) -> str:
        return (
            f"join:{self.algorithm}:{self.aggregate}"
            f"({self.children[0].lineage},{self.children[1].lineage})"
        )

    def _make_operator(self, system: SystemSpec):
        from repro.join.coprocess import CoProcessingJoin
        from repro.join.cpu_radix import CpuRadixJoin
        from repro.join.filters import BloomFilteredTritonJoin
        from repro.join.ladder import DegradationLadder, coprocess_rungs
        from repro.join.triton import TritonJoin

        if self.algorithm == "triton":
            return TritonJoin(system, aggregate=self.aggregate)
        if self.algorithm == "bloom-triton":
            operator = BloomFilteredTritonJoin(system)
            operator.inner.aggregate = self.aggregate
            return operator
        if self.algorithm == "cpu-radix":
            return CpuRadixJoin(system)
        if self.algorithm == "coprocess":
            return CoProcessingJoin(system, cpu_fraction=self.cpu_fraction)
        return DegradationLadder(system, rungs=coprocess_rungs())

    def open(self, ctx: PlanState) -> None:
        super().open(ctx)
        self._done = False

    def next(self) -> Optional[Relation]:
        if self._done:
            return None
        self._done = True
        ctx = self._ctx
        build = _drain(self.children[0], "join build input")
        probe = _drain(self.children[1], "join probe input")
        ctx.checkpoint(self.label)

        plain_scans = (
            isinstance(self.children[0], ScanNode)
            and self.children[0].relation == "build"
            and self.children[0].batches == 1
            and isinstance(self.children[1], ScanNode)
            and self.children[1].relation == "probe"
            and self.children[1].batches == 1
        )
        if plain_scans:
            # Pass the generated workload through untouched: identical
            # object graph, identical run-cache key, byte-identical run
            # to calling the operator directly.
            workload = ctx.workload
        else:
            workload = Workload(
                config=ctx.workload.config, build=build, probe=probe
            )

        operator = self._make_operator(ctx.system)
        if not plain_scans:
            # Derived inputs share the scanned workload's config and may
            # even share row counts, which is all the run-cache key sees
            # of the data. Folding the input lineage into the operator's
            # attributes (freeze() walks vars()) keeps the keys distinct.
            operator._plan_lineage = self.lineage
        with tracing.span(
            self.label, build_rows=len(build), probe_rows=len(probe)
        ):
            run = operator.run(workload)
        ctx.record(
            {
                "stage": self.label,
                "operator": run.name,
                "seconds": run.seconds,
                "matches": run.match.matches,
            },
            run,
        )

        surviving = probe.take(
            np.nonzero(np.isin(probe.keys, build.keys))[0]
        )
        selectivity = self.selectivity
        if selectivity is None:
            selectivity = ctx.workload.config.probe_hit_rate
        return surviving.with_nominal_rows(
            int(probe.nominal_rows * selectivity)
        )


class GroupByNode(PlanNode):
    """Pipeline breaker: aggregates its input's payload grouped by key.

    Runs :class:`~repro.aggregate.group_by.TritonAggregation` with the
    build relation's nominal cardinality as the group-count estimate
    (the PK/FK workloads' group universe). Validated Volcano-style: the
    function name must be a known accumulator, checked at construction.
    """

    def __init__(self, child: PlanNode, function: str) -> None:
        self.children = (child,)
        self.function = AggregateFunction(function)
        self.label = f"GroupBy({function})"

    @property
    def lineage(self) -> str:
        return f"groupby:{self.function.value}({self.children[0].lineage})"

    def open(self, ctx: PlanState) -> None:
        super().open(ctx)
        self._done = False

    def next(self) -> Optional[Relation]:
        if self._done:
            return None
        self._done = True
        ctx = self._ctx
        relation = _drain(self.children[0], "group-by input")
        ctx.checkpoint(self.label)
        operator = TritonAggregation(ctx.system, self.function)
        with tracing.span(self.label, rows=len(relation)):
            run = operator.run(
                relation, groups_nominal=ctx.workload.build.nominal_rows
            )
        ctx.record(
            {
                "stage": self.label,
                "operator": run.name,
                "seconds": run.seconds,
                "groups": run.result.groups,
            },
            run,
        )
        return relation


# -- spec validation + compilation ------------------------------------------------


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise PlanError(f"{path}: {message}")


def _parse_node(spec, path: str) -> PlanNode:
    _require(isinstance(spec, dict), path, "plan node must be an object")
    op = spec.get("op")
    _require(isinstance(op, str), path, "missing required field 'op'")
    known = {"scan", "filter", "partition", "join", "groupby"}
    _require(op in known, path, f"unknown op {op!r}; expected one of {sorted(known)}")
    allowed = {
        "scan": {"op", "relation", "batches"},
        "filter": {
            "op", "input", "predicate", "against", "selectivity",
            "lo", "hi", "divisor", "remainder",
        },
        "partition": {"op", "input", "bits"},
        "join": {
            "op", "build", "probe", "algorithm", "aggregate",
            "cpu_fraction", "selectivity",
        },
        "groupby": {"op", "input", "function"},
    }[op]
    unknown = set(spec) - allowed
    _require(
        not unknown, path,
        f"unknown fields {sorted(unknown)} for op {op!r}",
    )

    if op == "scan":
        relation = spec.get("relation")
        _require(
            relation in ("build", "probe"),
            f"{path}.relation",
            f"must be 'build' or 'probe', got {relation!r}",
        )
        batches = spec.get("batches", 1)
        _require(
            isinstance(batches, int) and not isinstance(batches, bool)
            and batches >= 1,
            f"{path}.batches", "must be a positive integer",
        )
        return ScanNode(relation, batches=batches)

    if op == "filter":
        _require("input" in spec, path, "filter requires an 'input' node")
        predicate = spec.get("predicate")
        _require(
            predicate in FILTER_PREDICATES,
            f"{path}.predicate",
            f"must be one of {list(FILTER_PREDICATES)}, got {predicate!r}",
        )
        against = spec.get("against", "build")
        _require(
            against in ("build", "probe"),
            f"{path}.against", f"must be 'build' or 'probe', got {against!r}",
        )
        selectivity = spec.get("selectivity")
        if selectivity is not None:
            _require(
                isinstance(selectivity, (int, float))
                and not isinstance(selectivity, bool)
                and 0.0 < selectivity <= 1.0,
                f"{path}.selectivity", "must be in (0, 1]",
            )
        if predicate == "key_range":
            for bound in ("lo", "hi"):
                _require(
                    isinstance(spec.get(bound), int)
                    and not isinstance(spec.get(bound), bool),
                    f"{path}.{bound}", "key_range requires integer lo/hi",
                )
            _require(
                spec["lo"] < spec["hi"], f"{path}.hi",
                "key_range requires lo < hi",
            )
        if predicate == "modulo":
            divisor = spec.get("divisor", 2)
            remainder = spec.get("remainder", 0)
            _require(
                isinstance(divisor, int) and not isinstance(divisor, bool)
                and divisor >= 1,
                f"{path}.divisor", "must be a positive integer",
            )
            _require(
                isinstance(remainder, int) and not isinstance(remainder, bool)
                and 0 <= remainder < divisor,
                f"{path}.remainder", "must be in [0, divisor)",
            )
        return FilterNode(
            _parse_node(spec["input"], f"{path}.input"),
            predicate,
            against=against,
            selectivity=selectivity,
            lo=spec.get("lo", 0),
            hi=spec.get("hi", 0),
            divisor=spec.get("divisor", 2),
            remainder=spec.get("remainder", 0),
        )

    if op == "partition":
        _require("input" in spec, path, "partition requires an 'input' node")
        bits = spec.get("bits")
        _require(
            isinstance(bits, int) and not isinstance(bits, bool)
            and 1 <= bits <= 16,
            f"{path}.bits", "must be an integer in [1, 16]",
        )
        return PartitionNode(_parse_node(spec["input"], f"{path}.input"), bits)

    if op == "join":
        for side in ("build", "probe"):
            _require(side in spec, path, f"join requires a {side!r} node")
        algorithm = spec.get("algorithm", "triton")
        _require(
            algorithm in JOIN_ALGORITHMS,
            f"{path}.algorithm",
            f"must be one of {list(JOIN_ALGORITHMS)}, got {algorithm!r}",
        )
        aggregate = spec.get("aggregate", False)
        _require(
            isinstance(aggregate, bool), f"{path}.aggregate",
            "must be a boolean",
        )
        _require(
            not aggregate or algorithm in AGGREGATE_ALGORITHMS,
            f"{path}.aggregate",
            f"aggregate mode requires one of {list(AGGREGATE_ALGORITHMS)}",
        )
        cpu_fraction = spec.get("cpu_fraction")
        if cpu_fraction is not None:
            _require(
                algorithm == "coprocess", f"{path}.cpu_fraction",
                "only the 'coprocess' algorithm takes a cpu_fraction",
            )
            _require(
                isinstance(cpu_fraction, (int, float))
                and not isinstance(cpu_fraction, bool)
                and 0.0 <= cpu_fraction <= 1.0,
                f"{path}.cpu_fraction", "must be in [0, 1]",
            )
        selectivity = spec.get("selectivity")
        if selectivity is not None:
            _require(
                isinstance(selectivity, (int, float))
                and not isinstance(selectivity, bool)
                and 0.0 < selectivity <= 1.0,
                f"{path}.selectivity", "must be in (0, 1]",
            )
        return JoinNode(
            _parse_node(spec["build"], f"{path}.build"),
            _parse_node(spec["probe"], f"{path}.probe"),
            algorithm,
            aggregate=aggregate,
            cpu_fraction=cpu_fraction,
            selectivity=selectivity,
        )

    # groupby
    _require("input" in spec, path, "groupby requires an 'input' node")
    function = spec.get("function", "sum")
    _require(
        function in GROUPBY_FUNCTIONS,
        f"{path}.function",
        f"must be one of {list(GROUPBY_FUNCTIONS)}, got {function!r}",
    )
    return GroupByNode(_parse_node(spec["input"], f"{path}.input"), function)


def _contains_join(node: PlanNode) -> bool:
    if isinstance(node, JoinNode):
        return True
    return any(_contains_join(child) for child in node.children)


def validate_spec(spec) -> WorkloadConfig:
    """Validate a full plan spec; returns its workload configuration.

    Raises :class:`~repro.errors.PlanError` with the offending spec
    path for structural problems and lets the workload config's own
    :class:`~repro.errors.ConfigurationError` surface for bad
    cardinalities — the same split the operators use.
    """
    if not isinstance(spec, dict):
        raise PlanError("plan spec must be an object")
    unknown = set(spec) - {"name", "workload", "root"}
    if unknown:
        raise PlanError(f"unknown top-level fields {sorted(unknown)}")
    name = spec.get("name", "query")
    if not isinstance(name, str) or not name:
        raise PlanError("name: must be a non-empty string")
    workload = spec.get("workload")
    if not isinstance(workload, dict):
        raise PlanError("workload: must be an object of WorkloadConfig fields")
    try:
        config = WorkloadConfig(**workload)
    except TypeError as exc:
        raise PlanError(f"workload: {exc}") from exc
    if "root" not in spec:
        raise PlanError("missing required field 'root'")
    root = _parse_node(spec["root"], "root")
    if not _contains_join(root):
        raise PlanError("root: plan must contain a join node")
    return config


@dataclass
class QueryResult:
    """What one executed plan produced, summarized deterministically.

    ``seconds`` is *simulated* time (the sum of the stage operators'
    modeled runtimes, like the analytics example's "query total") —
    wall-clock latency is the scheduler's business, not the plan's.
    """

    name: str
    stages: List[dict]
    match: Optional[JoinMatch]
    aggregate: Optional[AggregationResult]
    output_rows: int
    seconds: float
    runs: List[object] = field(default_factory=list, repr=False)

    def digest(self) -> dict:
        """JSON-safe, order-stable summary of the functional outcome."""
        return {
            "name": self.name,
            "match": None
            if self.match is None
            else {
                "matches": self.match.matches,
                "key_checksum": self.match.key_checksum,
                "payload_checksum": self.match.payload_checksum,
            },
            "aggregate": None
            if self.aggregate is None
            else {
                "groups": self.aggregate.groups,
                "checksum": self.aggregate.checksum,
            },
            "output_rows": self.output_rows,
        }

    @property
    def checksum(self) -> str:
        """Hex digest over :meth:`digest` — the byte-identity currency."""
        canonical = json.dumps(self.digest(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            **self.digest(),
            "checksum": self.checksum,
            "seconds": self.seconds,
            "stages": [dict(stage) for stage in self.stages],
        }

    def table(self) -> ExperimentTable:
        """The result as a bench-style experiment table."""
        columns = [stage["stage"] for stage in self.stages] + ["total"]
        table = ExperimentTable(
            experiment=f"query:{self.name}",
            title=f"Query {self.name}: per-stage simulated time",
            columns=columns,
            unit="seconds (simulated)",
        )
        seconds = {
            stage["stage"]: stage.get("seconds", 0.0) for stage in self.stages
        }
        seconds["total"] = self.seconds
        table.add_row("seconds", seconds)
        if self.match is not None:
            table.add_note(
                f"join: {self.match.matches} matches, key checksum "
                f"{self.match.key_checksum}, payload checksum "
                f"{self.match.payload_checksum}"
            )
        if self.aggregate is not None:
            table.add_note(
                f"aggregate: {self.aggregate.groups} groups, checksum "
                f"{self.aggregate.checksum}"
            )
        table.add_note(f"result checksum {self.checksum}")
        return table


class QueryPlan:
    """A compiled, validated plan ready to execute (reusably)."""

    def __init__(
        self, spec: dict, config: WorkloadConfig, root: PlanNode
    ) -> None:
        self.spec = spec
        self.name = spec.get("name", "query")
        self.config = config
        self.root = root

    def describe(self) -> str:
        """Operator-tree rendering for ``--explain`` output."""
        header = (
            f"plan {self.name}: R={self.config.build_m_tuples:g}M, "
            f"S={self.config.probe_m_tuples:g}M, "
            f"scale 1/{self.config.scale_divisor:g}, "
            f"seed {self.config.seed}"
        )
        return header + "\n" + self.root.describe(indent=2)

    def execute(
        self,
        system: Optional[SystemSpec] = None,
        checkpoint: Optional[Callable[[str], None]] = None,
        workload: Optional[Workload] = None,
    ) -> QueryResult:
        """Generate the workload, pull the root to exhaustion, summarize."""
        from repro import ac922
        from repro.data.generator import generate_pk_fk

        system = system if system is not None else ac922()
        if workload is None:
            build, probe = generate_pk_fk(self.config)
            workload = Workload(config=self.config, build=build, probe=probe)
        ctx = PlanState(
            system=system,
            workload=workload,
            checkpoint=checkpoint or _no_checkpoint,
        )
        self.root.open(ctx)
        try:
            output = _drain(self.root, "plan root")
        finally:
            self.root.close()

        match = None
        aggregate = None
        for run in ctx.runs:
            if hasattr(run, "match"):
                match = run.match
            if hasattr(run, "result"):
                aggregate = run.result
        seconds = sum(stage.get("seconds", 0.0) for stage in ctx.stages)
        return QueryResult(
            name=self.name,
            stages=ctx.stages,
            match=match,
            aggregate=aggregate,
            output_rows=len(output),
            seconds=seconds,
            runs=ctx.runs,
        )


def compile_plan(spec: dict) -> QueryPlan:
    """Validate ``spec`` and build its iterator tree."""
    config = validate_spec(spec)
    return QueryPlan(spec, config, _parse_node(spec["root"], "root"))


def execute_plan(
    plan, system: Optional[SystemSpec] = None, **kwargs
) -> QueryResult:
    """Compile-if-needed and execute — the one-call functional surface."""
    if isinstance(plan, dict):
        plan = compile_plan(plan)
    return plan.execute(system=system, **kwargs)


def estimate_query_bytes(spec: dict) -> int:
    """Admission-control estimate: materialized bytes of both relations.

    Computed from the workload config alone (no arrays generated), so
    the service can accept or refuse a query deterministically at
    submission time. Matches the ambient out-of-core budget's notion of
    join state: ``build + probe`` materialized tuple bytes.
    """
    config = validate_spec(spec)
    bytes_per_tuple = _tuple_bytes(config.payload_columns)
    return (
        config.materialized_rows(config.build_rows_nominal)
        + config.materialized_rows(config.probe_rows_nominal)
    ) * bytes_per_tuple


def analytics_spec(
    scale_divisor: float = 16384, seed: int = 71
) -> dict:
    """The ``examples/analytics_query.py`` composition as a plan spec.

    Bloom-filtered Triton join in aggregate mode over the example's
    256M x 2048M, 25%-selective workload, feeding a SUM group-by — the
    serial service path over this spec is byte-identical to the
    example's direct operator calls.
    """
    return {
        "name": "analytics",
        "workload": {
            "build_m_tuples": 256,
            "probe_m_tuples": 2048,
            "probe_hit_rate": 0.25,
            "scale_divisor": scale_divisor,
            "seed": seed,
        },
        "root": {
            "op": "groupby",
            "function": "sum",
            "input": {
                "op": "join",
                "algorithm": "bloom-triton",
                "aggregate": True,
                "build": {"op": "scan", "relation": "build"},
                "probe": {"op": "scan", "relation": "probe"},
            },
        },
    }
