"""Volcano-style pull-based query plans over the reproduction's operators.

A plan is a tree of immutable nodes (Scan → Filter → Partition → Join →
GroupBy). Each node is a frozen dataclass of its spec fields. Its
``rows(state)`` is a generator that pulls relation batches from its
inputs' ``rows(state)``; pipeline breakers (join, group-by) drain their
inputs before producing. The plan root is only counted
(``count(state)``), so a root join that can count its output from the
match summary never builds it. A run's state lives only in its
:class:`PlanState` and in the generator frames, never on the nodes, so
one compiled plan may run on several threads at once. Plans are
compiled from a plain dict (or JSON) spec, so queries travel over
process and wire boundaries as data; :func:`analytics_spec` is a
complete example (``execute_plan(compile_plan(analytics_spec()))``).

Every spec is validated **at compile time**. A node class's dataclass
fields are its field table: name, default, checks (type and bounds, or
choices, then any cross-field rule such as ``lo < hi``), and whether
the field holds an input node. One checker reads that table and
raises :class:`~repro.errors.PlanError` naming the offending path
(``root.build.relation``), so a malformed query is refused before any
array is generated. Execution composes the *existing* operators;
nothing here re-implements a join. A plan whose join inputs are plain
scans passes the generated :class:`~repro.data.generator.Workload`
through untouched, which makes the serial service path byte-identical
to calling the operators directly (the ``examples/analytics_query.py``
composition is :func:`analytics_spec`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.aggregate.group_by import (
    AggregateFunction,
    AggregationResult,
    TritonAggregation,
)
from repro.bench.harness import ExperimentTable
from repro.data import generator
from repro.data.generator import Workload, WorkloadConfig
from repro.data.relation import ATTRIBUTE_BYTES, KEY_BYTES, Relation
from repro.errors import PlanError
from repro.hw import ac922
from repro.hw.specs import SystemSpec
from repro.join import (
    BloomFilteredTritonJoin,
    CoProcessingJoin,
    CpuRadixJoin,
    DegradationLadder,
    TritonJoin,
    coprocess_rungs,
)
from repro.join.base import JoinMatch, JoinRun
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

#: The workload's base relations, as a scan or semi-join names them.
BASE_RELATIONS = ("build", "probe")


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

    def record(self, label: str, run, **detail) -> None:
        """Keep an operator run and its stage entry for the result."""
        stage = {"stage": label, "operator": run.name, "seconds": run.seconds}
        self.stages.append({**stage, **detail})
        self.runs.append(run)


# -- field tables -----------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Checks shared by several fields, as ``(check, error)``.
_POSITIVE_INT = (lambda v, _: _is_int(v) and v >= 1, "must be a positive integer")
_SELECTIVITY = (
    lambda v, _: v is None or _is_number(v) and 0.0 < v <= 1.0,
    "must be in (0, 1]",
)
_KEY_BOUND = (lambda v, _: _is_int(v), "key_range requires integer lo/hi")
_KEY_RANGE = ("predicate", "key_range")
_MODULO = ("predicate", "modulo")


def _input():
    """A field that holds an input node (required)."""
    return field(metadata={"input": True})


def _param(*checks, default=MISSING, when=None):
    """A spec field. Its value (``default``, else None, when absent)
    must pass each ``(check(value, fields), error)`` in turn, where
    ``fields`` holds the node's earlier, already checked fields (the
    cross-field rules); ``error`` may name the offending ``{value!r}``.
    ``when=(name, value)`` checks and keeps the field only while field
    ``name`` holds ``value``; otherwise it is None (a filter's
    per-predicate parameters).
    """
    return field(default=default, metadata={"checks": checks, "when": when})


def _choice(choices: Tuple[str, ...], default=MISSING):
    expected = (
        " or ".join(map(repr, choices))
        if len(choices) == 2
        else f"one of {list(choices)}"
    )
    return _param(
        (lambda v, _: v in choices, f"must be {expected}, got {{value!r}}"),
        default=default,
    )


# -- plan nodes -------------------------------------------------------------------


class PlanNode:
    """One immutable plan node; subclasses are frozen dataclasses."""

    #: ``str.format`` templates over the node's fields: its stage label
    #: and its own part of the lineage string.
    LABEL = "node"
    TAG = "node"

    def rows(self, state: PlanState) -> Iterator[Relation]:  # pragma: no cover
        raise NotImplementedError

    def count(self, state: PlanState) -> int:
        """How many rows :meth:`rows` emits; :meth:`QueryPlan.execute`
        counts the plan root with it. A node that can count without
        building its rows overrides this."""
        lengths = [len(batch) for batch in self.rows(state)]
        if not lengths:
            raise PlanError("plan node produced no rows for plan root")
        return sum(lengths)

    @property
    def inputs(self) -> Tuple["PlanNode", ...]:
        return tuple(
            getattr(self, spec_field.name)
            for spec_field in fields(self)
            if spec_field.metadata.get("input")
        )

    @property
    def label(self) -> str:
        return self.LABEL.format_map(vars(self))

    @property
    def tag(self) -> str:
        return self.TAG.format_map(vars(self))

    @property
    def lineage(self) -> str:
        """Structural identity of the rows this node emits.

        Folded into the run-cache key of any join consuming derived
        (non-scan) inputs, so two filters that happen to keep the same
        *number* of rows can never alias each other's cached runs.
        """
        inputs = self.inputs
        if not inputs:
            return self.tag
        return f"{self.tag}({','.join(node.lineage for node in inputs)})"

    def describe(self, indent: int = 0) -> str:
        lines = [" " * indent + self.label]
        lines.extend(node.describe(indent + 2) for node in self.inputs)
        return "\n".join(lines)


def _drain(rows: Iterable[Relation], name: str) -> Relation:
    """Pull an input to exhaustion and merge its batches into one relation."""
    batches = list(rows)
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


@dataclass(frozen=True)
class ScanNode(PlanNode):
    """Leaf: emits one of the workload's base relations.

    ``batches > 1`` splits the relation into that many contiguous
    chunks (nominal cardinality distributed exactly, remainder to the
    leading chunks) so downstream streaming nodes see a real batch
    sequence; the default single batch passes the generated relation
    object through untouched.
    """

    LABEL = "Scan({relation})"
    TAG = "scan:{relation}"

    relation: str = _choice(BASE_RELATIONS)
    batches: int = _param(_POSITIVE_INT, default=1)

    def rows(self, state: PlanState) -> Iterator[Relation]:
        source = getattr(state.workload, self.relation)
        if self.batches == 1:
            state.checkpoint(self.label)
            yield source
            return
        size, nominal, batches = len(source), source.nominal_rows, self.batches
        for index in range(batches):
            state.checkpoint(self.label)
            chunk = source.take(
                np.arange(size * index // batches, size * (index + 1) // batches)
            )
            # Distribute the nominal cardinality exactly: the chunks' sum
            # must equal the source's nominal rows so a breaker's merged
            # relation costs identically to the unbatched scan.
            share = (
                nominal * (index + 1) // batches - nominal * index // batches
            )
            yield chunk.with_nominal_rows(max(share, len(chunk)))


@dataclass(frozen=True)
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

    LABEL = "Filter({predicate})"

    input: PlanNode = _input()
    predicate: str = _choice(FILTER_PREDICATES)
    against: str = _choice(BASE_RELATIONS, default="build")
    selectivity: Optional[float] = _param(_SELECTIVITY, default=None)
    lo: Optional[int] = _param(_KEY_BOUND, default=None, when=_KEY_RANGE)
    hi: Optional[int] = _param(
        _KEY_BOUND,
        (lambda v, f: f["lo"] < v, "key_range requires lo < hi"),
        default=None,
        when=_KEY_RANGE,
    )
    divisor: Optional[int] = _param(_POSITIVE_INT, default=2, when=_MODULO)
    remainder: Optional[int] = _param(
        (
            lambda v, f: _is_int(v) and 0 <= v < f["divisor"],
            "must be in [0, divisor)",
        ),
        default=0,
        when=_MODULO,
    )

    @property
    def tag(self) -> str:
        params = {
            "semijoin": (self.against, self.selectivity),
            "key_range": (self.lo, self.hi),
            "modulo": (self.divisor, self.remainder),
        }[self.predicate]
        return ":".join(map(str, ("filter", self.predicate, *params)))

    def _mask(self, relation: Relation, state: PlanState) -> np.ndarray:
        if self.predicate == "semijoin":
            target = getattr(state.workload, self.against)
            return np.isin(relation.keys, target.keys)
        if self.predicate == "key_range":
            return (relation.keys >= self.lo) & (relation.keys < self.hi)
        return relation.keys % self.divisor == self.remainder

    def rows(self, state: PlanState) -> Iterator[Relation]:
        for batch in self.input.rows(state):
            state.checkpoint(self.label)
            out = batch.take(np.nonzero(self._mask(batch, state))[0])
            if self.selectivity is not None:
                out = out.with_nominal_rows(
                    int(batch.nominal_rows * self.selectivity)
                )
            yield out


@dataclass(frozen=True)
class PartitionNode(PlanNode):
    """Streaming radix partition: emits each batch partition-ordered.

    The output carries the same rows (stably permuted by hashed key
    bits), so checksums are unchanged while downstream operators see
    partition-clustered data — the plan-level face of
    :func:`repro.partition.radix.partition_relation`.
    """

    LABEL = "Partition(bits={bits})"
    TAG = "partition:{bits}"

    input: PlanNode = _input()
    bits: int = _param(
        (lambda v, _: _is_int(v) and 1 <= v <= 16, "must be an integer in [1, 16]")
    )

    def rows(self, state: PlanState) -> Iterator[Relation]:
        for batch in self.input.rows(state):
            state.checkpoint(self.label)
            with tracing.span(self.label, rows=len(batch)):
                parts = partition_relation(batch, self.bits)
            state.stages.append(
                {
                    "stage": self.label,
                    "operator": "partition_relation",
                    "fanout": parts.fanout,
                    "rows": len(parts.relation),
                }
            )
            yield parts.relation


@dataclass(frozen=True)
class JoinNode(PlanNode):
    """Pipeline breaker: drains both inputs, runs a join operator.

    Its rows are the *surviving probe relation* (probe rows whose key
    exists in the build input, nominal cardinality scaled by the join
    selectivity) — exactly the rows an aggregation over the join result
    consumes, and exactly the arithmetic of ``examples/
    analytics_query.py``. They are built only when a parent pulls them;
    a root join only counts them (:meth:`count`).
    """

    LABEL = "Join({algorithm})"
    TAG = "join:{algorithm}:{aggregate}"

    build: PlanNode = _input()
    probe: PlanNode = _input()
    algorithm: str = _choice(JOIN_ALGORITHMS, default="triton")
    aggregate: bool = _param(
        (lambda v, _: isinstance(v, bool), "must be a boolean"),
        (
            lambda v, f: not v or f["algorithm"] in AGGREGATE_ALGORITHMS,
            f"aggregate mode requires one of {list(AGGREGATE_ALGORITHMS)}",
        ),
        default=False,
    )
    cpu_fraction: Optional[float] = _param(
        (
            lambda v, f: v is None or f["algorithm"] == "coprocess",
            "only the 'coprocess' algorithm takes a cpu_fraction",
        ),
        (
            lambda v, _: v is None or _is_number(v) and 0.0 <= v <= 1.0,
            "must be in [0, 1]",
        ),
        default=None,
    )
    selectivity: Optional[float] = _param(_SELECTIVITY, default=None)

    def _make_operator(self, system: SystemSpec):
        if self.algorithm == "triton":
            return TritonJoin(system, aggregate=self.aggregate)
        if self.algorithm == "bloom-triton":
            inner = TritonJoin(system, aggregate=self.aggregate)
            return BloomFilteredTritonJoin(system, inner=inner)
        if self.algorithm == "cpu-radix":
            return CpuRadixJoin(system)
        if self.algorithm == "coprocess":
            return CoProcessingJoin(system, cpu_fraction=self.cpu_fraction)
        return DegradationLadder(system, rungs=coprocess_rungs())

    def _run(self, state: PlanState) -> Tuple[Relation, Relation, JoinRun]:
        """Drain both inputs, run the operator and record its stage."""
        build = _drain(self.build.rows(state), "join build input")
        probe = _drain(self.probe.rows(state), "join probe input")
        state.checkpoint(self.label)

        operator = self._make_operator(state.system)
        if self.inputs == _PLAIN_SCANS:
            # Pass the generated workload through untouched: identical
            # object graph, identical run-cache key, byte-identical run
            # to calling the operator directly.
            workload = state.workload
        else:
            # Derived inputs share the scanned workload's config and may
            # even share row counts; their lineage keeps the run-cache
            # keys distinct.
            workload = Workload(
                config=state.workload.config,
                build=build,
                probe=probe,
                lineage=self.lineage,
            )
        # A side a filter left empty gives the operator's empty run
        # (see repro.join.base): zero matches, zero seconds.
        with tracing.span(
            self.label, build_rows=len(build), probe_rows=len(probe)
        ):
            run = operator.run(workload)
        state.record(self.label, run, matches=run.match.matches)
        return build, probe, run

    def rows(self, state: PlanState) -> Iterator[Relation]:
        build, probe, _ = self._run(state)
        surviving = probe.take(
            np.nonzero(np.isin(probe.keys, build.keys))[0]
        )
        selectivity = self.selectivity
        if selectivity is None:
            selectivity = state.workload.config.probe_hit_rate
        yield surviving.with_nominal_rows(
            int(probe.nominal_rows * selectivity)
        )

    def count(self, state: PlanState) -> int:
        if not (
            isinstance(self.build, ScanNode) and self.build.relation == "build"
        ):
            return super().count(state)
        # A primary key matches each probe row at most once, so the
        # probe rows that survive are exactly the matches.
        return self._run(state)[2].match.matches


@dataclass(frozen=True)
class GroupByNode(PlanNode):
    """Pipeline breaker: aggregates its input's payload grouped by key.

    Runs :class:`~repro.aggregate.group_by.TritonAggregation` with the
    build relation's nominal cardinality as the group-count estimate
    (the PK/FK workloads' group universe).
    """

    LABEL = "GroupBy({function})"
    TAG = "groupby:{function}"

    input: PlanNode = _input()
    function: str = _choice(GROUPBY_FUNCTIONS, default="sum")

    def rows(self, state: PlanState) -> Iterator[Relation]:
        relation = _drain(self.input.rows(state), "group-by input")
        state.checkpoint(self.label)
        operator = TritonAggregation(
            state.system, AggregateFunction(self.function)
        )
        # An empty input gives the operator's empty run (no groups, zero
        # seconds), as an empty join side does.
        with tracing.span(self.label, rows=len(relation)):
            run = operator.run(
                relation, groups_nominal=state.workload.build.nominal_rows
            )
        state.record(self.label, run, groups=run.result.groups)
        yield relation


#: Join inputs that are the workload's own relations, unsplit.
_PLAIN_SCANS = (ScanNode(relation="build"), ScanNode(relation="probe"))

#: Spec ``op`` names mapped to their node classes.
_NODE_TYPES = {
    "scan": ScanNode,
    "filter": FilterNode,
    "partition": PartitionNode,
    "join": JoinNode,
    "groupby": GroupByNode,
}


# -- spec validation + compilation ------------------------------------------------


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise PlanError(f"{path}: {message}")


def _parse_node(spec, path: str) -> PlanNode:
    """Check ``spec`` against its op's field table, then build the node
    (inputs last, so a node's own errors surface first)."""
    _require(isinstance(spec, dict), path, "plan node must be an object")
    op = spec.get("op")
    _require(isinstance(op, str), path, "missing required field 'op'")
    _require(
        op in _NODE_TYPES, path,
        f"unknown op {op!r}; expected one of {sorted(_NODE_TYPES)}",
    )
    node_type = _NODE_TYPES[op]
    table = fields(node_type)
    unknown = set(spec) - {"op"} - {spec_field.name for spec_field in table}
    _require(
        not unknown, path,
        f"unknown fields {sorted(unknown)} for op {op!r}",
    )

    values = {}
    for spec_field in table:
        name, meta = spec_field.name, spec_field.metadata
        if meta.get("input"):
            article = "an" if name[0] in "aeiou" else "a"
            _require(name in spec, path, f"{op} requires {article} {name!r} node")
            continue
        when = meta["when"]
        if when is not None and values[when[0]] != when[1]:
            values[name] = None
            continue
        default = spec_field.default
        value = spec.get(name, None if default is MISSING else default)
        for check, error in meta["checks"]:
            if not check(value, values):
                raise PlanError(f"{path}.{name}: {error.format(value=value)}")
        values[name] = value
    for spec_field in table:
        if spec_field.metadata.get("input"):
            name = spec_field.name
            values[name] = _parse_node(spec[name], f"{path}.{name}")
    return node_type(**values)


def _contains_join(node: PlanNode) -> bool:
    return isinstance(node, JoinNode) or any(
        _contains_join(child) for child in node.inputs
    )


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
            "match": None if self.match is None else asdict(self.match),
            "aggregate": None
            if self.aggregate is None
            else asdict(self.aggregate),
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


@dataclass(frozen=True, eq=False)
class QueryPlan:
    """A compiled, validated plan. Neither it nor its nodes hold run
    state, so one plan may execute any number of times, on several
    threads at once."""

    spec: dict
    config: WorkloadConfig
    root: PlanNode

    @property
    def name(self) -> str:
        return self.spec.get("name", "query")

    @property
    def estimate_bytes(self) -> int:
        """Admission-control estimate: materialized bytes of both relations.

        Computed from the workload config alone (no arrays generated), so
        the service can accept or refuse a query deterministically at
        submission time. Matches the ambient out-of-core budget's notion
        of join state: ``build + probe`` materialized tuple bytes.
        """
        config = self.config
        rows = config.materialized_rows(
            config.build_rows_nominal
        ) + config.materialized_rows(config.probe_rows_nominal)
        return rows * (KEY_BYTES + ATTRIBUTE_BYTES * config.payload_columns)

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
    ) -> QueryResult:
        """Generate the workload, count the root's rows, summarize."""
        build, probe = generator.generate_pk_fk(self.config)
        state = PlanState(
            system=system if system is not None else ac922(),
            workload=Workload(config=self.config, build=build, probe=probe),
            checkpoint=checkpoint or (lambda stage: None),
        )
        output_rows = self.root.count(state)

        match = None
        aggregate = None
        for run in state.runs:
            if hasattr(run, "match"):
                match = run.match
            if hasattr(run, "result"):
                aggregate = run.result
        seconds = sum(stage.get("seconds", 0.0) for stage in state.stages)
        return QueryResult(
            name=self.name,
            stages=state.stages,
            match=match,
            aggregate=aggregate,
            output_rows=output_rows,
            seconds=seconds,
            runs=state.runs,
        )


def compile_plan(spec: dict) -> QueryPlan:
    """Validate ``spec`` and build its plan tree.

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
    return QueryPlan(spec, config, root)


def validate_spec(spec) -> WorkloadConfig:
    """Validate a full plan spec; returns its workload configuration."""
    return compile_plan(spec).config


def execute_plan(
    plan, system: Optional[SystemSpec] = None, **kwargs
) -> QueryResult:
    """Compile-if-needed and execute — the one-call functional surface."""
    if isinstance(plan, dict):
        plan = compile_plan(plan)
    return plan.execute(system=system, **kwargs)


def estimate_query_bytes(spec: dict) -> int:
    """Admission-control estimate of ``spec`` (see
    :attr:`QueryPlan.estimate_bytes`)."""
    return compile_plan(spec).estimate_bytes


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
