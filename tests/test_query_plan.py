"""The Volcano plan layer: validation, semantics, byte-identity.

The headline claim is the last class: executing ``analytics_spec()``
through the plan layer reproduces ``examples/analytics_query.py``'s
direct operator calls byte for byte — same match summary, same
aggregate, same simulated seconds.
"""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

from repro import generate_workload, reference_join
from repro.aggregate import (
    AggregateFunction,
    TritonAggregation,
    reference_aggregate,
)
from repro.data.generator import generate_pk_fk
from repro.data.relation import DeferredColumns
from repro.errors import PlanError
from repro.join.filters import BloomFilteredTritonJoin
from repro.join.triton import TritonJoin
from repro.service.plan import (
    analytics_spec,
    compile_plan,
    estimate_query_bytes,
    execute_plan,
    validate_spec,
)

SCALE = 65536


def spec(root, name="q", **workload):
    base = {
        "build_m_tuples": 64,
        "probe_m_tuples": 64,
        "scale_divisor": SCALE,
        "seed": 3,
    }
    base.update(workload)
    return {"name": name, "workload": base, "root": root}


def scan(relation, **extra):
    return {"op": "scan", "relation": relation, **extra}


def join(build=None, probe=None, **extra):
    return {
        "op": "join",
        "build": build or scan("build"),
        "probe": probe or scan("probe"),
        **extra,
    }


def filtered(**extra):
    """A valid modulo filter over the probe scan, with fields overridden."""
    fields = {
        "op": "filter",
        "predicate": "modulo",
        "divisor": 2,
        "input": scan("probe"),
    }
    fields.update(extra)
    return fields


class TestValidation:
    def test_accepts_minimal_join(self):
        config = validate_spec(spec(join()))
        assert config.build_m_tuples == 64

    @pytest.mark.parametrize(
        "broken, fragment",
        [
            ("not a dict", "plan spec must be an object"),
            ({"workload": {}, "root": join(), "bogus": 1}, "bogus"),
            (
                {"workload": {"build_m_tuples": 1, "probe_m_tuples": 1}},
                "missing required field 'root'",
            ),
            (spec({"op": "mystery"}), "root: unknown op 'mystery'"),
            (spec({"op": "scan", "relation": "fact"}), "root.relation"),
            (spec(join(algorithm="hashzilla")), "root.algorithm"),
            (spec(join(extra_knob=1)), "unknown fields ['extra_knob']"),
            (
                spec({"op": "scan", "relation": "build"}),
                "must contain a join node",
            ),
            (
                spec({"op": "filter", "predicate": "semijoin"}),
                "requires an 'input' node",
            ),
            # From here on each row is a full message: every error the
            # validator can raise, with its spec path.
            (
                {"workload": {}, "root": join(), "bogus": 1},
                "unknown top-level fields ['bogus']",
            ),
            (
                {"name": "", "workload": {}, "root": join()},
                "name: must be a non-empty string",
            ),
            (
                {"workload": [], "root": join()},
                "workload: must be an object of WorkloadConfig fields",
            ),
            (
                # After "workload: " comes Python's own TypeError text,
                # which names the class only from Python 3.10 on.
                {"workload": {"no_such_field": 1}, "root": join()},
                "__init__() got an unexpected keyword argument "
                "'no_such_field'",
            ),
            (
                {"workload": {"build_m_tuples": 1, "probe_m_tuples": 1}},
                "missing required field 'root'",
            ),
            (
                spec({"op": "scan", "relation": "build"}),
                "root: plan must contain a join node",
            ),
            (spec(join(probe=7)), "root.probe: plan node must be an object"),
            (
                spec(join(probe={"relation": "probe"})),
                "root.probe: missing required field 'op'",
            ),
            (
                spec({"op": "mystery"}),
                "root: unknown op 'mystery'; expected one of "
                "['filter', 'groupby', 'join', 'partition', 'scan']",
            ),
            (
                spec(join(extra_knob=1)),
                "root: unknown fields ['extra_knob'] for op 'join'",
            ),
            (
                spec(join(probe=scan("fact"))),
                "root.probe.relation: must be 'build' or 'probe', got 'fact'",
            ),
            (
                spec(join(probe={"op": "scan"})),
                "root.probe.relation: must be 'build' or 'probe', got None",
            ),
            (
                spec(join(probe=scan("probe", batches=0))),
                "root.probe.batches: must be a positive integer",
            ),
            (
                spec(join(probe={"op": "filter", "predicate": "semijoin"})),
                "root.probe: filter requires an 'input' node",
            ),
            (
                spec(join(probe=filtered(predicate="like"))),
                "root.probe.predicate: must be one of "
                "['semijoin', 'key_range', 'modulo'], got 'like'",
            ),
            (
                spec(join(probe=filtered(against="fact"))),
                "root.probe.against: must be 'build' or 'probe', got 'fact'",
            ),
            (
                spec(join(probe=filtered(selectivity=1.5))),
                "root.probe.selectivity: must be in (0, 1]",
            ),
            (
                spec(join(probe=filtered(predicate="key_range", hi=5))),
                "root.probe.lo: key_range requires integer lo/hi",
            ),
            (
                spec(join(probe=filtered(predicate="key_range", lo=0, hi="9"))),
                "root.probe.hi: key_range requires integer lo/hi",
            ),
            (
                spec(join(probe=filtered(predicate="key_range", lo=9, hi=9))),
                "root.probe.hi: key_range requires lo < hi",
            ),
            (
                spec(join(probe=filtered(predicate="modulo", divisor=0))),
                "root.probe.divisor: must be a positive integer",
            ),
            (
                spec(join(probe=filtered(predicate="modulo", remainder=2))),
                "root.probe.remainder: must be in [0, divisor)",
            ),
            (
                spec(join(probe=filtered(predicate="modulo", remainder=-1))),
                "root.probe.remainder: must be in [0, divisor)",
            ),
            (
                spec(join(probe={"op": "partition", "bits": 4})),
                "root.probe: partition requires an 'input' node",
            ),
            (
                spec(
                    join(
                        probe={
                            "op": "partition",
                            "bits": 17,
                            "input": scan("probe"),
                        }
                    )
                ),
                "root.probe.bits: must be an integer in [1, 16]",
            ),
            (
                spec({"op": "join", "probe": scan("probe")}),
                "root: join requires a 'build' node",
            ),
            (
                spec({"op": "join", "build": scan("build")}),
                "root: join requires a 'probe' node",
            ),
            (
                spec(join(algorithm="hashzilla")),
                "root.algorithm: must be one of ['triton', 'bloom-triton', "
                "'cpu-radix', 'coprocess', 'ladder'], got 'hashzilla'",
            ),
            (
                spec(join(aggregate=1)),
                "root.aggregate: must be a boolean",
            ),
            (
                spec(join(algorithm="cpu-radix", aggregate=True)),
                "root.aggregate: aggregate mode requires one of "
                "['triton', 'bloom-triton']",
            ),
            (
                spec(join(cpu_fraction=0.5)),
                "root.cpu_fraction: only the 'coprocess' algorithm takes a "
                "cpu_fraction",
            ),
            (
                spec(join(algorithm="coprocess", cpu_fraction=1.5)),
                "root.cpu_fraction: must be in [0, 1]",
            ),
            (
                spec(join(selectivity=0)),
                "root.selectivity: must be in (0, 1]",
            ),
            (
                spec({"op": "groupby", "function": "sum"}),
                "root: groupby requires an 'input' node",
            ),
            (
                spec({"op": "groupby", "function": "median", "input": join()}),
                "root.function: must be one of "
                "['sum', 'count', 'min', 'max'], got 'median'",
            ),
            (
                spec(
                    {
                        "op": "groupby",
                        "input": join(
                            probe={
                                "op": "partition",
                                "bits": True,
                                "input": filtered(),
                            }
                        ),
                    }
                ),
                "root.input.probe.bits: must be an integer in [1, 16]",
            ),
            (
                spec(join(probe=filtered(input=scan("probe", batches=1.0)))),
                "root.probe.input.batches: must be a positive integer",
            ),
        ],
    )
    def test_rejects_with_path_in_message(self, broken, fragment):
        with pytest.raises(PlanError) as raised:
            validate_spec(broken)
        assert fragment in str(raised.value)

    def test_workload_errors_name_the_field(self):
        with pytest.raises(PlanError, match="workload"):
            validate_spec(
                {"workload": {"no_such_field": 1}, "root": join()}
            )

    def test_bool_is_not_an_integer(self):
        bad = spec(
            {
                "op": "partition",
                "bits": True,
                "input": scan("probe"),
            }
        )
        bad["root"] = join(probe=bad["root"])
        with pytest.raises(PlanError, match="bits"):
            validate_spec(bad)

    def test_key_range_requires_ordered_bounds(self):
        bad = join(
            probe={
                "op": "filter",
                "predicate": "key_range",
                "lo": 10,
                "hi": 5,
                "input": scan("probe"),
            }
        )
        with pytest.raises(PlanError, match="lo < hi"):
            validate_spec(spec(bad))

    def test_aggregate_mode_needs_capable_algorithm(self):
        with pytest.raises(PlanError, match="aggregate"):
            validate_spec(spec(join(algorithm="cpu-radix", aggregate=True)))

    def test_cpu_fraction_only_for_coprocess(self):
        with pytest.raises(PlanError, match="cpu_fraction"):
            validate_spec(spec(join(algorithm="triton", cpu_fraction=0.5)))

    def test_describe_renders_the_tree(self):
        plan = compile_plan(spec(join(algorithm="bloom-triton")))
        text = plan.describe()
        assert "Join(bloom-triton)" in text
        assert "Scan(build)" in text
        assert "Scan(probe)" in text


class TestSemantics:
    def test_plain_join_matches_direct_operator(self, system):
        plan_spec = spec(join())
        result = execute_plan(plan_spec, system=system)
        workload = generate_workload(64, 64, scale_divisor=SCALE, seed=3)
        direct = TritonJoin(system).run(workload)
        assert result.match == direct.match
        assert result.seconds == pytest.approx(direct.seconds, rel=1e-12)
        assert result.match == reference_join(workload.build, workload.probe)

    def test_filter_predicates_match_numpy_reference(self, system):
        build, probe = generate_pk_fk(
            compile_plan(spec(join())).config
        )
        cases = {
            "modulo": (
                {"predicate": "modulo", "divisor": 4, "remainder": 1},
                probe.keys % 4 == 1,
            ),
            "key_range": (
                {"predicate": "key_range", "lo": 10, "hi": 5000},
                (probe.keys >= 10) & (probe.keys < 5000),
            ),
            "semijoin": (
                {"predicate": "semijoin"},
                np.isin(probe.keys, build.keys),
            ),
        }
        for name, (fields, mask) in cases.items():
            result = execute_plan(
                spec(
                    join(
                        probe={
                            "op": "filter",
                            "input": scan("probe"),
                            **fields,
                        }
                    )
                ),
                system=system,
            )
            expected = reference_join(
                build, probe.take(np.nonzero(mask)[0])
            )
            assert result.match == expected, name

    def test_filter_selectivity_scales_nominal_rows(self, system):
        result = execute_plan(
            spec(
                join(
                    probe={
                        "op": "filter",
                        "predicate": "semijoin",
                        "selectivity": 0.25,
                        "input": scan("probe"),
                    }
                )
            ),
            system=system,
        )
        # The join stage saw a probe input whose nominal cardinality was
        # scaled, which changes the simulated cost but not the result.
        unscaled = execute_plan(spec(join()), system=system)
        assert result.seconds < unscaled.seconds

    def test_partition_preserves_rows(self, system):
        partitioned = execute_plan(
            spec(
                join(
                    probe={
                        "op": "partition",
                        "bits": 4,
                        "input": scan("probe"),
                    }
                )
            ),
            system=system,
        )
        plain = execute_plan(spec(join()), system=system)
        # The partition permutes rows; the join result is unchanged.
        assert partitioned.match == plain.match
        assert any(
            stage["operator"] == "partition_relation"
            for stage in partitioned.stages
        )

    def test_multi_batch_scan_joins_identically(self, system):
        batched = execute_plan(
            spec(join(probe=scan("probe", batches=5))), system=system
        )
        plain = execute_plan(spec(join()), system=system)
        assert batched.match == plain.match
        # Nominal cardinality was distributed exactly across batches, so
        # the merged input costs the same as the unbatched scan.
        assert batched.seconds == pytest.approx(plain.seconds, rel=1e-9)

    def test_groupby_matches_direct_aggregation(self, system):
        plan_spec = spec(
            {"op": "groupby", "function": "sum", "input": join()},
            probe_m_tuples=128,
        )
        result = execute_plan(plan_spec, system=system)
        workload = generate_workload(64, 128, scale_divisor=SCALE, seed=3)
        surviving = workload.probe.take(
            np.nonzero(
                np.isin(workload.probe.keys, workload.build.keys)
            )[0]
        ).with_nominal_rows(
            int(
                workload.probe.nominal_rows
                * workload.config.probe_hit_rate
            )
        )
        direct = TritonAggregation(system, AggregateFunction.SUM).run(
            surviving, groups_nominal=workload.build.nominal_rows
        )
        assert result.aggregate == direct.result
        assert result.aggregate == reference_aggregate(surviving)

    @pytest.mark.parametrize(
        "algorithm", ["triton", "cpu-radix", "bloom-triton", "coprocess"]
    )
    def test_filter_that_keeps_nothing_joins_to_nothing(
        self, system, algorithm
    ):
        # No probe key is 0, so [0, 1) empties the probe side; the join
        # and the group-by above it run on no rows and cost nothing.
        empty_probe = {
            "op": "filter",
            "predicate": "key_range",
            "lo": 0,
            "hi": 1,
            "input": scan("probe"),
        }
        result = execute_plan(
            spec(
                {
                    "op": "groupby",
                    "function": "count",
                    "input": join(probe=empty_probe, algorithm=algorithm),
                }
            ),
            system=system,
        )
        build, probe = generate_pk_fk(compile_plan(spec(join())).config)
        assert not np.any(probe.keys == 0)
        nothing = probe.take(np.empty(0, dtype=np.int64))
        assert result.match == reference_join(build, nothing)
        assert result.match.matches == 0
        assert result.aggregate.groups == 0
        assert result.output_rows == 0
        assert result.seconds == 0.0

    @pytest.mark.parametrize(
        "algorithm",
        ["triton", "bloom-triton", "cpu-radix", "coprocess", "ladder"],
    )
    def test_output_rows_count_the_surviving_probe_rows(
        self, system, algorithm
    ):
        """A root join counts its probe rows whose key the build input
        holds: from the match count over ``Scan(build)``, by building
        them over a filtered build side or repeating keys."""
        build, probe = generate_pk_fk(compile_plan(spec(join())).config)
        build_sides = {
            "build": (scan("build"), build),
            "filtered build": (
                filtered(input=scan("build"), divisor=3),
                build.take(np.nonzero(build.keys % 3 == 0)[0]),
            ),
            "probe": (scan("probe"), probe),
        }
        for name, (node, rows) in build_sides.items():
            result = execute_plan(
                spec(join(build=node, algorithm=algorithm)), system=system
            )
            assert result.output_rows == np.count_nonzero(
                np.isin(probe.keys, rows.keys)
            ), name
        # Over the probe relation's repeating keys the match count is
        # not the row count.
        assert result.match.matches > result.output_rows

    def test_checkpoint_sees_every_stage(self, system):
        stages = []
        execute_plan(
            spec({"op": "groupby", "function": "count", "input": join()}),
            system=system,
            checkpoint=stages.append,
        )
        assert "Scan(build)" in stages
        assert "Scan(probe)" in stages
        assert "Join(triton)" in stages
        assert "GroupBy(count)" in stages

    def test_estimate_matches_materialized_bytes(self):
        plan_spec = spec(join(), payload_columns=2)
        config = validate_spec(plan_spec)
        build, probe = generate_pk_fk(config)
        assert estimate_query_bytes(plan_spec) == (
            build.materialized_bytes + probe.materialized_bytes
        )


def five_op_join():
    """Triton join of the build scan with a partitioned, filtered probe
    scanned in two batches."""
    return join(
        algorithm="triton",
        probe={
            "op": "partition",
            "bits": 4,
            "input": filtered(
                divisor=3, remainder=1, input=scan("probe", batches=2)
            ),
        },
    )


def five_op_spec():
    return spec({"op": "groupby", "function": "sum", "input": five_op_join()})


class TestPinnedPlan:
    """Outputs of one five-op plan that any rewrite must keep exactly."""

    def test_checkpoint_order(self, system):
        stages = []
        execute_plan(five_op_spec(), system=system, checkpoint=stages.append)
        assert stages == [
            "Scan(build)",
            "Scan(probe)",
            "Filter(modulo)",
            "Partition(bits=4)",
            "Scan(probe)",
            "Filter(modulo)",
            "Partition(bits=4)",
            "Join(triton)",
            "GroupBy(sum)",
        ]

    def test_join_lineage(self):
        # Lineage strings feed run-cache keys, so they must not drift.
        root = compile_plan(spec(five_op_join())).root
        assert root.lineage == (
            "join:triton:False(scan:build,"
            "partition:4(filter:modulo:3:1(scan:probe)))"
        )

    def test_describe_text(self):
        assert compile_plan(five_op_spec()).describe() == "\n".join(
            [
                "plan q: R=64M, S=64M, scale 1/65536, seed 3",
                "  GroupBy(sum)",
                "    Join(triton)",
                "      Scan(build)",
                "      Partition(bits=4)",
                "        Filter(modulo)",
                "          Scan(probe)",
            ]
        )

    def test_checksum(self, system):
        result = execute_plan(five_op_spec(), system=system)
        assert result.checksum == "0ae338ecd58619b3"
        assert result.output_rows == 1369

    def test_compiled_plan_is_reentrant(self, system):
        """Two threads run one compiled plan at once: A parks at its
        first probe-scan checkpoint while B runs to completion, then A
        resumes. The interleaving is built from events, not raced."""
        plan = compile_plan(spec(five_op_join()))
        serial = plan.execute(system=system).checksum
        parked, resume = threading.Event(), threading.Event()
        outcome = {}

        def park(stage):
            if stage == "Scan(probe)" and not parked.is_set():
                parked.set()
                assert resume.wait(30)

        def run_a():
            try:
                outcome["a"] = plan.execute(
                    system=system, checkpoint=park
                ).checksum
            except Exception as exc:  # noqa: BLE001 - asserted below
                outcome["a"] = exc

        thread = threading.Thread(target=run_a)
        thread.start()
        try:
            assert parked.wait(30)
            outcome["b"] = plan.execute(system=system).checksum
        finally:
            resume.set()
            thread.join(30)
        assert not thread.is_alive()
        assert outcome == {"a": serial, "b": serial}

    def test_compiled_plan_runs_on_many_threads_at_once(self, system):
        """More threads than cores share one compiled plan with a tiny
        switch interval; any run state left on a node would be lost or
        crossed between runs and change a checksum."""
        plan = compile_plan(five_op_spec())
        serial = plan.execute(system=system).checksum
        checksums = []

        def run():
            for _ in range(3):
                checksums.append(plan.execute(system=system).checksum)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert checksums == [serial] * 12


class TestLateMaterialization:
    """A root join over a primary key counts its output from the match
    summary: it runs no second semi-join and never draws the probe
    side's payload columns, which no join kernel reads."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("late materialization broken")

    @staticmethod
    def count_draws(monkeypatch):
        """Record each first draw of deferred payload columns."""
        draws, values = [], DeferredColumns.values

        def counting(columns):
            draws.append(columns)
            return values(columns)

        monkeypatch.setattr(DeferredColumns, "values", counting)
        return draws

    def test_root_join_builds_no_rows(self, system, monkeypatch):
        plan_spec = spec(join())
        monkeypatch.setattr(np, "isin", self.refuse)
        monkeypatch.setattr(DeferredColumns, "values", self.refuse)
        result = execute_plan(plan_spec, system=system)
        monkeypatch.undo()
        assert result.checksum == "2ba722564edf108d"
        # The probe relation still holds its payloads undrawn: the first
        # read draws them, equal to a fresh generation's.
        probe = result.runs[0].workload.probe
        draws = self.count_draws(monkeypatch)
        drawn = probe.payloads["attr0"]
        assert len(draws) == 1
        _, fresh = generate_pk_fk(compile_plan(plan_spec).config)
        np.testing.assert_array_equal(drawn, fresh.payloads["attr0"])

    def test_group_by_over_a_join_draws_the_payloads(
        self, system, monkeypatch
    ):
        draws = self.count_draws(monkeypatch)
        result = execute_plan(
            spec({"op": "groupby", "function": "sum", "input": join()}),
            system=system,
        )
        assert len(draws) == 1
        assert result.checksum == "109ea8236d2fd8b3"


class TestResultSurface:
    def test_checksum_is_stable_and_json_safe(self, system):
        first = execute_plan(spec(join()), system=system)
        second = execute_plan(spec(join()), system=system)
        assert first.checksum == second.checksum
        round_tripped = json.loads(json.dumps(first.to_dict()))
        assert round_tripped["checksum"] == first.checksum

    def test_spec_json_round_trip_executes_identically(self, system):
        original = spec(
            {"op": "groupby", "function": "sum", "input": join()},
        )
        round_tripped = json.loads(json.dumps(original))
        assert (
            execute_plan(original, system=system).checksum
            == execute_plan(round_tripped, system=system).checksum
        )

    def test_table_has_stage_columns(self, system):
        table = execute_plan(spec(join()), system=system).table()
        text = table.format()
        assert "Join(triton)" in text
        assert "total" in text


class TestAnalyticsByteIdentity:
    """The acceptance criterion: plan path == example's direct path."""

    def test_plan_reproduces_example_exactly(self, system):
        result = execute_plan(analytics_spec(), system=system)

        workload = generate_workload(
            256, 2048, probe_hit_rate=0.25, scale_divisor=16384, seed=71
        )
        join_op = BloomFilteredTritonJoin(
            system, inner=TritonJoin(system, aggregate=True)
        )
        join_run = join_op.run(workload)
        surviving = workload.probe.take(
            np.nonzero(
                np.isin(workload.probe.keys, workload.build.keys)
            )[0]
        ).with_nominal_rows(int(workload.probe.nominal_rows * 0.25))
        agg_run = TritonAggregation(system, AggregateFunction.SUM).run(
            surviving, groups_nominal=workload.build.nominal_rows
        )

        assert result.match == join_run.match
        assert result.aggregate == agg_run.result
        assert result.seconds == pytest.approx(
            join_run.seconds + agg_run.seconds, rel=1e-12
        )
