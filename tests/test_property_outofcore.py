"""Property tests: out-of-core joins are identical under any budget.

Hypothesis draws a workload, a radix window, a morsel size, and a
host-memory budget fraction; whatever combination of in-memory morsels
or disk spill that implies, the out-of-core executor's match summary
must equal :func:`repro.join.batched.batched_radix_join`'s bit for bit
— the headline invariant of the out-of-core path.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.exec import context as exec_context
from repro.exec.context import MIN_MORSEL_ROWS, ExecutionConfig
from repro.exec.outofcore import out_of_core_join
from repro.join.batched import batched_radix_join


@st.composite
def join_inputs(draw):
    """A (build, probe) pair with duplicates, misses, and skew."""
    seed = draw(st.integers(min_value=0, max_value=2**31))
    build_rows = draw(st.integers(min_value=1, max_value=1200))
    probe_rows = draw(st.integers(min_value=1, max_value=2400))
    key_space = draw(st.integers(min_value=1, max_value=2 * build_rows))
    rng = np.random.default_rng(seed)
    build_keys = rng.integers(1, key_space + 1, build_rows).astype(np.int64)
    probe_keys = rng.integers(
        1, 2 * key_space + 1, probe_rows
    ).astype(np.int64)
    build = Relation(
        build_keys,
        {"attr0": rng.integers(0, 2**40, build_rows).astype(np.int64)},
        name="R",
    )
    probe = Relation(
        probe_keys,
        {"attr0": rng.integers(0, 2**40, probe_rows).astype(np.int64)},
        name="S",
    )
    return build, probe


def summary(match):
    return (match.matches, match.key_checksum, match.payload_checksum)


@given(
    join_inputs(),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([MIN_MORSEL_ROWS, 1024, 65536]),
    st.floats(min_value=0.05, max_value=1.5),
)
@settings(max_examples=25, deadline=None)
def test_out_of_core_matches_batched(
    tmp_path_factory, inputs, bits1, morsel_rows, budget_fraction
):
    build, probe = inputs
    reference = batched_radix_join(build, probe, bits1, 2)
    state = build.materialized_bytes + probe.materialized_bytes
    budget = max(1, int(state * budget_fraction))
    config = ExecutionConfig(
        budget_bytes=budget,
        workers=0,
        morsel_rows=morsel_rows,
        spill_dir=str(tmp_path_factory.mktemp("oc")),
        force=True,
    )
    with exec_context.configured(config):
        match = out_of_core_join(build, probe, bits1)
        notes = exec_context.consume_notes()
    assert summary(match) == summary(reference)
    # The budget decided the mode; either way the result was identical.
    expected_mode = "spill" if state > budget else "memory"
    assert notes[-1]["mode"] == expected_mode


@given(join_inputs(), st.integers(min_value=1, max_value=5))
@settings(max_examples=15, deadline=None)
def test_forced_memory_morsels_match_batched(inputs, bits1):
    """The pure in-memory morsel path (no budget at all) is identical."""
    build, probe = inputs
    reference = batched_radix_join(build, probe, bits1, 3)
    match = out_of_core_join(
        build,
        probe,
        bits1,
        config=ExecutionConfig(force=True, workers=0, morsel_rows=512),
    )
    assert summary(match) == summary(reference)
