"""Property tests for the query layer and the service's hygiene.

Three invariant families, Hypothesis-driven:

- **Spec round-trip + functional reference.** Any generated plan spec
  survives a JSON round trip with an identical result checksum, and the
  plan's join match and output row count equal numpy references
  computed directly from the generated arrays (the plan layer adds
  structure, never rows), whether the build side's keys are unique or
  repeat.
- **Deterministic admission.** A query is rejected iff its spec-derived
  estimate exceeds the budget — a pure function of (spec, budget),
  regardless of worker count, submission order, or cancellation.
- **No leaks under any interleaving.** Whatever mix of submissions,
  priorities, and cancellations runs, shutdown leaves no service
  threads, no ambient fault plan or exec config, no thread-local event
  context, and no run-cache entries (the conftest guards then re-check
  the ambient ones after every test).
"""

from __future__ import annotations

import json
import threading

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import context, reference_join
from repro.data.generator import generate_pk_fk
from repro.join import run_cache
from repro.join.base import JoinMatch, build_payload_column
from repro.service import (
    JoinService,
    estimate_query_bytes,
    execute_plan,
    validate_spec,
)

SCALE = 65536


def _key_filter(draw, source, predicates):
    """A filter over ``source`` with a drawn predicate and parameters."""
    predicate = draw(st.sampled_from(predicates))
    node = {"op": "filter", "predicate": predicate, "input": source}
    if predicate == "modulo":
        node["divisor"] = draw(st.integers(min_value=2, max_value=8))
        node["remainder"] = draw(
            st.integers(min_value=0, max_value=node["divisor"] - 1)
        )
    elif predicate == "key_range":
        node["lo"] = draw(st.integers(min_value=0, max_value=100))
        node["hi"] = node["lo"] + draw(
            st.integers(min_value=1, max_value=20000)
        )
    return node


@st.composite
def plan_specs(draw):
    """A valid plan spec plus the base relation and the filter (or
    None) behind each join input."""
    workload = {
        "build_m_tuples": draw(st.sampled_from([16, 32, 64])),
        "probe_m_tuples": draw(st.sampled_from([16, 64, 128])),
        "scale_divisor": SCALE,
        "seed": draw(st.integers(min_value=0, max_value=50)),
    }
    probe = {"op": "scan", "relation": "probe"}
    shape = draw(
        st.sampled_from(["plain", "filter", "partition", "batches"])
    )
    probe_filter = None
    if shape == "filter":
        probe = probe_filter = _key_filter(
            draw, probe, ["semijoin", "modulo", "key_range"]
        )
    elif shape == "partition":
        probe = {
            "op": "partition",
            "bits": draw(st.integers(min_value=1, max_value=8)),
            "input": probe,
        }
    elif shape == "batches":
        probe = {
            "op": "scan",
            "relation": "probe",
            "batches": draw(st.integers(min_value=2, max_value=6)),
        }
    # The build side is the primary-key relation, a filter over it (keys
    # still unique), or the probe relation (foreign keys repeat): a root
    # join over the plain scan counts from its matches, the others count
    # the rows they build.
    build_relation = draw(st.sampled_from(["build", "filtered", "probe"]))
    build = build_filter = None
    if build_relation == "filtered":
        build_relation = "build"
        build = build_filter = _key_filter(
            draw,
            {"op": "scan", "relation": "build"},
            ["key_range", "modulo"],
        )
    build = build or {"op": "scan", "relation": build_relation}
    root = {
        "op": "join",
        "algorithm": draw(
            st.sampled_from(["triton", "cpu-radix", "bloom-triton"])
        ),
        "build": build,
        "probe": probe,
    }
    if draw(st.booleans()):
        root = {
            "op": "groupby",
            "function": draw(st.sampled_from(["sum", "count"])),
            "input": root,
        }
    spec = {"name": "prop", "workload": workload, "root": root}
    return spec, (build_relation, build_filter), probe_filter


def row_mask(build, relation, mask_fields):
    """Which rows of ``relation`` a filter of ``mask_fields`` keeps."""
    if mask_fields is None:
        return np.ones(len(relation), dtype=bool)
    predicate = mask_fields["predicate"]
    if predicate == "semijoin":
        return np.isin(relation.keys, build.keys)
    if predicate == "key_range":
        return (relation.keys >= mask_fields["lo"]) & (
            relation.keys < mask_fields["hi"]
        )
    return relation.keys % mask_fields["divisor"] == mask_fields["remainder"]


def pairs_reference(build, probe):
    """The join summary over every matching pair, for build keys that
    may repeat (``reference_join`` assumes a primary key)."""
    order = np.argsort(build.keys, kind="stable")
    keys = build.keys[order]
    prefix = np.concatenate(
        [[0], np.cumsum(build_payload_column(build)[order], dtype=np.int64)]
    )
    lo = np.searchsorted(keys, probe.keys, side="left")
    hi = np.searchsorted(keys, probe.keys, side="right")
    mod = np.int64(2**62)
    return JoinMatch(
        matches=int((hi - lo).sum()),
        key_checksum=int((probe.keys * (hi - lo)).sum(dtype=np.int64) % mod),
        payload_checksum=int(
            (prefix[hi] - prefix[lo]).sum(dtype=np.int64) % mod
        ),
    )


def _bloom_empties_probe():
    """A drawn plan the bloom filter empties: the build keeps key 1, the
    probe keeps only rows of key 2 (seed 1 has no probe key 1)."""
    build_filter = {
        "op": "filter",
        "predicate": "key_range",
        "lo": 0,
        "hi": 2,
        "input": {"op": "scan", "relation": "build"},
    }
    probe_filter = {
        "op": "filter",
        "predicate": "key_range",
        "lo": 0,
        "hi": 3,
        "input": {"op": "scan", "relation": "probe"},
    }
    spec = {
        "name": "prop",
        "workload": {
            "build_m_tuples": 16,
            "probe_m_tuples": 16,
            "scale_divisor": SCALE,
            "seed": 1,
        },
        "root": {
            "op": "join",
            "algorithm": "bloom-triton",
            "build": build_filter,
            "probe": probe_filter,
        },
    }
    return spec, ("build", build_filter), probe_filter


@given(plan_specs())
@example(_bloom_empties_probe())
@settings(max_examples=12, deadline=None)
def test_round_trip_and_functional_reference(system, drawn):
    spec, (build_relation, build_filter), probe_filter = drawn
    result = execute_plan(spec, system=system)
    round_tripped = execute_plan(
        json.loads(json.dumps(spec)), system=system
    )
    assert round_tripped.checksum == result.checksum
    assert round_tripped.seconds == result.seconds

    config = validate_spec(spec)
    build, probe = generate_pk_fk(config)
    left = build if build_relation == "build" else probe
    left = left.take(np.nonzero(row_mask(build, left, build_filter))[0])
    right = probe.take(np.nonzero(row_mask(build, probe, probe_filter))[0])
    if build_relation == "build":
        assert result.match == reference_join(left, right)
    assert result.match == pairs_reference(left, right)
    assert result.output_rows == np.count_nonzero(
        np.isin(right.keys, left.keys)
    )


def _small(seed):
    return {
        "name": "small",
        "workload": {
            "build_m_tuples": 32,
            "probe_m_tuples": 32,
            "scale_divisor": SCALE,
            "seed": seed,
        },
        "root": {
            "op": "join",
            "build": {"op": "scan", "relation": "build"},
            "probe": {"op": "scan", "relation": "probe"},
        },
    }


def _big(seed):
    big = _small(seed)
    big["name"] = "big"
    big["workload"]["build_m_tuples"] = 2048
    big["workload"]["probe_m_tuples"] = 2048
    return big


def _service_threads():
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("join-service-")
    ]


@given(
    actions=st.lists(
        st.tuples(
            st.booleans(),  # big (over budget) or small
            st.integers(min_value=0, max_value=3),  # priority
            st.booleans(),  # cancel right after submit
        ),
        min_size=1,
        max_size=8,
    ),
    workers=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=12, deadline=None)
def test_interleavings_admit_deterministically_and_never_leak(
    system, actions, workers, seed
):
    small, big = _small(seed), _big(seed)
    budget = estimate_query_bytes(small) * 2
    assert estimate_query_bytes(big) > budget

    service = JoinService(
        system=system, workers=workers, memory_budget_bytes=budget
    )
    handles = []
    try:
        for is_big, priority, cancel in actions:
            spec = big if is_big else small
            handle = service.submit(spec, priority=priority)
            if cancel:
                handle.cancel()
            handles.append((is_big, cancel, handle))
    finally:
        service.shutdown(wait=True)

    for is_big, cancel, handle in handles:
        assert handle.done()
        # Admission is a pure function of (spec, budget): over-budget
        # specs are always rejected, in-budget ones never are.
        if is_big:
            assert handle.status == "rejected"
        elif cancel:
            # The cancel raced the worker; either way it resolved.
            assert handle.status in ("done", "cancelled")
        else:
            assert handle.status == "done"
        if handle.status == "done":
            assert handle.result().match is not None
            assert handle.metrics is not None

    # Nothing leaked: threads joined, ambient state clean, cache empty.
    assert _service_threads() == []
    assert context.current() is context.ROOT
    assert run_cache.size() == 0
    stats = service.stats()
    assert stats["submitted"] == len(actions)
    assert stats["rejected"] == sum(1 for a in actions if a[0])
