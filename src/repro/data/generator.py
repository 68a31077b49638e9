"""Workload generation following the paper's evaluation setup.

Section 6.1: two base relations R and S of 16-byte ``<key, record-id>``
tuples; R contains randomly shuffled unique primary keys, S's foreign
keys follow a uniform random distribution over ``[1, |R|]``, and
record-ids hold random values. Relations are column-oriented. We extend
the generator with a Zipf option (skew robustness testing) and wide
tuples (section 6.2.10's payload-width experiment).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.data.relation import DeferredColumns, Relation
from repro.errors import ConfigurationError
from repro.units import M_TUPLES

#: Materialized rows never drop below this, so that even heavily scaled
#: workloads exercise multi-partition code paths.
MIN_MATERIALIZED_ROWS = 4096


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of one build/probe workload.

    Attributes:
        build_m_tuples: |R| in millions of tuples (nominal).
        probe_m_tuples: |S| in millions of tuples (nominal).
        payload_columns: 8-byte payload attributes per tuple (1 matches
            the paper's 16-byte default tuples).
        scale_divisor: nominal-to-materialized ratio for the functional
            layer (1 = run at full size).
        zipf_theta: skew of S's foreign keys (0 = uniform, the default).
        probe_hit_rate: fraction of S tuples whose key exists in R
            (1.0 = the paper's referential workloads; lower values model
            selective joins where filter pushdown pays off).
        seed: RNG seed for reproducibility.
    """

    build_m_tuples: float
    probe_m_tuples: float
    payload_columns: int = 1
    scale_divisor: float = 1.0
    zipf_theta: float = 0.0
    probe_hit_rate: float = 1.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.build_m_tuples <= 0 or self.probe_m_tuples <= 0:
            raise ConfigurationError("cardinalities must be positive")
        if self.payload_columns < 0:
            raise ConfigurationError("payload_columns cannot be negative")
        if self.scale_divisor < 1.0:
            raise ConfigurationError("scale_divisor must be >= 1")
        if self.zipf_theta < 0:
            raise ConfigurationError("zipf_theta cannot be negative")
        if not 0.0 < self.probe_hit_rate <= 1.0:
            raise ConfigurationError("probe_hit_rate must be in (0, 1]")

    @property
    def build_rows_nominal(self) -> int:
        return int(self.build_m_tuples * M_TUPLES)

    @property
    def probe_rows_nominal(self) -> int:
        return int(self.probe_m_tuples * M_TUPLES)

    def materialized_rows(self, nominal: int) -> int:
        scaled = int(nominal / self.scale_divisor)
        return max(min(nominal, MIN_MATERIALIZED_ROWS), scaled)


def _record_ids(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Random record-id payload values in ``[0, 2**62)``.

    Exactly ``rng.integers(0, 2**62, size=rows, dtype=np.int64)``, values
    and stream position alike, at about half the cost: for a
    power-of-two range numpy's bounded draw is one raw 64-bit word
    shifted right by 2, which never rejects. ``tests/test_generator.py``
    pins the equality.
    """
    raw = rng.bit_generator.random_raw(rows)
    raw >>= np.uint64(2)
    return raw.view(np.int64)


def _zipf_keys(
    rng: np.random.Generator, rows: int, universe: int, theta: float
) -> np.ndarray:
    """Zipf-distributed foreign keys over ``[1, universe]``.

    Uses the classic CDF-inversion over a truncated harmonic series;
    adequate for the moderate universes the functional layer runs on.
    """
    ranks = np.arange(1, universe + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, theta)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    draws = rng.random(rows)
    keys = np.searchsorted(cdf, draws) + 1
    # Shuffle the rank->key mapping so skew does not correlate with key order.
    perm = rng.permutation(universe) + 1
    return perm[keys - 1].astype(np.int64)


def _record_id_columns(
    state: dict, rows: int, names: Tuple[str, ...]
) -> Dict[str, np.ndarray]:
    """Record-id columns drawn from a saved bit-generator state.

    Each call starts from ``state``, so every call returns the arrays
    the generator would have drawn eagerly, and concurrent calls share
    nothing.
    """
    bit_generator = np.random.PCG64()
    bit_generator.state = state
    rng = np.random.Generator(bit_generator)
    return {name: _record_ids(rng, rows) for name in names}


def generate_pk_fk(config: WorkloadConfig) -> Tuple[Relation, Relation]:
    """Generate the paper's primary-key / foreign-key relation pair.

    Returns ``(R, S)`` where R's keys are a shuffled permutation of
    ``1..|R|`` and S's keys reference them (uniformly by default).
    S's payload columns are the generator's last draws and no join
    kernel reads them, so S keeps the bit-generator state and draws
    them, byte-identical, on first access.
    """
    rng = np.random.default_rng(config.seed)
    build_rows = config.materialized_rows(config.build_rows_nominal)
    probe_rows = config.materialized_rows(config.probe_rows_nominal)

    build_keys = rng.permutation(build_rows).astype(np.int64, copy=False)
    build_keys += 1
    if config.zipf_theta > 0:
        probe_keys = _zipf_keys(rng, probe_rows, build_rows, config.zipf_theta)
    else:
        probe_keys = rng.integers(1, build_rows + 1, size=probe_rows, dtype=np.int64)
    if config.probe_hit_rate < 1.0:
        # Replace a fraction of the foreign keys with values outside R's
        # key range: those probe tuples can never match.
        misses = rng.random(probe_rows) >= config.probe_hit_rate
        probe_keys[misses] = rng.integers(
            build_rows + 1, 2 * build_rows + 2, size=int(misses.sum()),
            dtype=np.int64,
        )

    names = tuple(f"attr{i}" for i in range(config.payload_columns))
    build = Relation(
        keys=build_keys,
        payloads={name: _record_ids(rng, build_rows) for name in names},
        nominal_rows=config.build_rows_nominal,
        name="R",
    )
    probe = Relation(
        keys=probe_keys,
        payloads=DeferredColumns(
            names,
            functools.partial(
                _record_id_columns, rng.bit_generator.state, probe_rows, names
            ),
        ),
        nominal_rows=config.probe_rows_nominal,
        name="S",
    )
    return build, probe


@dataclass(frozen=True)
class Workload:
    """A generated workload: the relation pair plus its configuration.

    ``lineage`` names how a workload was derived from the generated one
    (the plan layer sets it for a join over filtered or joined inputs,
    which share the config and may share the row counts); the run cache
    keys on it. A generated workload's lineage is empty.
    """

    config: WorkloadConfig
    build: Relation = field(repr=False)
    probe: Relation = field(repr=False)
    lineage: str = ""

    @property
    def total_nominal_tuples(self) -> int:
        """|R| + |S| at nominal size — the throughput denominator."""
        return self.build.nominal_rows + self.probe.nominal_rows

    @property
    def total_nominal_bytes(self) -> int:
        return self.build.nominal_bytes + self.probe.nominal_bytes


def generate_workload(
    build_m_tuples: float,
    probe_m_tuples: Optional[float] = None,
    payload_columns: int = 1,
    scale_divisor: float = 1.0,
    zipf_theta: float = 0.0,
    probe_hit_rate: float = 1.0,
    seed: int = 42,
) -> Workload:
    """Convenience constructor for :class:`Workload`.

    ``probe_m_tuples`` defaults to the build size (the paper's default
    |R| = |S| workloads).
    """
    config = WorkloadConfig(
        build_m_tuples=build_m_tuples,
        probe_m_tuples=(
            probe_m_tuples if probe_m_tuples is not None else build_m_tuples
        ),
        payload_columns=payload_columns,
        scale_divisor=scale_divisor,
        zipf_theta=zipf_theta,
        probe_hit_rate=probe_hit_rate,
        seed=seed,
    )
    build, probe = generate_pk_fk(config)
    return Workload(config=config, build=build, probe=probe)
