"""The benchmark's four workloads, each a closed loop of operations.

Every workload builds its inputs from the benchmark seed, computes its
reference results during set-up (outside the timed set-up), and checks
every operation against them. See README.md for why each one exists.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import time

import numpy as np

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.exec import ExecutionConfig, get_pool, shutdown_pool
from repro.join import run_cache
from repro.service import JoinService, execute_plan
from repro.service.loadgen import query_templates, zipf_weights
from repro.service.plan import estimate_query_bytes
from repro.telemetry import registry

#: Seconds a client waits for one query before counting it failed.
RESULT_TIMEOUT_S = 120.0


class Outcome:
    """One operation's checked results and what the tracer needs."""

    def __init__(
        self, checksums, handle=None, wait_s=0.0, counters=None, input_bytes=0
    ):
        self.checksums = checksums  # input key -> checksum
        self.handle = handle
        self.wait_s = wait_s
        self.counters = counters or {}
        self.input_bytes = input_bytes


def _join_spec(data_seed: int) -> dict:
    """R = S = 1024 M nominal at 1/2048: 0.5 M materialized rows a side."""
    return {
        "name": f"triton-1024m-seed{data_seed}",
        "workload": {
            "build_m_tuples": 1024,
            "probe_m_tuples": 1024,
            "scale_divisor": 2048,
            "seed": data_seed,
        },
        "root": {
            "op": "join",
            "algorithm": "triton",
            "build": {"op": "scan", "relation": "build"},
            "probe": {"op": "scan", "relation": "probe"},
        },
    }


class ServiceWorkload:
    """Queries submitted to a ``JoinService`` by closed-loop clients."""

    clients = 2
    exec_config = None
    pool_workers = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.specs = {}  # input key -> plan spec
        self.input_bytes = {}  # input key -> materialized tuple bytes
        self.service = None

    def _add(self, spec: dict) -> None:
        self.specs[spec["name"]] = spec
        self.input_bytes[spec["name"]] = estimate_query_bytes(spec)

    def references(self) -> dict:
        """Serial in-memory plan execution of every input."""
        return {
            key: execute_plan(spec).checksum for key, spec in self.specs.items()
        }

    def start(self) -> None:
        if self.pool_workers:
            # Fork the pool before the service starts its threads.
            get_pool(self.pool_workers).ensure_started()
        self.service = JoinService(workers=self.clients)

    def stop(self) -> None:
        if self.service is not None:
            self.service.shutdown(wait=True)
            self.service = None
        if self.pool_workers:
            shutdown_pool()

    def warm(self) -> None:
        for key in self.specs:
            self.run(key)

    def run(self, key) -> Outcome:
        handle = self.service.submit(
            self.specs[key], exec_config=self.exec_config
        )
        submitted = time.perf_counter()
        result = handle.result(timeout=RESULT_TIMEOUT_S)
        return Outcome(
            {key: result.checksum},
            handle=handle,
            wait_s=time.perf_counter() - submitted,
            counters=(handle.metrics or {}).get("counters", {}),
            input_bytes=self.input_bytes[key],
        )


class ServiceMix(ServiceWorkload):
    """The service's zipf template mix, all in memory."""

    name = "service-mix"
    theta = 1.2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        for template in query_templates():
            spec = copy.deepcopy(template)
            spec["workload"]["seed"] += 1000 * seed
            self._add(spec)
        self._keys = list(self.specs)
        self._weights = zipf_weights(len(self._keys), self.theta)

    def inputs(self, client: int):
        rng = np.random.default_rng([self.seed, client])
        while True:
            for index in rng.choice(len(self._keys), 256, p=self._weights):
                yield self._keys[index]


class BigJoin(ServiceWorkload):
    """One Triton join shape, one client, a few data seeds cycled."""

    name = "big-join"
    clients = 1
    data_seeds = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        for index in range(self.data_seeds):
            self._add(_join_spec(self.data_seeds * seed + index + 1))
        self._keys = list(self.specs)

    def inputs(self, client: int):
        while True:
            yield from self._keys

    def warm(self) -> None:
        self.run(self._keys[0])


class OutOfCore(BigJoin):
    """The big-join shape spilled under a budget, on a 2-worker pool."""

    name = "out-of-core"
    clients = 2
    pool_workers = 2
    #: A quarter of the 16 MB join state, so every query spills.
    budget_bytes = 4 << 20

    def __init__(self, seed: int, spill_dir: str) -> None:
        super().__init__(seed)
        self.exec_config = ExecutionConfig(
            budget_bytes=self.budget_bytes,
            workers=self.pool_workers,
            spill_dir=spill_dir,
        )

    def inputs(self, client: int):
        keys = self._keys[client:] + self._keys[:client]
        while True:
            yield from keys

    def warm(self) -> None:
        # Both clients' first queries are slow until each worker has
        # run a few morsels; warm with two concurrent rounds.
        for _ in range(2):
            handles = [
                self.service.submit(self.specs[key], exec_config=self.exec_config)
                for key in self._keys[: self.clients]
            ]
            for handle in handles:
                handle.result(timeout=RESULT_TIMEOUT_S)


#: Experiments the other workloads cover (the service mix and the
#: spilled join) and that would measure the service inside the sweep.
SKIPPED_EXPERIMENTS = ("ext_service", "ext_outofcore")
SWEEP = [n for n in ALL_EXPERIMENTS if n not in SKIPPED_EXPERIMENTS]
SWEEP_DIVISOR = 16384


def _render(module) -> str:
    kwargs = {}
    if "scale_divisor" in inspect.signature(module.run).parameters:
        kwargs["scale_divisor"] = SWEEP_DIVISOR
    result = module.run(**kwargs)
    tables = result if isinstance(result, tuple) else (result,)
    return "\n".join(table.format() for table in tables)


def _table_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class PaperFigures:
    """One operation = one sweep of the paper's experiments, run cache on."""

    name = "paper-figures"
    clients = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # The seed rotates the sweep order, which moves each shared
        # run-cache miss to a different experiment; the tables do not
        # depend on the order.
        start = seed % len(SWEEP)
        self.experiments = SWEEP[start:] + SWEEP[:start]

    def references(self) -> dict:
        """Every table with the run cache off."""
        run_cache.disable()
        run_cache.clear()
        return {
            name: _table_digest(_render(ALL_EXPERIMENTS[name]))
            for name in self.experiments
        }

    def start(self) -> None:
        run_cache.enable()

    def stop(self) -> None:
        run_cache.disable()
        run_cache.clear()

    def warm(self) -> None:
        _render(ALL_EXPERIMENTS["fig13"])
        run_cache.clear()

    def inputs(self, client: int):
        while True:
            yield "sweep"

    def run(self, key) -> Outcome:
        run_cache.clear()
        before = registry.snapshot()
        checksums = {
            name: _table_digest(_render(ALL_EXPERIMENTS[name]))
            for name in self.experiments
        }
        # clear() dropped the run-cache counters, so the delta holds this
        # sweep's hits and misses.
        return Outcome(
            checksums, counters=registry.delta_since(before)["counters"]
        )


def make(name: str, seed: int, spill_dir: str):
    if name == OutOfCore.name:
        return OutOfCore(seed, spill_dir)
    return {w.name: w for w in (ServiceMix, BigJoin, PaperFigures)}[name](seed)


NAMES = (ServiceMix.name, BigJoin.name, OutOfCore.name, PaperFigures.name)
