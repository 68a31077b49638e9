"""Shared fixtures for the test suite, plus the order-shuffle plugin.

``--shuffle-seed N`` reorders the collected tests with a seeded
shuffle (module groups are shuffled, then the tests inside each
module) — our stand-in for pytest-randomly, which this environment
cannot install. CI runs one shuffled leg per build; to reproduce a
shuffled failure locally, rerun with the seed printed in the pytest
header. Order-dependence is a bug: the autouse guards below fail the
*offending* test when it leaks ambient state to its neighbours.
"""

from __future__ import annotations

import dataclasses
import random
import threading

import pytest

from repro import context
from repro.data.generator import generate_workload
from repro.hw.cpu import CpuModel
from repro.hw.gpu import GpuModel
from repro.hw.specs import ac922, xeon_system


def pytest_addoption(parser):
    parser.addoption(
        "--shuffle-seed",
        type=int,
        default=None,
        metavar="N",
        help="shuffle test order with this seed (catches order-dependent "
        "tests; the header prints the seed for reproduction)",
    )


def pytest_report_header(config):
    seed = config.getoption("--shuffle-seed")
    if seed is not None:
        return f"shuffle: test order randomized with --shuffle-seed {seed}"
    return None


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--shuffle-seed")
    if seed is None:
        return
    rng = random.Random(seed)
    # Shuffle module order, and test order within each module, but keep
    # each module's tests contiguous: module-scoped fixtures still set
    # up once, and a failure reads as "this module, shuffled".
    by_module = {}
    for item in items:
        by_module.setdefault(item.module.__name__, []).append(item)
    modules = list(by_module)
    rng.shuffle(modules)
    shuffled = []
    for module in modules:
        group = by_module[module]
        rng.shuffle(group)
        shuffled.extend(group)
    items[:] = shuffled


@pytest.fixture(scope="session")
def system():
    """The paper's AC922 evaluation system."""
    return ac922()


@pytest.fixture(scope="session")
def xeon():
    """The Xeon Gold 6126 comparison host."""
    return xeon_system()


@pytest.fixture(scope="session")
def gpu_model(system):
    return GpuModel(system)


@pytest.fixture(scope="session")
def cpu_model(system):
    return CpuModel(system.cpu)


@pytest.fixture(scope="session")
def small_workload():
    """A small, full-scale (divisor 1) PK/FK workload."""
    return generate_workload(0.05, 0.1, scale_divisor=1, seed=7)


@pytest.fixture(scope="session")
def scaled_workload():
    """A nominal 512M workload materialized at a 8192x divisor."""
    return generate_workload(512, 512, scale_divisor=8192, seed=11)


def gpu_with_memory(capacity_bytes, base=None):
    """An AC922 variant whose GPU memory is capped at ``capacity_bytes``.

    Shared by the failure-injection and degradation-ladder tests (which
    used to each build their own crippled spec inline).
    """
    base = base if base is not None else ac922()
    memory = dataclasses.replace(base.gpu.memory, capacity_bytes=capacity_bytes)
    return base.with_gpu(dataclasses.replace(base.gpu, memory=memory))


@pytest.fixture(scope="session")
def fault_workload():
    """The small, fast workload all fault/ladder tests share."""
    return generate_workload(128, 128, scale_divisor=65536, seed=13)


@pytest.fixture(autouse=True)
def _no_leaked_query_context():
    """Every test starts and ends at the query context's root record.

    One guard for all of a query's ambient state — fault plan, exec
    config, metrics scopes, explain sink, event tags, notes mailbox: a
    scope a test forgot to exit would silently leak into every later
    test, exactly the kind of leak only a shuffled run surfaces.
    """
    assert context.current() is context.ROOT, (
        "a previous test leaked a query-context scope"
    )
    yield
    assert context.current() is context.ROOT, (
        "test left a query-context scope open"
    )


@pytest.fixture(autouse=True)
def _no_leaked_service_threads():
    """No live join-service workers between tests.

    A service whose test forgot ``shutdown()`` would keep daemon worker
    threads alive into every later test.
    """

    def service_threads():
        return [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("join-service-")
        ]

    assert service_threads() == [], (
        "a previous test leaked join-service worker threads"
    )
    yield
    leaked = service_threads()
    assert leaked == [], f"test left join-service threads alive: {leaked}"
