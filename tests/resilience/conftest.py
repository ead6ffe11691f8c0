"""Shared fixtures for the fault-injection suite.

Every test runs with a clean injection registry; helper callables that
must survive pickling into pool workers live at module scope in the test
modules themselves.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.hw import tofino_profile
from repro.ir import parse_spec
from repro.resilience import injection
from tests.conftest import ETH_DISPATCH


@pytest.fixture(autouse=True)
def clean_injection():
    injection.clear()
    yield
    injection.clear()


@pytest.fixture
def device():
    return tofino_profile(key_limit=8, tcam_limit=64, lookahead_limit=8)


@pytest.fixture
def spec():
    return parse_spec(ETH_DISPATCH)


@pytest.fixture
def new_children():
    """Callable returning the ``multiprocessing`` children started since
    the test began that are still alive after ``grace`` seconds.  The
    grace covers bookkeeping only: a killed pool worker is dead at once,
    but the executor's thread may reap it a moment later."""
    before = set(multiprocessing.active_children())

    def alive(grace: float = 1.0):
        deadline = time.monotonic() + grace
        while True:
            extra = set(multiprocessing.active_children()) - before
            if not extra or time.monotonic() >= deadline:
                return extra
            time.sleep(0.01)

    return alive
