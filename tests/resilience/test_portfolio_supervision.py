"""Arm supervision and pool recovery in ``portfolio_compile``.

Covers the §6.7 portfolio's failure modes deterministically via the
fault-injection registry: a crashing arm (sequential and pooled), a
worker process dying hard (broken pool → in-process re-execution), and
an environment where no process pool can be created at all (degraded
sequential fallback).
"""

from __future__ import annotations

import os
import time

from repro.core import (
    CompileOptions,
    STATUS_FAULT,
    STATUS_INFEASIBLE,
    portfolio_compile,
)
from repro.obs import Tracer, use_tracer
from repro.resilience import WorkerCrash, injection

FIRST_ARM = "key<=8"     # highest-priority arm for the fixture spec
SECOND_ARM = "key<=4"


def _exit_hard():
    # Simulates a worker killed by the OS (OOM killer, segfault): the
    # parent sees BrokenProcessPool, not a Python exception.
    os._exit(3)


def _hang_60s():
    # A losing arm that would outlive the race by a minute.
    time.sleep(60.0)


def _span_names(span, acc=None):
    acc = acc if acc is not None else []
    acc.append(span.name)
    for child in span.children:
        _span_names(child, acc)
    return acc


class TestSequentialSupervision:
    def test_crashing_arm_yields_next_best_winner(self, spec, device):
        # Satellite regression: an arm that raises must not abort the
        # sequential loop — later arms still run and win.
        injection.inject(
            "portfolio.worker", WorkerCrash("injected"), match=FIRST_ARM
        )
        tracer = Tracer()
        with use_tracer(tracer):
            result = portfolio_compile(
                spec, device, CompileOptions(parallel_workers=1)
            )
        assert result.ok
        assert result.program.check_constraints(device) == []
        assert tracer.registry.get("portfolio.arm_faults") == 1

    def test_fault_recorded_on_arm_span(self, spec, device):
        injection.inject(
            "portfolio.worker", WorkerCrash("injected"), match=FIRST_ARM
        )
        tracer = Tracer()
        with use_tracer(tracer):
            portfolio_compile(
                spec, device, CompileOptions(parallel_workers=1)
            )
        portfolio = tracer.finish().children[0]
        faulted = [
            c for c in portfolio.children
            if c.name == "portfolio.arm" and "error" in c.attrs
        ]
        assert len(faulted) == 1
        assert faulted[0].attrs["label"] == FIRST_ARM
        assert "WorkerCrash" in faulted[0].attrs["error"]

    def test_all_arms_crashing_reports_fault_list(self, spec, device):
        injection.inject(
            "portfolio.worker", WorkerCrash("injected"), times=None
        )
        result = portfolio_compile(
            spec, device, CompileOptions(parallel_workers=1)
        )
        assert result.status == STATUS_INFEASIBLE
        assert "fault" in result.message
        assert "WorkerCrash" in result.message
        assert FIRST_ARM in result.message

    def test_non_fault_exception_also_supervised(self, spec, device):
        # Arbitrary exceptions (not just CompileFault) become per-arm
        # failures too — e.g. a bug in one arm's encoding.
        injection.inject(
            "portfolio.worker", ValueError("arm bug"), match=FIRST_ARM
        )
        result = portfolio_compile(
            spec, device, CompileOptions(parallel_workers=1)
        )
        assert result.ok


class TestPooledSupervision:
    def test_worker_exception_becomes_per_arm_failure(self, spec, device):
        # Satellite regression: a worker exception used to propagate out
        # of future.result() and kill the whole compile.
        injection.inject(
            "portfolio.worker", WorkerCrash("injected"), match=FIRST_ARM
        )
        tracer = Tracer()
        with use_tracer(tracer):
            result = portfolio_compile(
                spec,
                device,
                CompileOptions(parallel_workers=2, total_max_seconds=120),
            )
        assert result.ok
        assert result.program.check_constraints(device) == []
        assert tracer.registry.get("portfolio.arm_faults") >= 1
        # The fault shows up as a marker span event in the parent trace.
        names = _span_names(tracer.finish())
        assert "portfolio.arm.fault" in names

    def test_broken_pool_recovers_in_process(self, spec, device):
        # The worker running the first arm dies hard; the pool breaks;
        # the portfolio re-runs not-yet-completed arms in-process.  The
        # "subprocess" scope keeps the kill from re-firing in-process.
        injection.inject(
            "portfolio.worker",
            _exit_hard,
            match=FIRST_ARM,
            times=None,
            scope="subprocess",
        )
        tracer = Tracer()
        with use_tracer(tracer):
            result = portfolio_compile(
                spec,
                device,
                CompileOptions(parallel_workers=2, total_max_seconds=120),
            )
        assert result.ok
        assert result.program.check_constraints(device) == []
        assert tracer.registry.get("portfolio.pool_broken") == 1
        names = _span_names(tracer.finish())
        assert "portfolio.recovery" in names

    def test_losing_arm_is_stopped_when_the_winner_returns(
        self, spec, device, new_children
    ):
        # The second arm hangs in its worker while the first one wins.
        # shutdown(cancel_futures=True) alone would leave that worker
        # sleeping for a minute after the portfolio returned.
        injection.inject(
            "portfolio.worker",
            _hang_60s,
            match=SECOND_ARM,
            times=None,
            scope="subprocess",
        )
        started = time.monotonic()
        result = portfolio_compile(
            spec,
            device,
            CompileOptions(parallel_workers=2, total_max_seconds=120),
        )
        assert result.ok
        assert time.monotonic() - started < 30.0
        assert not new_children()

    def test_pool_unavailable_degrades_to_sequential(self, spec, device):
        # Sandboxed environments: ProcessPoolExecutor cannot be created.
        injection.inject("portfolio.pool", OSError("sandboxed"))
        tracer = Tracer()
        with use_tracer(tracer):
            result = portfolio_compile(
                spec,
                device,
                CompileOptions(parallel_workers=2, total_max_seconds=120),
            )
        assert result.ok
        assert result.program.check_constraints(device) == []
        assert tracer.registry.get("portfolio.pool_unavailable") == 1
        names = _span_names(tracer.finish())
        assert "portfolio.degraded" in names
        assert "portfolio.arm" in names


class TestFaultResultShape:
    def test_arm_fault_result_names_exception(self, spec, device):
        injection.inject(
            "portfolio.worker", WorkerCrash("kaboom"), times=None
        )
        result = portfolio_compile(
            spec, device, CompileOptions(parallel_workers=1)
        )
        # Every arm failed with a fault; the aggregate names them.
        assert result.status == STATUS_INFEASIBLE
        assert result.message.count(STATUS_FAULT) >= 2
