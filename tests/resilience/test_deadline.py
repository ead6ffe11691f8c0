"""Portfolio-level deadline enforcement (``total_max_seconds``).

A stuck worker must not hang the compile: the portfolio bounds its
``as_completed`` wait, threads the remaining wall clock into every arm's
own options, and on expiry returns a best-effort result — the best valid
winner so far, or ``STATUS_TIMEOUT`` naming the arms still running.

All injected hangs sleep ≤ 2 s; every deadline here is well under that.
"""

from __future__ import annotations

import concurrent.futures
import time

from repro.core import (
    CompileOptions,
    STATUS_FAULT,
    STATUS_OK,
    STATUS_TIMEOUT,
    CompileResult,
    Subproblem,
    portfolio_compile,
    select_result,
)
from repro.core.parallel import _with_deadline
from repro.hw import tofino_profile
from repro.resilience import WorkerCrash, injection

DEVICE = tofino_profile(key_limit=8, tcam_limit=64, lookahead_limit=8)


def _hang_2s():
    time.sleep(2.0)


def _slow_crash():
    time.sleep(0.4)
    raise WorkerCrash("slow then dead")


class TestDeadlineThreading:
    def test_deadline_threaded_into_arm_options(self):
        sub = Subproblem("arm", DEVICE, CompileOptions(), priority=0)
        bounded = _with_deadline(sub, time.monotonic() + 5.0)
        assert bounded.options.total_max_seconds is not None
        assert 0 < bounded.options.total_max_seconds <= 5.0
        assert bounded.label == sub.label
        assert bounded.priority == sub.priority

    def test_tighter_existing_budget_kept(self):
        sub = Subproblem(
            "arm", DEVICE, CompileOptions(total_max_seconds=1.0), priority=0
        )
        bounded = _with_deadline(sub, time.monotonic() + 30.0)
        assert bounded.options.total_max_seconds == 1.0

    def test_no_deadline_is_identity(self):
        sub = Subproblem("arm", DEVICE, CompileOptions(), priority=0)
        assert _with_deadline(sub, None) is sub


class TestExpiredDeadline:
    """An already-expired deadline must SKIP the arm, not launch it with
    a clamped micro-budget (regression: the old code clamped to 0.01s
    and the arm still ran, burning budget and misreporting a per-arm
    timeout)."""

    def test_with_deadline_returns_none_when_expired(self):
        sub = Subproblem("arm", DEVICE, CompileOptions(), priority=0)
        assert _with_deadline(sub, time.monotonic() - 0.1) is None
        assert _with_deadline(sub, time.monotonic()) is None

    def test_inline_arms_skipped_and_reported_pending(self):
        from repro.core.parallel import _run_arms_inline
        from repro.obs import Tracer

        subs = [
            Subproblem("first", DEVICE, CompileOptions(), 0),
            Subproblem("second", DEVICE, CompileOptions(), 1),
        ]
        tracer = Tracer()
        results = []
        pending = _run_arms_inline(
            None, subs, DEVICE, tracer,
            deadline=time.monotonic() - 1.0, results=results,
        )
        # Nothing launched: no results, both arms reported pending.
        assert results == []
        assert pending == ["first", "second"]
        assert tracer.registry.get("portfolio.deadline_expired") == 1
        out = select_result(subs, results, DEVICE, pending=pending)
        assert out.status == STATUS_TIMEOUT
        assert "first" in out.message and "second" in out.message

    def test_portfolio_compile_expired_budget_times_out_cleanly(
        self, spec, device
    ):
        # End-to-end: a compile whose budget is already unreachable must
        # come back as a timeout naming every arm, having launched none.
        result = portfolio_compile(
            spec,
            device,
            CompileOptions(parallel_workers=1, total_max_seconds=1e-9),
        )
        assert result.status == STATUS_TIMEOUT
        assert "still running" in result.message


class TestPooledDeadline:
    def test_hung_workers_yield_timeout_naming_arms(
        self, spec, device, new_children
    ):
        # Every worker hangs (in the subprocess only); the portfolio must
        # come back within ~total_max_seconds with a STATUS_TIMEOUT
        # partial result instead of blocking on a stuck future.
        injection.inject(
            "portfolio.worker",
            _hang_2s,
            times=None,
            scope="subprocess",
        )
        started = time.monotonic()
        result = portfolio_compile(
            spec,
            device,
            CompileOptions(parallel_workers=2, total_max_seconds=0.75),
        )
        elapsed = time.monotonic() - started
        assert result.status == STATUS_TIMEOUT
        assert "still running" in result.message
        assert "key<=8" in result.message
        # Came back promptly: the deadline, not the hang, set the pace.
        assert elapsed < 5.0
        # And the hung workers did not outlive the portfolio.
        assert not new_children()


class TestSequentialDeadline:
    def test_deadline_expiry_reports_unrun_arms(self, spec, device):
        # Arm 0 burns the whole budget then faults; the loop must stop
        # before arm 1 and report the remaining arms as still pending.
        injection.inject(
            "portfolio.worker", _slow_crash, match="key<=8"
        )
        result = portfolio_compile(
            spec,
            device,
            CompileOptions(parallel_workers=1, total_max_seconds=0.25),
        )
        assert result.status == STATUS_TIMEOUT
        assert "still running" in result.message
        assert "key<=4" in result.message
        # The arm that did run is reported with its fault.
        assert "WorkerCrash" in result.message


class _StubProgram:
    def __init__(self, violations=()):
        self._violations = list(violations)

    def check_constraints(self, _device):
        return list(self._violations)


class _InlinePool:
    """Executor stub: ``submit`` runs the callable synchronously and
    hands back an already-resolved Future."""

    def __init__(self, max_workers=None):
        pass

    def submit(self, fn, *args, **kwargs):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # delivered via future.result()
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestHarvestOnExpiry:
    """Regression: arms whose futures completed before the deadline fired
    but were never yielded by ``as_completed`` used to be reported as
    "still running" — silently dropping finished results (including a
    completed winner)."""

    def _patch_pool(self, monkeypatch):
        from repro.core import parallel as par

        monkeypatch.setattr(
            par.concurrent.futures, "ProcessPoolExecutor", _InlinePool
        )

        def never_yields(futures, timeout=None):
            raise concurrent.futures.TimeoutError()

        monkeypatch.setattr(
            par.concurrent.futures, "as_completed", never_yields
        )
        return par

    def test_done_futures_harvested_into_results(self, monkeypatch):
        from repro.obs import Tracer

        par = self._patch_pool(monkeypatch)
        winner = CompileResult(STATUS_OK, DEVICE, program=_StubProgram())
        loser = CompileResult(STATUS_TIMEOUT, DEVICE, message="slow")
        monkeypatch.setattr(
            par,
            "_run_subproblem",
            lambda spec, sub, trace=False, faults=None: (
                sub.priority, winner if sub.priority == 0 else loser,
                None,
            ),
        )
        subs = [
            Subproblem("fast", DEVICE, CompileOptions(), 0),
            Subproblem("also-done", DEVICE, CompileOptions(), 1),
        ]
        tracer = Tracer()
        results = []
        pending = par._run_pooled(
            None, subs, DEVICE, tracer,
            deadline=time.monotonic() + 5.0, workers=2, results=results,
        )
        # Both arms had finished: nothing is still running, both results
        # survived the expiry, and the winner is selectable.
        assert pending == []
        assert sorted(p for p, _r in results) == [0, 1]
        assert tracer.registry.get("portfolio.deadline_expired") == 1
        out = select_result(subs, results, DEVICE, pending=pending)
        assert out is winner

    def test_faulted_done_future_harvested_as_arm_fault(self, monkeypatch):
        from repro.obs import Tracer

        par = self._patch_pool(monkeypatch)

        def run(spec, sub, trace=False, faults=None):
            if sub.priority == 0:
                raise WorkerCrash("died before expiry")
            return (
                sub.priority,
                CompileResult(STATUS_TIMEOUT, DEVICE, message="slow"),
                None,
            )

        monkeypatch.setattr(par, "_run_subproblem", run)
        subs = [
            Subproblem("crashy", DEVICE, CompileOptions(), 0),
            Subproblem("slow", DEVICE, CompileOptions(), 1),
        ]
        tracer = Tracer()
        results = []
        pending = par._run_pooled(
            None, subs, DEVICE, tracer,
            deadline=time.monotonic() + 5.0, workers=2, results=results,
        )
        assert pending == []
        assert tracer.registry.get("portfolio.arm_faults") == 1
        by_priority = dict(results)
        assert by_priority[0].status == STATUS_FAULT
        assert "WorkerCrash" in by_priority[0].message
        out = select_result(subs, results, DEVICE, pending=pending)
        assert out.status != STATUS_OK
        assert "crashy" in out.message


class TestPartialSelection:
    def test_valid_winner_beats_pending_arms(self):
        # Deadline expired but a valid winner already completed: the
        # portfolio returns it (best-effort partial result).
        subs = [
            Subproblem("fast", DEVICE, CompileOptions(), 0),
            Subproblem("stuck", DEVICE, CompileOptions(), 1),
        ]
        winner = CompileResult(STATUS_OK, DEVICE, program=_StubProgram())
        out = select_result(
            subs, [(0, winner)], DEVICE, pending=["stuck"]
        )
        assert out is winner

    def test_no_winner_with_pending_is_timeout(self):
        subs = [
            Subproblem("a", DEVICE, CompileOptions(), 0),
            Subproblem("b", DEVICE, CompileOptions(), 1),
        ]
        out = select_result(subs, [], DEVICE, pending=["a", "b"])
        assert out.status == STATUS_TIMEOUT
        assert "a, b" in out.message
