"""Opt7 parallel portfolio tests."""

from __future__ import annotations

import pytest

from repro.core import (
    CompileOptions,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_TIMEOUT,
    CompileResult,
    Subproblem,
    compile_spec,
    derive_subproblems,
    portfolio_compile,
    select_result,
)
from repro.hw import tofino_profile
from repro.obs import Tracer, use_tracer
from tests.conftest import assert_program_matches_spec

DEVICE = tofino_profile(key_limit=8, tcam_limit=64, lookahead_limit=8)


class _StubProgram:
    """Stands in for a TcamProgram in result-selection tests."""

    def __init__(self, violations=()):
        self._violations = list(violations)
        self.check_calls = 0

    def check_constraints(self, _device):
        self.check_calls += 1
        return list(self._violations)


def _sub(label: str, priority: int) -> Subproblem:
    return Subproblem(label, DEVICE, CompileOptions(), priority)


def _ok(violations=()) -> CompileResult:
    return CompileResult(STATUS_OK, DEVICE, program=_StubProgram(violations))


class TestSubproblemDerivation:
    def test_key_levels_derived(self, dispatch_spec):
        subs = derive_subproblems(dispatch_spec, DEVICE, CompileOptions())
        levels = {s.device.key_limit for s in subs}
        assert DEVICE.key_limit in levels
        assert len(levels) >= 2  # at least one tighter level

    def test_no_two_arms_share_a_compile(self, dispatch_spec):
        # Each arm's compile runs the §6.7.1 loop modes itself, so arms
        # that differ only in loop mode would race identical compiles.
        subs = derive_subproblems(dispatch_spec, DEVICE, CompileOptions())
        problems = [(s.device, s.options) for s in subs]
        assert len(set(problems)) == len(problems)

    def test_priorities_unique_and_ordered(self, dispatch_spec):
        subs = derive_subproblems(dispatch_spec, DEVICE, CompileOptions())
        priorities = [s.priority for s in subs]
        assert priorities == sorted(priorities)
        assert len(set(priorities)) == len(priorities)


class TestPortfolioCompile:
    def test_sequential_portfolio_matches_direct_compile(
        self, dispatch_spec, rng
    ):
        direct = compile_spec(dispatch_spec, DEVICE)
        portfolio = portfolio_compile(
            dispatch_spec, DEVICE, CompileOptions(parallel_workers=1)
        )
        assert portfolio.ok
        assert portfolio.num_entries == direct.num_entries
        assert_program_matches_spec(dispatch_spec, portfolio.program, rng)

    @pytest.mark.slow
    def test_parallel_workers_produce_valid_result(self, dispatch_spec, rng):
        result = portfolio_compile(
            dispatch_spec,
            DEVICE,
            CompileOptions(parallel_workers=2, total_max_seconds=120),
        )
        assert result.ok
        assert result.program.check_constraints(DEVICE) == []
        assert_program_matches_spec(dispatch_spec, result.program, rng)

    def test_result_respects_real_device(self, dispatch_spec):
        # A winner from a tighter key arm must still satisfy the real
        # device profile.
        result = portfolio_compile(
            dispatch_spec, DEVICE, CompileOptions(parallel_workers=1)
        )
        assert result.program.check_constraints(DEVICE) == []

    def test_sequential_portfolio_emits_arm_spans(self, dispatch_spec):
        tracer = Tracer()
        with use_tracer(tracer):
            result = portfolio_compile(
                dispatch_spec, DEVICE, CompileOptions(parallel_workers=1)
            )
        assert result.ok
        portfolio = tracer.finish().children[0]
        assert portfolio.name == "portfolio"
        arm_spans = [
            c for c in portfolio.children if c.name == "portfolio.arm"
        ]
        assert arm_spans
        assert "label" in arm_spans[0].attrs

    @pytest.mark.slow
    def test_parallel_workers_merge_worker_traces(self, dispatch_spec):
        tracer = Tracer()
        with use_tracer(tracer):
            result = portfolio_compile(
                dispatch_spec,
                DEVICE,
                CompileOptions(parallel_workers=2, total_max_seconds=120),
            )
        assert result.ok
        portfolio = tracer.finish().children[0]
        arm_spans = [
            c for c in portfolio.children if c.name == "portfolio.arm"
        ]
        # Worker span trees were grafted back into the parent trace …
        assert arm_spans
        assert any(c.name == "compile" for c in arm_spans[0].children)
        # … and their counters merged into the parent registry.
        assert tracer.registry.get("sat.solves") >= 1

    def test_worker_count_routes_to_the_right_executor(
        self, dispatch_spec, monkeypatch
    ):
        from repro.core import parallel as par

        calls = []

        def fake_pooled(spec, subs, device, tracer, deadline, workers,
                        results, on_result=None):
            calls.append("pool")
            results.append((subs[0].priority, _ok()))
            return []

        def fake_inline(spec, subs, device, tracer, deadline, results,
                        on_result=None):
            calls.append("sequential")
            results.append((subs[0].priority, _ok()))
            return []

        monkeypatch.setattr(par, "_run_pooled", fake_pooled)
        monkeypatch.setattr(par, "_run_arms_inline", fake_inline)
        for options in (
            CompileOptions(parallel_workers=2),
            CompileOptions(parallel_workers=1),
        ):
            assert par.portfolio_compile(dispatch_spec, DEVICE, options).ok
        assert calls == ["pool", "sequential"]

    def test_sequential_path_falls_back_past_violating_winner(
        self, dispatch_spec, monkeypatch
    ):
        from repro.core import parallel as par

        def fake_run(spec, sub, trace=False, faults=None):
            # The highest-priority arm "wins" with a program that violates
            # the real device; the next arm wins cleanly.
            violations = ["key too wide"] if sub.priority == 0 else []
            return sub.priority, _ok(violations), None

        monkeypatch.setattr(par, "_run_subproblem", fake_run)
        result = par.portfolio_compile(
            dispatch_spec, DEVICE, CompileOptions(parallel_workers=1)
        )
        assert result.ok
        assert result.program.check_constraints(DEVICE) == []


class TestSelectResult:
    """Regression tests for the portfolio result/diagnostic bugs."""

    def test_failures_name_the_arm_that_failed(self):
        # Results arrive in completion order, NOT priority order — the old
        # zip(subproblems, results) misattributed every failure.
        subs = [_sub("arm-a", 0), _sub("arm-b", 1), _sub("arm-c", 2)]
        results = [
            (2, CompileResult(STATUS_TIMEOUT, DEVICE, message="slow")),
            (0, CompileResult(STATUS_INFEASIBLE, DEVICE, message="no")),
            (1, CompileResult(STATUS_TIMEOUT, DEVICE, message="slow")),
        ]
        out = select_result(subs, results, DEVICE)
        assert out.status == STATUS_INFEASIBLE
        assert "arm-a: infeasible" in out.message
        assert "arm-b: timeout" in out.message
        assert "arm-c: timeout" in out.message
        assert "arm-a: timeout" not in out.message

    def test_best_winner_wins_regardless_of_completion_order(self):
        subs = [_sub("first", 0), _sub("second", 1)]
        best, worst = _ok(), _ok()
        out = select_result(subs, [(1, worst), (0, best)], DEVICE)
        assert out is best

    def test_violating_winner_falls_back_to_next_best(self):
        # The old code reported STATUS_INFEASIBLE as soon as the single
        # best winner failed check_constraints, even with a valid winner
        # right behind it.
        subs = [_sub("tight", 0), _sub("loose", 1)]
        bad = _ok(violations=["entry 3 key exceeds device limit"])
        good = _ok()
        out = select_result(subs, [(0, bad), (1, good)], DEVICE)
        assert out is good

    def test_sole_violating_winner_reports_why(self):
        subs = [_sub("tight", 0)]
        bad = _ok(violations=["entry 3 key exceeds device limit"])
        out = select_result(subs, [(0, bad)], DEVICE)
        assert out.status == STATUS_INFEASIBLE
        assert "tight" in out.message
        assert "violates device constraints" in out.message

    def test_winner_constraint_check_runs_once(
        self, dispatch_spec, monkeypatch
    ):
        # Cleanup regression: _valid_winner (race-time validation) and
        # select_result (final selection) used to each run the full
        # check_constraints on the winner; the memoized result means one
        # check per winner total.
        from repro.core import parallel as par

        winner = _ok()
        monkeypatch.setattr(
            par,
            "_run_subproblem",
            lambda spec, sub, trace=False, faults=None: (
                sub.priority, winner, None
            ),
        )
        out = par.portfolio_compile(
            dispatch_spec, DEVICE, CompileOptions(parallel_workers=1)
        )
        assert out is winner
        assert winner.program.check_calls == 1

    def test_violating_winner_checked_once_when_reported(self):
        subs = [_sub("tight", 0)]
        bad = _ok(violations=["entry 3 key exceeds device limit"])
        # Race-time validation (what portfolio_compile does) …
        assert bad.constraint_violations(DEVICE)
        # … then final selection reuses the memoized violations.
        out = select_result(subs, [(0, bad)], DEVICE)
        assert out.status == STATUS_INFEASIBLE
        assert bad.program.check_calls == 1

    def test_unknown_priority_does_not_crash(self):
        # Defensive: a result for a priority not in the subproblem list
        # still renders a label.
        out = select_result(
            [_sub("only", 0)],
            [(7, CompileResult(STATUS_TIMEOUT, DEVICE, message="x"))],
            DEVICE,
        )
        assert "arm#7: timeout" in out.message


class TestExecutorEquivalence:
    """The process pool and the sequential path land on identical winners
    (``parallel_workers`` is excluded from semantic fingerprints)."""

    def test_static_pool_matches_sequential(self, dispatch_spec):
        sequential = portfolio_compile(
            dispatch_spec, DEVICE, CompileOptions(parallel_workers=1, seed=7)
        )
        assert sequential.ok
        pooled = portfolio_compile(
            dispatch_spec,
            DEVICE,
            CompileOptions(parallel_workers=2, total_max_seconds=300, seed=7),
        )
        assert pooled.ok, pooled.message
        assert pooled.program.check_constraints(DEVICE) == []
        assert pooled.num_entries == sequential.num_entries
        assert pooled.num_stages == sequential.num_stages

    @pytest.mark.slow
    def test_static_pool_matches_sequential_on_table3_rows(self):
        from repro.benchgen import TABLE3_ROWS

        picked = [
            b for b in TABLE3_ROWS
            if b.base in ("parse_ethernet", "pure_extraction")
            and not b.mutations
        ]
        assert picked
        for bench in picked:
            spec = bench.spec()
            by_workers = {}
            for workers in (1, 2):
                result = portfolio_compile(
                    spec,
                    DEVICE,
                    CompileOptions(
                        parallel_workers=workers,
                        total_max_seconds=300,
                        seed=11,
                    ),
                )
                assert result.ok, (bench.row_label, workers, result.message)
                by_workers[workers] = result
            sequential, pooled = by_workers[1], by_workers[2]
            assert pooled.status == sequential.status, bench.row_label
            assert pooled.num_entries == sequential.num_entries, (
                bench.row_label
            )
            assert pooled.num_stages == sequential.num_stages, (
                bench.row_label
            )
