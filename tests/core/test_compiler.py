"""End-to-end ParserHawk compilation tests on both device families."""

from __future__ import annotations

import pytest

from repro.core import (
    CompileOptions,
    ParserHawkCompiler,
    STATUS_INFEASIBLE,
    STATUS_TIMEOUT,
    compile_spec,
    verify_equivalent,
)
from repro.hw import custom_profile, ipu_profile, tofino_profile
from repro.ir import parse_spec
from tests.conftest import assert_program_matches_spec

TOFINO = tofino_profile(
    key_limit=8, tcam_limit=64, lookahead_limit=8, extract_limit=64
)
IPU = ipu_profile(
    key_limit=8, tcam_per_stage_limit=16, lookahead_limit=8,
    stage_limit=10, extract_limit=64,
)


class TestBasicCompiles:
    def test_unconditional_chain_single_entry(self, rng):
        spec = parse_spec(
            """
            header h { a : 4; b : 4; }
            parser P {
                state start { extract(h.a); transition next; }
                state next  { extract(h.b); transition accept; }
            }
            """
        )
        result = compile_spec(spec, TOFINO)
        assert result.ok
        assert result.num_entries == 1
        assert_program_matches_spec(spec, result.program, rng)

    def test_conditional_dispatch(self, dispatch_spec, rng):
        result = compile_spec(dispatch_spec, TOFINO)
        assert result.ok
        assert_program_matches_spec(dispatch_spec, result.program, rng)
        # Exact verification as well.
        assert verify_equivalent(dispatch_spec, result.program) is None

    def test_dispatch_on_ipu(self, dispatch_spec, rng):
        result = compile_spec(dispatch_spec, IPU)
        assert result.ok
        assert result.num_stages >= 2
        assert result.program.check_constraints(IPU) == []
        assert_program_matches_spec(dispatch_spec, result.program, rng)

    def test_explicit_reject_arm(self, rng):
        spec = parse_spec(
            """
            header h { a : 4; b : 4; }
            parser P {
                state start {
                    extract(h.a);
                    transition select(h.a) {
                        3 : reject;
                        0 &&& 0x3 : more;
                        default : accept;
                    }
                }
                state more { extract(h.b); transition accept; }
            }
            """
        )
        result = compile_spec(spec, TOFINO)
        assert result.ok
        assert_program_matches_spec(spec, result.program, rng)

    def test_lookahead_spec(self, rng):
        spec = parse_spec(
            """
            header h { a : 2; b : 4; }
            parser P {
                state start {
                    extract(h.a);
                    transition select(lookahead(2)) {
                        0b11 : more; default : accept;
                    }
                }
                state more { extract(h.b); transition accept; }
            }
            """
        )
        result = compile_spec(spec, TOFINO)
        assert result.ok
        assert_program_matches_spec(spec, result.program, rng)

    def test_varbit_spec(self, rng):
        spec = parse_spec(
            """
            header h { n : 2; body : varbit 12; tail : 2; }
            parser P {
                state start {
                    extract(h.n);
                    extract_var(h.body, h.n, 4);
                    extract(h.tail);
                    transition accept;
                }
            }
            """
        )
        result = compile_spec(spec, TOFINO)
        assert result.ok
        assert_program_matches_spec(spec, result.program, rng, max_len=24)


class TestLoops:
    MPLS = """
    header eth { t : 4; }
    header m { v : 3 stack 3; b : 1 stack 3; }
    parser P {
        state start {
            extract(eth);
            transition select(eth.t) { 8 : l; default : accept; }
        }
        state l {
            extract(m);
            transition select(m.b) { 1 : accept; default : l; }
        }
    }
    """

    def test_tofino_reuses_loop_entry(self, rng):
        spec = parse_spec(self.MPLS)
        result = compile_spec(spec, TOFINO)
        assert result.ok
        # Loop reuse keeps the program at one state for the stack.
        assert result.num_entries <= 4
        assert_program_matches_spec(spec, result.program, rng, max_len=24)

    def test_ipu_unrolls_loop(self, rng):
        spec = parse_spec(self.MPLS)
        result = compile_spec(spec, IPU)
        assert result.ok
        assert result.num_stages >= 4  # eth + 3 unrolled copies
        assert result.program.check_constraints(IPU) == []
        assert_program_matches_spec(spec, result.program, rng, max_len=24)


class TestResourceMinimality:
    def test_merged_rules_use_fewer_entries(self):
        # {15,11,7,3} merge into one ternary entry (Figure 4 Step 1).
        spec = parse_spec(
            """
            header h { k : 4; x : 2; }
            parser P {
                state start {
                    extract(h.k);
                    transition select(h.k) {
                        15 : n1; 11 : n1; 7 : n1; 3 : n1;
                        default : accept;
                    }
                }
                state n1 { extract(h.x); transition accept; }
            }
            """
        )
        result = compile_spec(spec, TOFINO)
        assert result.ok
        # start: merged cube + default, n1: exit -> 3 entries.
        assert result.num_entries == 3

    def test_redundant_spec_entries_removed(self):
        spec = parse_spec(
            """
            header h { k : 4; x : 2; }
            parser P {
                state start {
                    extract(h.k);
                    transition select(h.k) {
                        0 : n1; 3 : n1; 5 : n1; 6 : n1;
                        9 : n1; 10 : n1; 12 : n1; 15 : n1;
                        default : n1;
                    }
                }
                state n1 { extract(h.x); transition accept; }
            }
            """
        )
        result = compile_spec(spec, TOFINO)
        assert result.ok
        assert result.num_entries == 1  # everything goes to n1, then merge

    def test_same_resources_across_writing_styles(self):
        base = parse_spec(
            """
            header h { k : 4; x : 2; }
            parser P {
                state start {
                    extract(h.k);
                    transition select(h.k) {
                        0b1100 &&& 0b1100 : n1;
                        default : accept;
                    }
                }
                state n1 { extract(h.x); transition accept; }
            }
            """
        )
        from repro.ir.rewrites import split_entries

        styled = split_entries(base)
        r1 = compile_spec(base, TOFINO)
        r2 = compile_spec(styled, TOFINO)
        assert r1.ok and r2.ok
        assert r1.num_entries == r2.num_entries


class TestInfeasibility:
    def test_impossible_entry_budget(self, dispatch_spec):
        tiny = custom_profile(
            key_limit=8, tcam_limit=1, lookahead_limit=8
        )
        result = compile_spec(dispatch_spec, tiny)
        assert result.status == STATUS_INFEASIBLE

    def test_too_few_stages(self):
        spec = parse_spec(
            """
            header h { a : 2; b : 2; c : 2; }
            parser P {
                state start { extract(h.a);
                    transition select(h.a) { 1 : s1; default : accept; } }
                state s1 { extract(h.b);
                    transition select(h.b) { 1 : s2; default : accept; } }
                state s2 { extract(h.c); transition accept; }
            }
            """
        )
        shallow = ipu_profile(
            key_limit=8, tcam_per_stage_limit=16, stage_limit=2,
            lookahead_limit=8,
        )
        result = compile_spec(spec, shallow)
        assert result.status == STATUS_INFEASIBLE

    def test_lint_violation_reported(self):
        spec = parse_spec(
            """
            header h { a : 2; b : 2; }
            parser P {
                state start {
                    extract(h.a);
                    transition select(h.b) { default : accept; }
                }
            }
            """
        )
        result = compile_spec(spec, TOFINO)
        assert result.status == STATUS_INFEASIBLE
        assert "h.b" in result.message

    def test_front_end_rejection_reports_its_time(self):
        # A pipelined target cannot unroll a multi-state cycle; the
        # front end rejects it, and the stats still count that work.
        spec = parse_spec(
            """
            header h { a : 2; b : 2; }
            parser P {
                state start { extract(h.a);
                    transition select(h.a) { 1 : s1; default : accept; } }
                state s1 { extract(h.b);
                    transition select(h.b) { 1 : start; default : accept; } }
            }
            """
        )
        result = compile_spec(spec, IPU)
        assert result.status == STATUS_INFEASIBLE
        assert "multi-state cycle" in result.message
        assert result.stats.total_seconds > 0


class TestStatsAndOptions:
    def test_stats_populated(self, dispatch_spec):
        result = compile_spec(dispatch_spec, TOFINO)
        assert result.ok
        assert result.stats.total_seconds > 0
        assert result.stats.cegis_iterations >= 1
        assert result.stats.search_space_bits > 0
        assert result.stats.budgets_tried >= 1

    def test_options_summary_recorded(self, dispatch_spec):
        result = ParserHawkCompiler(CompileOptions()).compile(
            dispatch_spec, TOFINO
        )
        assert "Opt1" in result.options_summary

    def test_disabled_options_still_correct(self, dispatch_spec, rng):
        opts = CompileOptions(
            opt1_spec_guided_keys=True,
            opt2_bitwidth_minimization=False,
            opt4_constant_synthesis=False,
            opt5_key_grouping=False,
            total_max_seconds=120,
        )
        result = ParserHawkCompiler(opts).compile(dispatch_spec, TOFINO)
        assert result.ok
        assert_program_matches_spec(dispatch_spec, result.program, rng)

    def test_gate_cache_hits_without_constant_synthesis(self, dispatch_spec):
        # Gate-cache hits need repeated gate structure, which the free
        # TCAM value/mask bit-vectors of an Opt4-off encoding provide
        # (at default options this spec records none); reusing those
        # gates must not change the answer.
        default = compile_spec(dispatch_spec, TOFINO)
        result = compile_spec(
            dispatch_spec, TOFINO,
            CompileOptions(opt4_constant_synthesis=False),
        )
        assert result.ok
        assert result.stats.sat_gate_cache_hits > 0
        assert result.num_entries == default.num_entries == 5

    def test_deterministic_across_runs(self, dispatch_spec):
        r1 = compile_spec(dispatch_spec, TOFINO)
        r2 = compile_spec(dispatch_spec, TOFINO)
        assert r1.num_entries == r2.num_entries
        assert [
            (e.sid, e.pattern.value, e.pattern.mask, e.next_sid)
            for e in r1.program.entries
        ] == [
            (e.sid, e.pattern.value, e.pattern.mask, e.next_sid)
            for e in r2.program.entries
        ]

    def test_summary_row_format(self, dispatch_spec):
        result = compile_spec(dispatch_spec, TOFINO)
        row = result.summary_row()
        assert "entries" in row and "CEGIS" in row


class TestBudgetAccounting:
    """Regression: retrying a budget in a later escalation round must not
    inflate ``budgets_tried`` (the old code re-counted it every round)."""

    def test_retried_budget_counted_once(self, dispatch_spec, monkeypatch):
        from repro.core import SynthesisTimeout
        from repro.core import compiler as compiler_mod

        class AlwaysTimesOut:
            def __init__(self, *_args, **_kwargs):
                pass

            def run(self, *_args, **_kwargs):
                raise SynthesisTimeout("synthetic slice expiry")

        monkeypatch.setattr(compiler_mod, "CegisSession", AlwaysTimesOut)
        opts = CompileOptions(
            max_extra_entries=0,       # exactly one budget
            budget_time_slice=0.05,    # three escalation rounds:
            max_time_slice=0.8,        # 0.05, 0.2, 0.8
        )
        result = ParserHawkCompiler(opts).compile(dispatch_spec, TOFINO)
        assert result.status == STATUS_TIMEOUT
        # One unique budget attempted; the two re-attempts are retries.
        assert result.stats.budgets_tried == 1
        assert result.stats.budget_retries == 2


class TestTestReuse:
    """Cross-budget test reuse (the shared pool + warm sessions) must
    never change an answer — only how much work finding it costs."""

    def test_reuse_on_off_agree_on_resources(self, dispatch_spec, rng):
        on = compile_spec(
            dispatch_spec, TOFINO, CompileOptions(test_reuse=True)
        )
        off = compile_spec(
            dispatch_spec, TOFINO, CompileOptions(test_reuse=False)
        )
        assert on.ok and off.ok
        assert on.num_entries == off.num_entries
        assert on.num_stages == off.num_stages
        assert on.stats.cegis_iterations <= off.stats.cegis_iterations
        assert_program_matches_spec(dispatch_spec, on.program, rng)

    def test_forced_retries_resume_warm(self, dispatch_spec, rng):
        """A microscopic first slice forces the escalation schedule to
        retry: with reuse the parked session continues (warm_resumes),
        without it every retry is a cold re-run.  Where exactly a slice
        expires is wall-clock dependent, so the entry *patterns* may
        legitimately differ between modes — the guarantee is the winning
        budget (the resource counts) and correctness, which must be
        identical."""
        on = compile_spec(
            dispatch_spec, TOFINO,
            CompileOptions(test_reuse=True, budget_time_slice=1e-6),
        )
        off = compile_spec(
            dispatch_spec, TOFINO,
            CompileOptions(test_reuse=False, budget_time_slice=1e-6),
        )
        assert on.ok and off.ok
        assert on.num_entries == off.num_entries
        assert on.num_stages == off.num_stages
        assert on.stats.warm_resumes >= 1
        assert off.stats.warm_resumes == 0
        assert off.stats.budget_retries >= 1
        assert_program_matches_spec(dispatch_spec, on.program, rng)
        assert_program_matches_spec(dispatch_spec, off.program, rng)

    def test_pool_reuse_reported_in_stats(self):
        """Budgets past the first see the pool: a proved-UNSAT first
        budget's tests are replayed into the next one as constraints."""
        # {1, 2} share a destination but no ternary cube, so start needs
        # three entries while the destination-count lower bound claims
        # two — the search must pass through an UNSAT budget first.
        spec = parse_spec(
            """
            header h { a : 4; x : 2; }
            parser P {
                state start {
                    extract(h.a);
                    transition select(h.a) {
                        1 : s1; 2 : s1; default : accept;
                    }
                }
                state s1 { extract(h.x); transition accept; }
            }
            """
        )
        result = compile_spec(spec, TOFINO, CompileOptions(test_reuse=True))
        assert result.ok
        assert result.stats.budgets_retired >= 1
        assert result.stats.pool_tests_reused >= 1
