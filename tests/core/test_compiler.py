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
from repro.core.cegis import CegisSession
from repro.core.compiler import _budget_rng
from repro.core.normalize import prepare_spec
from repro.core.skeleton import build_skeleton, entry_lower_bound
from repro.hw import custom_profile, ipu_profile, tofino_profile
from repro.ir import parse_spec
from repro.obs import Tracer, use_tracer
from tests.conftest import ETH_DISPATCH, assert_program_matches_spec

TOFINO = tofino_profile(
    key_limit=8, tcam_limit=64, lookahead_limit=8, extract_limit=64
)
IPU = ipu_profile(
    key_limit=8, tcam_per_stage_limit=16, lookahead_limit=8,
    stage_limit=10, extract_limit=64,
)
# {1, 2} share a destination but no ternary cube, so start needs three
# entries while the destination-count lower bound claims two — the
# search must pass through an UNSAT budget first.
NEEDS_THREE_ENTRIES = """
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


def _memoryless_oracle(spec, num_entries):
    """One fresh CegisSession at ``num_entries`` that shares no pool, on
    the loop-free prepared spec, seeded as the compile seeds that budget:
    ``(feasible, cegis.iterations)``."""
    synth_spec, _plan = prepare_spec(
        spec, pipelined=True, minimize_widths=True, fix_varbits=True
    )
    skeleton = build_skeleton(
        synth_spec, TOFINO, CompileOptions(), num_entries=num_entries,
        stage_budget=None, allow_loops=False,
    )
    rng = _budget_rng(0, False, None, num_entries)
    tracer = Tracer()
    with use_tracer(tracer):
        outcome = CegisSession(skeleton, rng).run()
    return outcome.feasible, tracer.registry.get("cegis.iterations")


class TestTestReuse:
    """Cross-budget test reuse (the shared pool + warm sessions) must
    never change an answer — only how much work finding it costs."""

    @pytest.mark.parametrize(
        "source",
        [NEEDS_THREE_ENTRIES, ETH_DISPATCH],
        ids=["needs_three_entries", "eth_dispatch"],
    )
    def test_pool_never_changes_the_winning_budget(self, source, rng):
        """Every budget below the compile's answer is infeasible for the
        memoryless per-budget engine, the answer's budget is feasible,
        and the pool never costs iterations."""
        spec = parse_spec(source)
        result = compile_spec(spec, TOFINO)
        assert result.ok
        synth_spec, _plan = prepare_spec(
            spec, pipelined=True, minimize_widths=True, fix_varbits=True
        )
        oracle_iterations = 0
        lower = entry_lower_bound(synth_spec, TOFINO)
        for num_entries in range(lower, result.num_entries + 1):
            feasible, iterations = _memoryless_oracle(spec, num_entries)
            oracle_iterations += iterations
            assert feasible == (num_entries == result.num_entries)
        assert result.stats.cegis_iterations <= oracle_iterations
        assert_program_matches_spec(spec, result.program, rng)

    def test_forced_retries_resume_warm(self, dispatch_spec, rng):
        """A microscopic first slice forces the escalation schedule to
        retry, and the parked session continues warm.  Where exactly a
        slice expires is wall-clock dependent; the winning budget (the
        resource counts) and correctness are not."""
        warm = compile_spec(
            dispatch_spec, TOFINO, CompileOptions(budget_time_slice=1e-6)
        )
        default = compile_spec(dispatch_spec, TOFINO)
        assert warm.ok and default.ok
        assert warm.stats.warm_resumes >= 1
        assert warm.num_entries == default.num_entries
        assert warm.num_stages == default.num_stages
        assert_program_matches_spec(dispatch_spec, warm.program, rng)

    def test_pool_reuse_reported_in_stats(self):
        """Budgets past the first see the pool: a proved-UNSAT first
        budget's tests are replayed into the next one as constraints."""
        result = compile_spec(parse_spec(NEEDS_THREE_ENTRIES), TOFINO)
        assert result.ok
        assert result.stats.budgets_retired >= 1
        assert result.stats.pool_tests_reused >= 1


def test_rejected_scaled_program_falls_back_to_unscaled(
    dispatch_spec, monkeypatch
):
    """A winner whose restored (Opt2/Opt6-scaled) program fails the final
    check is re-synthesized at the same budget without scaling, by a
    session with a private pool."""
    calls = {"finalize": 0, "retry": 0}
    finalize = ParserHawkCompiler._finalize
    retry = ParserHawkCompiler._retry_unscaled

    def reject_first(self, *args, **kwargs):
        calls["finalize"] += 1
        if calls["finalize"] == 1:
            return None
        return finalize(self, *args, **kwargs)

    def counted_retry(self, *args, **kwargs):
        calls["retry"] += 1
        return retry(self, *args, **kwargs)

    monkeypatch.setattr(ParserHawkCompiler, "_finalize", reject_first)
    monkeypatch.setattr(ParserHawkCompiler, "_retry_unscaled", counted_retry)
    result = compile_spec(dispatch_spec, TOFINO)
    assert result.ok and result.num_entries == 5
    assert calls == {"finalize": 2, "retry": 1}
    assert verify_equivalent(dispatch_spec, result.program) is None
