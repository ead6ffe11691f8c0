"""Front-end normalization: canonicalization, unrolling, scaling."""

from __future__ import annotations

import random

import pytest

from repro.benchgen import random_spec
from repro.benchgen.suites import MUTATIONS, TABLE3_ROWS
from repro.core.compiler import compile_spec
from repro.core.normalize import (
    CompileError,
    canonicalize,
    prepare_spec,
    scale_spec,
    unroll_self_loops,
)
from repro.core.options import CompileOptions
from repro.hw.device import ipu_profile, tofino_profile
from repro.ir import ACCEPT, REJECT, parse_spec
from repro.ir.analysis import has_loops
from repro.ir.rewrites import remove_unreachable_entries
from tests.conftest import assert_specs_equivalent

MESSY = """
header h { a : 4; b : 4; c : 4; }
parser Messy {
    state start {
        extract(h.a);
        transition select(h.a) {
            1 : chain1;
            1 : chain1;          // duplicate (R1 noise)
            default : accept;
        }
    }
    state chain1 { extract(h.b); transition chain2; }
    state chain2 { extract(h.c); transition accept; }
    state orphan { transition reject; }
}
"""


class TestCanonicalize:
    def test_removes_duplicates_orphans_merges_chains(self, rng):
        spec = parse_spec(MESSY)
        clean = canonicalize(spec)
        assert "orphan" not in clean.states
        assert len(clean.states) == 2  # chain1+chain2 merged
        assert len(clean.states["start"].rules) == 2
        assert_specs_equivalent(spec, clean, rng, samples=150)

    def test_idempotent(self):
        spec = parse_spec(MESSY)
        once = canonicalize(spec)
        twice = canonicalize(once)
        assert set(once.states) == set(twice.states)

    def test_collapses_key_split_chains(self, rng):
        from repro.ir.rewrites import split_transition_key

        spec = parse_spec(
            """
            header h { k : 4; x : 2; }
            parser P {
                state start {
                    extract(h.k);
                    transition select(h.k) {
                        0xA : n1; 0xB : n1; default : accept;
                    }
                }
                state n1 { extract(h.x); transition accept; }
            }
            """
        )
        split = split_transition_key(spec)
        assert len(split.states) > len(spec.states)
        clean = canonicalize(split)
        assert len(clean.states) == len(spec.states)
        assert_specs_equivalent(spec, clean, rng, samples=150)


class TestUnroll:
    MPLS = """
    header m { label : 3 stack 3; bos : 1 stack 3; }
    parser P {
        state start {
            extract(m);
            transition select(m.bos) { 1 : accept; default : start; }
        }
    }
    """

    def test_unroll_removes_loops(self, rng):
        spec = parse_spec(self.MPLS)
        unrolled = unroll_self_loops(spec)
        assert not has_loops(unrolled)
        assert_specs_equivalent(spec, unrolled, rng, samples=250, max_len=20)

    def test_unroll_depth_matches_stack(self):
        spec = parse_spec(self.MPLS)
        unrolled = unroll_self_loops(spec)
        # 3 copies plus the overflow state.
        assert len(unrolled.states) == 4

    def test_unroll_noop_without_loops(self, two_state_spec):
        assert unroll_self_loops(two_state_spec) is two_state_spec

    def test_unbounded_loop_rejected(self):
        spec = parse_spec(
            """
            header h { a : 2; }
            parser P {
                state start {
                    extract(h.a);
                    transition select(h.a) { 1 : accept; default : start; }
                }
            }
            """
        )
        # h.a is not a stack: nothing bounds the loop.
        with pytest.raises(CompileError):
            unroll_self_loops(spec)

    def test_multi_state_cycle_rejected(self):
        spec = parse_spec(
            """
            header h { a : 2 stack 2; }
            header g { b : 2 stack 2; }
            parser P {
                state start { extract(h.a); transition other; }
                state other {
                    extract(g.b);
                    transition select(g.b) { 1 : accept; default : start; }
                }
            }
            """
        )
        with pytest.raises(CompileError):
            unroll_self_loops(spec)


class TestScaling:
    WIDE = """
    header h { key : 4; payload : 16; }
    parser P {
        state start {
            extract(h.key);
            extract(h.payload);
            transition select(h.key) { 1 : accept; default : reject; }
        }
    }
    """

    def test_irrelevant_field_shrinks(self):
        spec = parse_spec(self.WIDE)
        scaled, plan = scale_spec(spec, minimize_widths=True, fix_varbits=False)
        assert scaled.fields["h.payload"].width == 1
        assert scaled.fields["h.key"].width == 4

    def test_plan_restores_widths(self):
        spec = parse_spec(self.WIDE)
        scaled, plan = scale_spec(spec, minimize_widths=True, fix_varbits=False)
        restored = plan.restore_fields(scaled.fields)
        assert restored["h.payload"].width == 16

    def test_lookahead_disables_width_scaling(self):
        spec = parse_spec(
            """
            header h { a : 4; pad : 8; }
            parser P {
                state start {
                    extract(h.a);
                    transition select(lookahead(2)) {
                        1 : skip; default : accept;
                    }
                }
                state skip { extract(h.pad); transition accept; }
            }
            """
        )
        scaled, _plan = scale_spec(spec, minimize_widths=True, fix_varbits=False)
        assert scaled.fields["h.pad"].width == 8  # untouched

    def test_varbit_fixing(self):
        spec = parse_spec(
            """
            header h { n : 2; body : varbit 8; }
            parser P {
                state start {
                    extract(h.n);
                    extract_var(h.body, h.n, 4);
                    transition accept;
                }
            }
            """
        )
        scaled, _plan = scale_spec(spec, minimize_widths=False, fix_varbits=True)
        assert not scaled.fields["h.body"].is_varbit

    def test_noop_returns_same_spec(self, two_state_spec):
        scaled, _plan = scale_spec(
            two_state_spec, minimize_widths=False, fix_varbits=False
        )
        assert scaled is two_state_spec


class TestPrepare:
    def test_pipelined_prepare_unrolls(self):
        spec = parse_spec(TestUnroll.MPLS)
        prepared, _plan = prepare_spec(
            spec, pipelined=True, minimize_widths=True, fix_varbits=True
        )
        assert not has_loops(prepared)

    def test_single_tcam_prepare_keeps_loop(self):
        spec = parse_spec(TestUnroll.MPLS)
        prepared, _plan = prepare_spec(
            spec, pipelined=False, minimize_widths=True, fix_varbits=True
        )
        assert has_loops(prepared)


@pytest.mark.parametrize("pipelined", [False, True])
@pytest.mark.parametrize("row", TABLE3_ROWS, ids=lambda b: b.row_label)
def test_table3_prepared_spec_matches_input(row, pipelined):
    """The front end the synthesizer sees is the row's own semantics,
    whichever R1-R5 writing the row uses."""
    spec = row.spec()
    prepared, _plan = prepare_spec(
        spec, pipelined=pipelined, minimize_widths=False, fix_varbits=False
    )
    rng = random.Random(0x7AB1E3)
    # 20 bits (TestUnroll's bound) keeps the MPLS label stacks dense in
    # the samples; the default 48 reaches the wider rows' later states.
    for max_len in (20, 48):
        assert_specs_equivalent(spec, prepared, rng, max_len=max_len)


class TestJointlyCoveredRules:
    """-R2 drops a rule that earlier rules cover only together.  Left in
    place, such a dead back-edge reads as a multi-state cycle, which a
    pipelined target cannot unroll."""

    DEAD_BACK_EDGE = """
    header h { a : 2; }
    header g { b : 2; }
    parser P {
        state start {
            extract(h.a);
            transition select(h.a) { 0 : next; default : accept; }
        }
        state next {
            extract(g.b);
            transition select(g.b) {
                0x0 &&& 0x2 : accept;
                0x2 &&& 0x2 : reject;
                0x1 &&& 0x1 : start;
            }
        }
    }
    """

    def test_dead_back_edge_is_dropped(self, rng):
        spec = parse_spec(self.DEAD_BACK_EDGE)
        assert has_loops(spec)
        clean = remove_unreachable_entries(spec)
        assert [r.next_state for r in clean.states["next"].rules] == [
            ACCEPT, REJECT,
        ]
        assert not has_loops(clean)
        assert_specs_equivalent(spec, clean, rng, samples=150)

    def test_pipelined_prepare_sees_no_cycle(self):
        prepared, _plan = prepare_spec(
            parse_spec(self.DEAD_BACK_EDGE),
            pipelined=True, minimize_widths=True, fix_varbits=True,
        )
        assert not has_loops(prepared)

    @pytest.mark.slow
    def test_seeded_mutation_chain_compiles_alike_on_both_devices(self):
        # +R2 parks a dead back-edge behind a catch-all that +R3 then
        # splits in two, so no single earlier rule covers it.
        spec = random_spec(
            seed=116, num_states=5, max_field_width=6, max_rules=5
        )
        for mutation in ("+R1", "+R2", "+R3"):
            spec = MUTATIONS[mutation](spec)
        ipu = compile_spec(spec, ipu_profile(key_limit=8), CompileOptions())
        tofino = compile_spec(
            spec, tofino_profile(key_limit=8), CompileOptions()
        )
        assert ipu.ok and tofino.ok, (ipu.message, tofino.message)
        assert ipu.num_entries == tofino.num_entries


class TestCanonicalizeFixpoint:
    """ISSUE 10 satellite: canonicalize must drain each cleanup rewrite
    to its own fixed point — a chained mutation (here +R5 applied twice)
    leaves one merge site per application, and a single pass over the
    rewrite sequence only collapses one of them."""

    def test_chained_split_needs_more_than_one_pass(self):
        import random

        from repro.benchgen.suites import Benchmark
        from repro.ir.rewrites import (
            merge_states,
            merge_transition_key,
            remove_redundant_entries,
            remove_unreachable_entries,
            split_states,
        )
        from tests.conftest import assert_specs_equivalent

        base = Benchmark("Pure Extraction states", "pure_extraction").spec()
        canonical = canonicalize(base)
        mutated = split_states(split_states(canonical))
        assert len(mutated.states) == len(canonical.states) + 2

        one_pass = remove_unreachable_entries(mutated)
        one_pass = remove_redundant_entries(one_pass)
        one_pass = merge_transition_key(one_pass)
        one_pass = merge_states(one_pass)
        assert len(one_pass.states) > len(canonical.states), (
            "single greedy pass unexpectedly reached the fixed point; "
            "the regression scenario no longer applies"
        )

        recanon = canonicalize(mutated)
        assert len(recanon.states) == len(canonical.states)
        assert_specs_equivalent(base, recanon, random.Random(0x5EED))
