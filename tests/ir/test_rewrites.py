"""R1-R5 rewrite rules: semantics preservation (the Figure 21 contract)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import random_spec
from repro.ir import parse_spec
from repro.ir.rewrites import (
    REWRITES,
    add_redundant_entries,
    add_unreachable_entries,
    apply_rewrites,
    merge_entries,
    merge_states,
    merge_transition_key,
    remove_redundant_entries,
    remove_unreachable_entries,
    split_entries,
    split_states,
    split_transition_key,
)
from tests.conftest import assert_specs_equivalent

RICH = """
header eth { dst : 4; etherType : 4; }
header ip  { proto : 4; }
header tcp { port : 4; }
parser Rich {
    state start {
        extract(eth);
        transition select(eth.etherType) {
            0x8 : parse_ip;
            0x6 &&& 0x7 : parse_ip;
            default : accept;
        }
    }
    state parse_ip {
        extract(ip);
        transition select(ip.proto) {
            6 : parse_tcp;
            default : accept;
        }
    }
    state parse_tcp { extract(tcp); transition accept; }
}
"""


@pytest.fixture
def rich_spec():
    return parse_spec(RICH)


class TestEachRewritePreservesSemantics:
    @pytest.mark.parametrize("name", sorted(REWRITES))
    def test_on_rich_spec(self, name, rich_spec, rng):
        mutated = REWRITES[name](rich_spec)
        assert_specs_equivalent(rich_spec, mutated, rng, samples=200)

    @pytest.mark.parametrize("name", sorted(REWRITES))
    def test_on_random_specs(self, name, rng):
        for seed in range(5):
            spec = random_spec(seed=seed, num_states=4)
            mutated = REWRITES[name](spec)
            assert_specs_equivalent(spec, mutated, rng, samples=80)


class TestStructuralEffects:
    def test_add_redundant_grows_rules(self, rich_spec):
        mutated = add_redundant_entries(rich_spec)
        assert sum(len(s.rules) for s in mutated.states.values()) == (
            sum(len(s.rules) for s in rich_spec.states.values()) + 1
        )

    def test_remove_redundant_undoes_duplicates(self, rich_spec):
        noisy = add_redundant_entries(rich_spec)
        clean = remove_redundant_entries(noisy)
        assert sum(len(s.rules) for s in clean.states.values()) == sum(
            len(s.rules) for s in rich_spec.states.values()
        )

    def test_add_unreachable_adds_dead_rule(self, rich_spec):
        mutated = add_unreachable_entries(rich_spec)
        total = sum(len(s.rules) for s in mutated.states.values())
        assert total > sum(len(s.rules) for s in rich_spec.states.values())

    def test_remove_unreachable_drops_orphans(self, rich_spec):
        from repro.ir.spec import ACCEPT, Rule, SpecState

        states = dict(rich_spec.states)
        states["dead"] = SpecState("dead", (), (), (Rule((), ACCEPT),))
        noisy = rich_spec.with_states(
            states, rich_spec.start, rich_spec.state_order + ["dead"]
        )
        clean = remove_unreachable_entries(noisy)
        assert "dead" not in clean.states

    def test_split_then_merge_entries_round_trip(self, rich_spec, rng):
        split = split_entries(rich_spec)
        merged = merge_entries(split)
        assert_specs_equivalent(rich_spec, merged, rng, samples=100)

    def test_split_states_adds_state(self, rich_spec):
        mutated = split_states(rich_spec)
        assert len(mutated.states) == len(rich_spec.states) + 1

    def test_merge_states_inverts_split(self, rich_spec, rng):
        split = split_states(rich_spec)
        merged = merge_states(split)
        assert len(merged.states) == len(rich_spec.states)
        assert_specs_equivalent(rich_spec, merged, rng, samples=100)

    def test_split_transition_key_makes_chain(self):
        spec = parse_spec(
            """
            header h { k : 4; a : 2; }
            parser P {
                state start {
                    extract(h.k);
                    transition select(h.k) {
                        0xA : n1; 0xB : n1; 0x3 : n2; default : accept;
                    }
                }
                state n1 { extract(h.a); transition accept; }
                state n2 { transition reject; }
            }
            """
        )
        split = split_transition_key(spec)
        assert len(split.states) > len(spec.states)
        # Child states extract nothing and key on a narrower slice.
        new = set(split.states) - set(spec.states)
        for name in new:
            assert split.states[name].extracts == ()
            assert split.states[name].key_width < 4

    def test_merge_transition_key_inverts_split(self, rng):
        spec = parse_spec(
            """
            header h { k : 4; a : 2; }
            parser P {
                state start {
                    extract(h.k);
                    transition select(h.k) {
                        0xA : n1; 0xB : n1; 0x3 : n2; default : accept;
                    }
                }
                state n1 { extract(h.a); transition accept; }
                state n2 { transition reject; }
            }
            """
        )
        split = split_transition_key(spec)
        merged = merge_transition_key(split)
        assert len(merged.states) == len(spec.states)
        assert_specs_equivalent(spec, merged, rng, samples=150)

    def test_inapplicable_rewrites_return_same_object(self):
        tiny = parse_spec("parser P { state start { transition accept; } }")
        assert split_entries(tiny) is tiny
        assert split_transition_key(tiny) is tiny
        assert merge_transition_key(tiny) is tiny

    def test_apply_rewrites_sequence(self, rich_spec, rng):
        mutated = apply_rewrites(rich_spec, ["+R1", "+R2", "-R1"])
        assert_specs_equivalent(rich_spec, mutated, rng, samples=120)

    def test_apply_rewrites_unknown_name(self, rich_spec):
        with pytest.raises(KeyError):
            apply_rewrites(rich_spec, ["+R9"])


@given(st.integers(min_value=0, max_value=200), st.sampled_from(sorted(REWRITES)))
@settings(max_examples=40, deadline=None)
def test_rewrites_preserve_semantics_property(seed, rewrite_name):
    spec = random_spec(seed=seed, num_states=3, max_field_width=4)
    mutated = REWRITES[rewrite_name](spec)
    rng = random.Random(seed)
    assert_specs_equivalent(spec, mutated, rng, samples=60, max_len=24)


@given(
    st.lists(
        st.tuples(st.integers(0, 31), st.integers(0, 31)),
        min_size=1, max_size=7,
    )
)
@settings(max_examples=80, deadline=None)
def test_remove_unreachable_keeps_exactly_the_rules_that_can_fire(cubes):
    """-R2 is exact: a rule survives iff some key value reaches it first,
    including rules that no single earlier rule covers."""
    arms = " ".join(f"{v & m:#x} &&& {m:#x} : accept;" for v, m in cubes)
    spec = parse_spec(
        "header h { k : 5; } parser P { state start { extract(h.k); "
        f"transition select(h.k) {{ {arms} }} }} }}"
    )
    rules = spec.states["start"].rules
    fires = {
        next(i for i, r in enumerate(rules) if r.matches([kv], [5]))
        for kv in range(32)
        if any(r.matches([kv], [5]) for r in rules)
    }
    kept = remove_unreachable_entries(spec).states["start"].rules
    assert kept == tuple(rules[i] for i in sorted(fires))

