"""Static-analysis tests (the inputs to the §6 optimizations)."""

from __future__ import annotations

import pytest

from repro.ir import parse_spec
from repro.ir.analysis import (
    check_extract_before_use,
    has_loops,
    irrelevant_fields,
    key_bits_by_field,
    looping_states,
    max_parse_depth,
    reachable_states,
    unreachable_states,
)

SPEC = """
header eth { dst : 8; etherType : 4; }
header ip  { ver : 2; proto : 4; }
parser P {
    state start {
        extract(eth);
        transition select(eth.etherType[3:1]) {
            0b100 : parse_ip;
            default : accept;
        }
    }
    state parse_ip {
        extract(ip);
        transition select(ip.proto, lookahead(3)) {
            (6, 1) : accept;
            default : reject;
        }
    }
    state orphan { transition accept; }
}
"""


@pytest.fixture
def spec():
    return parse_spec(SPEC)


class TestReachability:
    def test_reachable(self, spec):
        assert reachable_states(spec) == {"start", "parse_ip"}

    def test_unreachable(self, spec):
        assert unreachable_states(spec) == {"orphan"}


class TestLoops:
    def test_acyclic(self, spec):
        assert not has_loops(spec)
        assert looping_states(spec) == set()

    def test_self_loop_detected(self):
        loop = parse_spec(
            """
            header m { l : 2 stack 2; b : 1 stack 2; }
            parser P {
                state start {
                    extract(m);
                    transition select(m.b) { 1 : accept; default : start; }
                }
            }
            """
        )
        assert has_loops(loop)
        assert looping_states(loop) == {"start"}

    def test_unreachable_cycle_ignored(self):
        spec = parse_spec(
            """
            parser P {
                state start { transition accept; }
                state a { transition b; }
                state b { transition a; }
            }
            """
        )
        assert not has_loops(spec)


class TestDepth:
    def test_acyclic_depth(self, spec):
        assert max_parse_depth(spec) == 2

    def test_loop_depth_bounded(self):
        loop = parse_spec(
            """
            header m { l : 2 stack 4; }
            parser P {
                state start { extract(m); transition start; }
            }
            """
        )
        assert max_parse_depth(loop, loop_unroll=4) >= 4


class TestKeyUsage:
    def test_key_bits_by_field(self, spec):
        usage = key_bits_by_field(spec)
        assert usage["eth.etherType"] == {1, 2, 3}
        assert usage["ip.proto"] == {0, 1, 2, 3}
        assert usage["eth.dst"] == set()

    def test_irrelevant_fields(self, spec):
        irr = irrelevant_fields(spec)
        assert "eth.dst" in irr and "ip.ver" in irr
        assert "eth.etherType" not in irr

    def test_varbit_length_source_not_irrelevant(self):
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
        assert "h.n" not in irrelevant_fields(spec)


class TestLints:
    def test_extract_before_use_clean(self, spec):
        assert check_extract_before_use(spec) == []

    def test_extract_before_use_violation(self):
        bad = parse_spec(
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
        problems = check_extract_before_use(bad)
        assert problems and "h.b" in problems[0]
