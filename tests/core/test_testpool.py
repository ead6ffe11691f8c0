"""TestPool: dedup, prefix semantics and memoized expectations."""

from __future__ import annotations

import pytest

# Aliased so pytest doesn't try to collect the production classes
# (their names match its Test* pattern).
from repro.core.testpool import ORIGIN_CEX, ORIGIN_SEED
from repro.core.testpool import TestPool as Pool
from repro.ir import Bits, parse_spec, simulate_spec


@pytest.fixture
def spec():
    return parse_spec(
        """
        header eth  { dst : 4; etherType : 4; }
        header ipv4 { proto : 4; }
        parser P {
            state start {
                extract(eth);
                transition select(eth.etherType) {
                    0x8 : parse_ipv4;
                    default : accept;
                }
            }
            state parse_ipv4 { extract(ipv4); transition accept; }
        }
        """
    )


class TestPoolBasics:
    def test_add_and_dedup(self, spec):
        pool = Pool(spec)
        assert pool.add(Bits(0x08, 8), ORIGIN_CEX) is True
        assert pool.add(Bits(0x08, 8), ORIGIN_SEED) is False  # same input
        assert pool.add(Bits(0x08, 4), ORIGIN_CEX) is True    # length matters
        assert len(pool) == 2
        assert Bits(0x08, 8) in pool
        assert Bits(0x09, 8) not in pool
        # The duplicate left the first entry's origin as it was.
        assert [e.origin for e in pool.prefix()] == [ORIGIN_CEX, ORIGIN_CEX]

    def test_origin_stats(self, spec):
        pool = Pool(spec)
        added = [
            pool.add(Bits(1, 4), ORIGIN_SEED),
            pool.add(Bits(2, 4), ORIGIN_CEX),
            pool.add(Bits(3, 4)),
        ]
        assert added == [True, True, True]
        assert [e.origin for e in pool.prefix()] == [
            ORIGIN_SEED, ORIGIN_CEX, ORIGIN_CEX,
        ]

    def test_prefix_preserves_insertion_order(self, spec):
        pool = Pool(spec)
        inputs = [Bits(5, 4), Bits(0, 8), Bits(0xFF, 8)]
        for bits in inputs:
            pool.add(bits)
        assert [e.bits for e in pool.prefix()] == inputs
        assert [e.bits for e in pool.prefix(2)] == inputs[:2]
        assert pool.prefix(0) == []

    def test_has_seeds_respects_prefix(self, spec):
        pool = Pool(spec)
        pool.add(Bits(1, 4), ORIGIN_CEX)
        pool.add(Bits(2, 4), ORIGIN_SEED)
        assert pool.has_seeds()
        assert not pool.has_seeds(1)   # seed sits past the prefix


class TestPoolExpectations:
    def test_tests_match_the_simulator(self, spec):
        pool = Pool(spec)
        pool.add(Bits(0x8F, 8))
        pool.add(Bits(0x01, 8))
        for bits, expected, _origin in pool.tests(max_steps=16):
            assert simulate_spec(spec, bits, 16).same_output(expected)

    def test_expectation_memoized(self, spec):
        pool = Pool(spec)
        pool.add(Bits(0x8F, 8))
        (entry,) = pool.prefix()
        first = pool.expected(entry, 16)
        assert first is not None
        # Second lookup at an adequate bound returns the cached result.
        assert pool.expected(entry, 16) is first
        assert pool.expected(entry, 32) is first

    def test_overrun_entries_skipped_but_kept(self, spec):
        pool = Pool(spec)
        pool.add(Bits(0x08F, 12))  # needs two steps (start, parse_ipv4)
        (entry,) = pool.prefix()
        assert pool.expected(entry, 1) is None
        assert pool.tests(max_steps=1) == []
        assert len(pool) == 1      # a larger bound may still use it
        assert pool.expected(entry, 16) is not None
        assert len(pool.tests(max_steps=16)) == 1

    def test_tests_limited_to_prefix(self, spec):
        pool = Pool(spec)
        pool.add(Bits(0x01, 8))
        pool.add(Bits(0x02, 8))
        replayed = pool.tests(max_steps=16, size=1)
        assert [bits for bits, _e, _o in replayed] == [Bits(0x01, 8)]
