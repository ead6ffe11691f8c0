"""TCAM primitive tests: ternary matching, covers/overlap algebra and
the exact minimal-cover generator."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import TernaryPattern, minimal_cover_exact


class TestTernaryPattern:
    def test_exact_match(self):
        p = TernaryPattern(0b1010, 0b1111, 4)
        assert p.matches(0b1010)
        assert not p.matches(0b1011)

    def test_masked_match(self):
        p = TernaryPattern(0b1000, 0b1000, 4)
        assert p.matches(0b1111) and p.matches(0b1000)
        assert not p.matches(0b0111)

    def test_catch_all(self):
        p = TernaryPattern(0, 0, 4)
        assert p.is_catch_all
        assert all(p.matches(v) for v in range(16))

    def test_width_zero(self):
        p = TernaryPattern(0, 0, 0)
        assert p.matches(0)

    def test_value_exceeding_width_rejected(self):
        with pytest.raises(ValueError):
            TernaryPattern(0b10000, 0, 4)

    def test_exact_bits(self):
        assert TernaryPattern(0b10, 0b11, 4).exact_bits == 2

    def test_wildcard_string_round_trip(self):
        for text in ("10*1", "****", "0000", "*"):
            p = TernaryPattern.from_wildcard_string(text)
            assert p.to_wildcard_string() == text

    def test_wildcard_string_bad_char(self):
        with pytest.raises(ValueError):
            TernaryPattern.from_wildcard_string("10x")

    def test_covers(self):
        broad = TernaryPattern.from_wildcard_string("1***")
        narrow = TernaryPattern.from_wildcard_string("10*1")
        assert broad.covers(narrow)
        assert not narrow.covers(broad)

    def test_covers_requires_same_width(self):
        assert not TernaryPattern(0, 0, 4).covers(TernaryPattern(0, 0, 3))

    def test_overlap(self):
        a = TernaryPattern.from_wildcard_string("1**0")
        b = TernaryPattern.from_wildcard_string("*11*")
        assert a.overlaps(b)
        c = TernaryPattern.from_wildcard_string("0***")
        assert not a.overlaps(c)


@given(
    st.integers(0, 15), st.integers(0, 15), st.integers(0, 15), st.integers(0, 15)
)
@settings(max_examples=60, deadline=None)
def test_covers_semantics_property(v1, m1, v2, m2):
    a = TernaryPattern(v1 & m1, m1, 4)
    b = TernaryPattern(v2 & m2, m2, 4)
    semantic_cover = all(
        a.matches(key) for key in range(16) if b.matches(key)
    )
    assert a.covers(b) == semantic_cover


@given(
    st.integers(0, 15), st.integers(0, 15), st.integers(0, 15), st.integers(0, 15)
)
@settings(max_examples=60, deadline=None)
def test_overlap_semantics_property(v1, m1, v2, m2):
    a = TernaryPattern(v1 & m1, m1, 4)
    b = TernaryPattern(v2 & m2, m2, 4)
    semantic_overlap = any(
        a.matches(key) and b.matches(key) for key in range(16)
    )
    assert a.overlaps(b) == semantic_overlap


class TestMinimalCover:
    def test_motivating_example_cube(self):
        # {15, 11, 7, 3} -> single cube **11 (Figure 4's good merge).
        cover = minimal_cover_exact([15, 11, 7, 3], 4)
        assert len(cover) == 1
        assert cover[0].to_wildcard_string() == "**11"

    def test_full_space(self):
        cover = minimal_cover_exact(list(range(16)), 4)
        assert len(cover) == 1 and cover[0].is_catch_all

    def test_single_value(self):
        cover = minimal_cover_exact([9], 4)
        assert len(cover) == 1 and cover[0].to_wildcard_string() == "1001"

    def test_empty(self):
        assert minimal_cover_exact([], 4) == []

    @given(st.sets(st.integers(0, 15), min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_cover_is_exact_property(self, values):
        cover = minimal_cover_exact(sorted(values), 4)
        covered = {
            key for key in range(16) if any(p.matches(key) for p in cover)
        }
        assert covered == values
