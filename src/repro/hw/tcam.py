"""Ternary content-addressable memory (TCAM) primitives.

A TCAM entry stores a (value, mask) pair of the key width; a search key
matches when ``key & mask == value & mask``.  Entries are priority ordered:
the first matching entry wins, exactly like the hardware's physical row
order.  These primitives are shared by the implementation simulator, the
synthesized-output data structures and the baseline compilers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class TernaryPattern:
    """A (value, mask) pair over ``width`` bits."""

    value: int
    mask: int
    width: int

    def __post_init__(self) -> None:
        limit = (1 << self.width) - 1
        if self.value & ~limit or self.mask & ~limit:
            raise ValueError(
                f"pattern {self.value:#x}/{self.mask:#x} exceeds width {self.width}"
            )

    def matches(self, key: int) -> bool:
        return (key & self.mask) == (self.value & self.mask)

    @property
    def is_catch_all(self) -> bool:
        return self.mask == 0

    @property
    def exact_bits(self) -> int:
        return bin(self.mask).count("1")

    def covers(self, other: "TernaryPattern") -> bool:
        """True when every key matching ``other`` also matches ``self``."""
        if self.width != other.width:
            return False
        return (self.mask & other.mask) == self.mask and (
            (self.value & self.mask) == (other.value & self.mask)
        )

    def overlaps(self, other: "TernaryPattern") -> bool:
        """True when some key matches both patterns."""
        common = self.mask & other.mask
        return (self.value & common) == (other.value & common)

    def to_wildcard_string(self) -> str:
        """Render as a '10*1' style ternary string, MSB first."""
        chars = []
        for bit in range(self.width - 1, -1, -1):
            if (self.mask >> bit) & 1:
                chars.append("1" if (self.value >> bit) & 1 else "0")
            else:
                chars.append("*")
        return "".join(chars) if chars else "*"

    @classmethod
    def from_wildcard_string(cls, text: str) -> "TernaryPattern":
        value = 0
        mask = 0
        for ch in text:
            value <<= 1
            mask <<= 1
            if ch == "1":
                value |= 1
                mask |= 1
            elif ch == "0":
                mask |= 1
            elif ch != "*":
                raise ValueError(f"bad ternary character {ch!r} in {text!r}")
        return cls(value, mask, len(text))

    def __str__(self) -> str:
        return self.to_wildcard_string()


def minimal_cover_exact(
    values: Iterable[int], width: int, max_patterns: Optional[int] = None
) -> List[TernaryPattern]:
    """Exact minimal set of ternary patterns covering exactly ``values``
    (Quine-McCluskey + unate covering).  Exponential in the worst case; used
    by tests and by ParserHawk's Opt4 candidate generation for small widths.
    """
    values = sorted(set(values))
    if not values:
        return []
    universe = set(values)
    # Generate all prime implicants by merging cubes.
    level = {(v, (1 << width) - 1) for v in values}
    all_cubes = set(level)
    while level:
        nxt = set()
        merged_away = set()
        level_list = sorted(level)
        for i, (v1, m1) in enumerate(level_list):
            for v2, m2 in level_list[i + 1 :]:
                if m1 != m2:
                    continue
                diff = (v1 ^ v2) & m1
                if diff and (diff & (diff - 1)) == 0:
                    cube = ((v1 & ~diff), m1 & ~diff)
                    # Only keep cubes entirely inside the ON-set.
                    if _cube_subset_of(cube, universe, width):
                        nxt.add(cube)
                        merged_away.add((v1, m1))
                        merged_away.add((v2, m2))
        all_cubes |= nxt
        level = nxt
    primes = [
        TernaryPattern(v, m, width)
        for v, m in all_cubes
        if _cube_subset_of((v, m), universe, width)
    ]
    # Unate covering by greedy + exactness check (small instances only).
    remaining = set(values)
    chosen: List[TernaryPattern] = []
    while remaining:
        best = max(
            primes,
            key=lambda p: sum(1 for v in remaining if p.matches(v)),
        )
        chosen.append(best)
        remaining = {v for v in remaining if not best.matches(v)}
        if max_patterns is not None and len(chosen) > max_patterns:
            break
    return chosen


def _cube_subset_of(cube: Tuple[int, int], universe: set, width: int) -> bool:
    value, mask = cube
    free = [b for b in range(width) if not (mask >> b) & 1]
    if len(free) > 20:
        return False
    for combo in range(1 << len(free)):
        candidate = value
        for i, bit in enumerate(free):
            if (combo >> i) & 1:
                candidate |= 1 << bit
        if candidate not in universe:
            return False
    return True
