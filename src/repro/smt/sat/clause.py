"""Literal primitives for the CDCL SAT solver.

Literals use the common "packed" integer encoding: variable ``v`` (0-based)
yields positive literal ``2*v`` and negative literal ``2*v + 1``.  This keeps
watch lists and assignment tables as flat Python lists, which is the fastest
data layout available to a pure-Python solver.
"""

from __future__ import annotations


def lit(var: int, positive: bool = True) -> int:
    """Pack a 0-based variable index into a literal."""
    return 2 * var + (0 if positive else 1)


def lit_from_dimacs(dlit: int) -> int:
    """Convert a DIMACS literal (+/- 1-based) into packed form."""
    if dlit == 0:
        raise ValueError("DIMACS literal cannot be 0")
    var = abs(dlit) - 1
    return 2 * var + (0 if dlit > 0 else 1)


def to_dimacs(packed: int) -> int:
    """Convert a packed literal back to DIMACS (+/- 1-based)."""
    var = (packed >> 1) + 1
    return var if (packed & 1) == 0 else -var


def neg(packed: int) -> int:
    """Negate a packed literal."""
    return packed ^ 1
