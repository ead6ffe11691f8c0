"""Abstract syntax tree for the P4-subset parser language.

The language (see :mod:`repro.lang.parser` for the grammar) describes:

* ``header`` blocks declaring a header instance and its fields, each a
  fixed bit-width or ``varbit N`` (max width, actual width decided at
  run time as in P4's varbit);
* a single ``parser`` block of named states.  Each state extracts zero or
  more headers and ends in a ``transition``: either unconditional or a
  ``select`` over one or more keys (header fields, field slices, or
  ``lookahead(n)`` windows) with value / value``&&&``mask / ``default`` arms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from .errors import SourceLocation

ACCEPT = "accept"
REJECT = "reject"


@dataclass(frozen=True)
class FieldDecl:
    """One field inside a header: fixed width, or varbit with a max width,
    or a header-stack slot (``label : 20 stack 4;``) extracted repeatedly."""

    name: str
    width: int
    is_varbit: bool = False
    stack_depth: int = 1
    location: Optional[SourceLocation] = None

    @property
    def qualified(self) -> str:
        raise AttributeError("qualified name needs the owning header")


@dataclass(frozen=True)
class HeaderDecl:
    name: str
    fields: Tuple[FieldDecl, ...]
    location: Optional[SourceLocation] = None

    def field(self, name: str) -> FieldDecl:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"header {self.name} has no field {name}")


@dataclass(frozen=True)
class FieldRef:
    """A reference ``header.field`` with an optional bit slice [hi:lo].

    Slice indices follow the P4/z3 convention: bit 0 is the least
    significant bit of the field.
    """

    header: str
    field: str
    hi: Optional[int] = None
    lo: Optional[int] = None
    location: Optional[SourceLocation] = None

    @property
    def sliced(self) -> bool:
        return self.hi is not None

    def __str__(self) -> str:
        base = f"{self.header}.{self.field}"
        if self.sliced:
            return f"{base}[{self.hi}:{self.lo}]"
        return base


@dataclass(frozen=True)
class Lookahead:
    """``lookahead(width)`` — the next ``width`` un-extracted bits,
    starting ``offset`` bits past the current cursor."""

    width: int
    offset: int = 0
    location: Optional[SourceLocation] = None

    def __str__(self) -> str:
        if self.offset:
            return f"lookahead({self.width}, offset={self.offset})"
        return f"lookahead({self.width})"


SelectKey = Union[FieldRef, Lookahead]


@dataclass(frozen=True)
class ValueMask:
    """A select-case literal: value, or value &&& mask, or ``_`` wildcard.

    A wildcard is represented as mask == 0 with ``wildcard=True`` so that
    semantics (match-anything) are explicit rather than relying on the
    mask encoding.
    """

    value: int
    mask: Optional[int] = None  # None => exact match on the full key width
    wildcard: bool = False

    def matches(self, key_value: int, key_width: int) -> bool:
        if self.wildcard:
            return True
        mask = self.mask if self.mask is not None else (1 << key_width) - 1
        return (key_value & mask) == (self.value & mask)

    def __str__(self) -> str:
        if self.wildcard:
            return "_"
        if self.mask is not None:
            return f"{self.value:#x} &&& {self.mask:#x}"
        return f"{self.value:#x}"


@dataclass(frozen=True)
class SelectCase:
    """One arm of a select: a tuple of value-masks (one per key) plus the
    destination state name (or ``accept``/``reject``)."""

    patterns: Tuple[ValueMask, ...]
    next_state: str
    is_default: bool = False
    location: Optional[SourceLocation] = None


@dataclass(frozen=True)
class Extract:
    """``extract(header)`` — consume all the header's fixed fields — or
    ``extract(header.field)`` — consume a single field (used by the IR's
    source renderer so state-splitting rewrites round-trip exactly)."""

    header: str
    field: Optional[str] = None
    location: Optional[SourceLocation] = None


@dataclass(frozen=True)
class ExtractVar:
    """``extract_var(header.field, length_ref, multiplier)`` — extract a
    varbit field whose run-time size is ``value(length_ref) * multiplier``
    bits (the IPv4-options / Geneve-options pattern)."""

    header: str
    field: str
    length_ref: FieldRef
    multiplier: int
    location: Optional[SourceLocation] = None


Statement = Union[Extract, ExtractVar]


@dataclass(frozen=True)
class Transition:
    """State epilogue.  ``keys`` empty means an unconditional transition
    whose destination is the single case's next_state."""

    keys: Tuple[SelectKey, ...]
    cases: Tuple[SelectCase, ...]
    location: Optional[SourceLocation] = None

    @property
    def is_unconditional(self) -> bool:
        return not self.keys


@dataclass(frozen=True)
class StateDecl:
    name: str
    statements: Tuple[Statement, ...]
    transition: Transition
    location: Optional[SourceLocation] = None


@dataclass(frozen=True)
class ParserDecl:
    name: str
    states: Tuple[StateDecl, ...]
    start: str = "start"
    location: Optional[SourceLocation] = None

    def state(self, name: str) -> StateDecl:
        for s in self.states:
            if s.name == name:
                return s
        raise KeyError(f"parser {self.name} has no state {name}")


@dataclass
class Program:
    """A complete parsed source file: headers plus one parser."""

    headers: List[HeaderDecl] = field(default_factory=list)
    parser: Optional[ParserDecl] = None

    def header(self, name: str) -> HeaderDecl:
        for h in self.headers:
            if h.name == name:
                return h
        raise KeyError(f"no header named {name}")
