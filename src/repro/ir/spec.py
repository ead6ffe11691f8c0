"""Semantic IR for parser specifications.

The IR flattens the surface program: headers dissolve into an ordered set of
qualified fields (``"ethernet.etherType"``), and each state carries its
extraction list, its transition key (a concatenation of field slices and
lookahead windows) and an ordered rule list.  Everything downstream —
the reference simulator, the rewrite mutators, the synthesis encoder and
the baseline compilers — works on this IR, never on surface syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..lang import ast as lang_ast
from ..lang.ast import ACCEPT, REJECT, ValueMask
from ..lang.errors import SemanticError

__all__ = [
    "ACCEPT",
    "REJECT",
    "Field",
    "FieldKey",
    "LookaheadKey",
    "KeyPart",
    "Rule",
    "SpecState",
    "ParserSpec",
    "ValueMask",
    "from_program",
    "parse_spec",
]


@dataclass(frozen=True)
class Field:
    """A flattened packet field.

    ``stack_depth > 1`` marks a header-stack slot (e.g. an MPLS label):
    each extraction appends the next instance, the output dictionary keys
    instances as ``name[i]``, and transition keys read the most recently
    extracted instance.  Extracting past ``stack_depth`` rejects the packet
    (stack overflow), which is what bounds parse loops.
    """

    name: str                     # qualified: "header.field"
    width: int                    # fixed width, or max width for varbit
    is_varbit: bool = False
    length_field: Optional[str] = None   # qualified field giving run-time size
    length_multiplier: int = 1
    stack_depth: int = 1

    @property
    def is_stack(self) -> bool:
        return self.stack_depth > 1

    def instance_key(self, index: int) -> str:
        """Output-dictionary key for stack instance ``index``."""
        if self.is_stack:
            return f"{self.name}[{index}]"
        return self.name

    @property
    def header(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def short_name(self) -> str:
        return self.name.split(".", 1)[1]


@dataclass(frozen=True)
class FieldKey:
    """Key part: bits [hi:lo] of an extracted field (bit 0 = LSB)."""

    field: str
    hi: int
    lo: int

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def __str__(self) -> str:
        return f"{self.field}[{self.hi}:{self.lo}]"


@dataclass(frozen=True)
class LookaheadKey:
    """Key part: ``width`` not-yet-extracted bits, ``offset`` past cursor."""

    offset: int
    width: int

    def __str__(self) -> str:
        return f"lookahead({self.width}, +{self.offset})"


KeyPart = Union[FieldKey, LookaheadKey]


@dataclass(frozen=True)
class Rule:
    """One transition rule: per-key-part patterns and a destination."""

    patterns: Tuple[ValueMask, ...]
    next_state: str               # state name, ACCEPT, or REJECT

    @property
    def is_default(self) -> bool:
        return all(p.wildcard for p in self.patterns) or not self.patterns

    def matches(self, key_values: Sequence[int], key_widths: Sequence[int]) -> bool:
        if not self.patterns:
            return True
        return all(
            p.matches(v, w)
            for p, v, w in zip(self.patterns, key_values, key_widths)
        )

    def combined_value_mask(self, key_widths: Sequence[int]) -> Tuple[int, int]:
        """Fold per-part patterns into one (value, mask) over the whole key."""
        value = 0
        mask = 0
        for pattern, width in zip(self.patterns, key_widths):
            part_mask = 0 if pattern.wildcard else (
                pattern.mask if pattern.mask is not None else (1 << width) - 1
            )
            part_mask &= (1 << width) - 1
            value = (value << width) | (pattern.value & part_mask)
            mask = (mask << width) | part_mask
        return value, mask


@dataclass(frozen=True)
class SpecState:
    """A parser state: ordered extraction list, key, ordered rules."""

    name: str
    extracts: Tuple[str, ...]             # qualified field names, in order
    key: Tuple[KeyPart, ...]              # empty => unconditional transition
    rules: Tuple[Rule, ...]

    @property
    def key_width(self) -> int:
        return sum(k.width for k in self.key)

    @property
    def is_unconditional(self) -> bool:
        return not self.key


@dataclass
class ParserSpec:
    """A complete parser specification."""

    name: str
    fields: Dict[str, Field]
    states: Dict[str, SpecState]
    start: str
    state_order: List[str] = dc_field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.state_order:
            self.state_order = list(self.states)

    # -- convenience -------------------------------------------------------
    def state(self, name: str) -> SpecState:
        return self.states[name]

    def field(self, name: str) -> Field:
        return self.fields[name]

    def ordered_states(self) -> List[SpecState]:
        return [self.states[n] for n in self.state_order]

    def replace_state(self, state: SpecState) -> "ParserSpec":
        """A copy of the spec with one state swapped out."""
        states = dict(self.states)
        states[state.name] = state
        return ParserSpec(
            self.name, dict(self.fields), states, self.start, list(self.state_order)
        )

    def with_states(self, states: Dict[str, SpecState], start: Optional[str] = None,
                    order: Optional[List[str]] = None) -> "ParserSpec":
        return ParserSpec(
            self.name,
            dict(self.fields),
            states,
            start if start is not None else self.start,
            list(order) if order is not None else [n for n in states],
        )

    def extraction_width(self, state_name: str) -> int:
        """Total fixed bits extracted by a state (varbits count max width)."""
        return sum(self.fields[f].width for f in self.states[state_name].extracts)

    # -- rendering -----------------------------------------------------------
    def to_source(self) -> str:
        """Render back into the P4-subset surface syntax."""
        lines: List[str] = []
        by_header: Dict[str, List[Field]] = {}
        for f in self.fields.values():
            by_header.setdefault(f.header, []).append(f)
        emitted = set()
        # Preserve extraction order per header where possible.
        for header, fields in by_header.items():
            lines.append(f"header {header} {{")
            for f in fields:
                if f.is_varbit:
                    lines.append(f"    {f.short_name} : varbit {f.width};")
                elif f.is_stack:
                    lines.append(
                        f"    {f.short_name} : {f.width} stack {f.stack_depth};"
                    )
                else:
                    lines.append(f"    {f.short_name} : {f.width};")
            lines.append("}")
            emitted.add(header)
        lines.append(f"parser {self.name} {{")
        for state in self.ordered_states():
            lines.append(f"    state {state.name} {{")
            for fname in state.extracts:
                f = self.fields[fname]
                if f.is_varbit:
                    lines.append(
                        f"        extract_var({f.name}, {f.length_field}, "
                        f"{f.length_multiplier});"
                    )
                else:
                    # Per-field extraction keeps round-trips exact even after
                    # state-splitting rewrites break header boundaries.
                    lines.append(f"        extract({f.name});")
            if state.is_unconditional:
                lines.append(
                    f"        transition {state.rules[0].next_state};"
                )
            else:
                keys = ", ".join(_render_key(k) for k in state.key)
                lines.append(f"        transition select({keys}) {{")
                for rule in state.rules:
                    pats = ", ".join(str(p) for p in rule.patterns)
                    if len(rule.patterns) > 1:
                        pats = f"({pats})"
                    lines.append(f"            {pats} : {rule.next_state};")
                lines.append("        }")
            lines.append("    }")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _render_key(key: KeyPart) -> str:
    if isinstance(key, LookaheadKey):
        if key.offset:
            return f"lookahead({key.width}, {key.offset})"
        return f"lookahead({key.width})"
    return str(key)


# ---------------------------------------------------------------------------
# Lowering from the surface AST
# ---------------------------------------------------------------------------

def from_program(program: lang_ast.Program, start: str = "start") -> ParserSpec:
    """Lower a parsed surface program into the semantic IR."""
    headers = {h.name: h for h in program.headers}
    fields: Dict[str, Field] = {}

    def field_name(header: str, fld: str) -> str:
        return f"{header}.{fld}"

    parser = program.parser
    assert parser is not None

    # Collect varbit length bindings from extract_var statements so the
    # Field record is self-describing.
    varbit_meta: Dict[str, Tuple[str, int]] = {}
    for state in parser.states:
        for stmt in state.statements:
            if isinstance(stmt, lang_ast.ExtractVar):
                qual = field_name(stmt.header, stmt.field)
                length = field_name(stmt.length_ref.header, stmt.length_ref.field)
                prior = varbit_meta.get(qual)
                if prior is not None and prior != (length, stmt.multiplier):
                    raise SemanticError(
                        f"varbit field {qual} has conflicting length bindings"
                    )
                varbit_meta[qual] = (length, stmt.multiplier)

    for header in program.headers:
        for fdecl in header.fields:
            qual = field_name(header.name, fdecl.name)
            if fdecl.is_varbit:
                binding = varbit_meta.get(qual, (None, 1))
                fields[qual] = Field(
                    qual,
                    fdecl.width,
                    is_varbit=True,
                    length_field=binding[0],
                    length_multiplier=binding[1],
                )
            else:
                fields[qual] = Field(qual, fdecl.width, stack_depth=fdecl.stack_depth)

    states: Dict[str, SpecState] = {}
    order: List[str] = []
    for state in parser.states:
        extracts: List[str] = []
        for stmt in state.statements:
            if isinstance(stmt, lang_ast.Extract):
                header = headers[stmt.header]
                if stmt.field is not None:
                    extracts.append(field_name(header.name, stmt.field))
                    continue
                for fdecl in header.fields:
                    if fdecl.is_varbit:
                        # varbit members are extracted only via extract_var
                        continue
                    extracts.append(field_name(header.name, fdecl.name))
            elif isinstance(stmt, lang_ast.ExtractVar):
                extracts.append(field_name(stmt.header, stmt.field))
        keys: List[KeyPart] = []
        for key in state.transition.keys:
            if isinstance(key, lang_ast.Lookahead):
                keys.append(LookaheadKey(key.offset, key.width))
            else:
                qual = field_name(key.header, key.field)
                fdecl = fields[qual]
                hi = key.hi if key.sliced else fdecl.width - 1
                lo = key.lo if key.sliced else 0
                keys.append(FieldKey(qual, hi, lo))
        rules = tuple(
            Rule(tuple(case.patterns), case.next_state)
            for case in state.transition.cases
        )
        states[state.name] = SpecState(state.name, tuple(extracts), tuple(keys), rules)
        order.append(state.name)

    spec = ParserSpec(parser.name, fields, states, start, order)
    _check_spec(spec)
    return spec


def parse_spec(source: str, start: str = "start") -> ParserSpec:
    """Convenience: surface source text straight to IR."""
    from ..lang import parse_program

    return from_program(parse_program(source), start=start)


def _check_spec(spec: ParserSpec) -> None:
    if spec.start not in spec.states:
        raise SemanticError(f"start state {spec.start!r} missing")
    for state in spec.states.values():
        for rule in state.rules:
            if rule.next_state not in (ACCEPT, REJECT) and (
                rule.next_state not in spec.states
            ):
                raise SemanticError(
                    f"state {state.name} targets unknown state {rule.next_state}"
                )
        for part in state.key:
            if isinstance(part, FieldKey):
                if part.field not in spec.fields:
                    raise SemanticError(
                        f"state {state.name} keys on unknown field {part.field}"
                    )
                width = spec.fields[part.field].width
                if not (0 <= part.lo <= part.hi < width):
                    raise SemanticError(
                        f"key slice {part} out of range (width {width})"
                    )
