"""Reference simulator for parser specifications: ``Spec(I) -> OD``.

This is the executable ground truth the CEGIS loop verifies against (the
paper simulates the parser "using Python execution" to produce test-case
outputs, §5.2; this module is that execution).

Semantics choices (documented here because every downstream component —
synthesis encoder, implementation simulator, baselines — must agree):

* Input runs out mid-extraction or mid-lookahead  ->  ``reject``
  (P4's PacketTooShort behaviour).
* A select with no matching rule                  ->  ``reject``
  (P4-16 semantics: missing default means error.NoMatch / reject).
* A select key that references a field the path never extracted raises
  :class:`SimulationError` — that is a specification bug, not a packet
  outcome, and the static analysis in :mod:`repro.ir.analysis` flags it.
* Loops are bounded by ``max_steps``; exceeding it yields ``overrun``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from .bits import Bits
from .spec import ACCEPT, REJECT, FieldKey, LookaheadKey, ParserSpec

OUTCOME_ACCEPT = "accept"
OUTCOME_REJECT = "reject"
OUTCOME_OVERRUN = "overrun"


class SimulationError(Exception):
    """The specification itself misbehaved (not a packet-dependent event)."""


@dataclass
class ParseResult:
    """Outcome of parsing one input bitstream."""

    outcome: str
    od: Dict[str, int] = dc_field(default_factory=dict)
    od_widths: Dict[str, int] = dc_field(default_factory=dict)
    consumed: int = 0
    path: List[str] = dc_field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.outcome == OUTCOME_ACCEPT

    def same_output(self, other: "ParseResult") -> bool:
        """Dictionary equality as defined in §4: same outcome, same fields,
        same values (varbit fields must also agree on actual width)."""
        return (
            self.outcome == other.outcome
            and self.od == other.od
            and self.od_widths == other.od_widths
        )

    def describe_difference(self, other: "ParseResult") -> str:
        if self.outcome != other.outcome:
            return f"outcome {self.outcome} vs {other.outcome}"
        for key in sorted(set(self.od) | set(other.od)):
            mine = self.od.get(key)
            theirs = other.od.get(key)
            if mine != theirs:
                return f"field {key}: {mine} vs {theirs}"
            if self.od_widths.get(key) != other.od_widths.get(key):
                return (
                    f"field {key} width: {self.od_widths.get(key)} "
                    f"vs {other.od_widths.get(key)}"
                )
        return "no difference"


def equivalent_behavior(a: ParseResult, b: ParseResult) -> bool:
    """The §4 correctness relation used by CEGIS: outcomes must agree, and
    accepted packets must yield identical output dictionaries.  Rejected
    packets are dropped by the device, so their partial dictionaries are
    not observable and are not compared."""
    if a.outcome != b.outcome:
        return False
    if a.outcome != OUTCOME_ACCEPT:
        return True
    return a.od == b.od and a.od_widths == b.od_widths


@dataclass
class TraceStep:
    """One state execution in a traced run (used by the directed test
    generator to aim mutations at transition-key bit positions)."""

    state: str
    cursor_at_entry: int
    key_positions: List[int]           # absolute input bit per key bit, MSB first
    key_width: int
    rule_index: Optional[int]          # which rule fired (None = no match)
    key_value: int = 0                 # concatenated key value observed


def simulate_spec(spec: ParserSpec, bits: Bits, max_steps: int = 64) -> ParseResult:
    """Run the specification FSM on an input bitstream."""
    return _walk(spec, bits, max_steps, None)


def trace_spec(
    spec: ParserSpec, bits: Bits, max_steps: int = 64
) -> Tuple[ParseResult, List[TraceStep]]:
    """Like :func:`simulate_spec` but also records, per executed state, the
    absolute input positions feeding its transition key."""
    steps: List[TraceStep] = []
    return _walk(spec, bits, max_steps, steps), steps


def _walk(
    spec: ParserSpec,
    bits: Bits,
    max_steps: int,
    steps: Optional[List[TraceStep]],
) -> ParseResult:
    """The spec FSM walk; appends one :class:`TraceStep` per executed
    state to ``steps`` unless it is None (then no positions are kept)."""
    od: Dict[str, int] = {}
    od_widths: Dict[str, int] = {}
    od_start: Dict[str, int] = {}      # input position of each extraction
    path: List[str] = []
    stack_counts: Dict[str, int] = {}
    cursor = 0
    current = spec.start
    for _ in range(max_steps):
        state = spec.states[current]
        path.append(current)
        entry_cursor = cursor
        # 1. Extraction.
        for fname in state.extracts:
            fdef = spec.fields[fname]
            if fdef.is_varbit:
                if fdef.length_field is None:
                    raise SimulationError(
                        f"varbit field {fname} has no length binding"
                    )
                if fdef.length_field not in od:
                    raise SimulationError(
                        f"varbit field {fname} length source "
                        f"{fdef.length_field} not yet extracted"
                    )
                width = od[fdef.length_field] * fdef.length_multiplier
                if width > fdef.width:
                    return ParseResult(
                        OUTCOME_REJECT, od, od_widths, cursor, path
                    )
            else:
                width = fdef.width
            if cursor + width > len(bits):
                return ParseResult(OUTCOME_REJECT, od, od_widths, cursor, path)
            if fdef.is_stack:
                index = stack_counts.get(fname, 0)
                if index >= fdef.stack_depth:
                    # Stack overflow rejects the packet; this bounds loops.
                    return ParseResult(OUTCOME_REJECT, od, od_widths, cursor, path)
                stack_counts[fname] = index + 1
                od_key = fdef.instance_key(index)
            else:
                od_key = fname
            od[od_key] = bits.slice(cursor, width).uint() if width else 0
            od_widths[od_key] = width
            if steps is not None:
                od_start[od_key] = cursor
            cursor += width
        # 2. Transition.
        if state.is_unconditional:
            if steps is not None:
                steps.append(TraceStep(current, entry_cursor, [], 0, 0, 0))
            dest = state.rules[0].next_state
        else:
            positions: List[int] = []
            key_values: List[int] = []
            key_widths: List[int] = []
            for part in state.key:
                if isinstance(part, FieldKey):
                    fdef = spec.fields[part.field]
                    if fdef.is_stack:
                        count = stack_counts.get(part.field, 0)
                        if count == 0:
                            raise SimulationError(
                                f"state {state.name} keys on empty stack "
                                f"{part.field}"
                            )
                        od_key = fdef.instance_key(count - 1)
                    else:
                        od_key = part.field
                    if od_key not in od:
                        raise SimulationError(
                            f"state {state.name} keys on unextracted field "
                            f"{part.field}"
                        )
                    if steps is not None:
                        last = od_start[od_key] + od_widths[od_key] - 1
                        positions.extend(
                            last - b for b in range(part.hi, part.lo - 1, -1)
                        )
                    value = (od[od_key] >> part.lo) & (
                        (1 << part.width) - 1
                    )
                    key_values.append(value)
                    key_widths.append(part.width)
                else:
                    assert isinstance(part, LookaheadKey)
                    start = cursor + part.offset
                    if start + part.width > len(bits):
                        return ParseResult(
                            OUTCOME_REJECT, od, od_widths, cursor, path
                        )
                    if steps is not None:
                        positions.extend(range(start, start + part.width))
                    key_values.append(bits.slice(start, part.width).uint())
                    key_widths.append(part.width)
            fired = dest = None
            for i, rule in enumerate(state.rules):
                if rule.matches(key_values, key_widths):
                    fired, dest = i, rule.next_state
                    break
            if steps is not None:
                combined = 0
                for v, w in zip(key_values, key_widths):
                    combined = (combined << w) | v
                steps.append(
                    TraceStep(
                        current, entry_cursor, positions, sum(key_widths),
                        fired, combined,
                    )
                )
            if dest is None:
                return ParseResult(OUTCOME_REJECT, od, od_widths, cursor, path)
        if dest == ACCEPT:
            return ParseResult(OUTCOME_ACCEPT, od, od_widths, cursor, path)
        if dest == REJECT:
            return ParseResult(OUTCOME_REJECT, od, od_widths, cursor, path)
        current = dest
    return ParseResult(OUTCOME_OVERRUN, od, od_widths, cursor, path)


def spec_input_bound(spec: ParserSpec, max_steps: int = 64) -> int:
    """An upper bound on how many input bits any execution can touch
    (extractions plus lookahead reach), used to size verification inputs."""
    per_state: Dict[str, Tuple[int, int]] = {}
    for state in spec.states.values():
        extract = sum(spec.fields[f].width for f in state.extracts)
        reach = 0
        for part in state.key:
            if isinstance(part, LookaheadKey):
                reach = max(reach, part.offset + part.width)
        per_state[state.name] = (extract, reach)
    # Worst case: the deepest chain of states, loops bounded by max_steps.
    worst_extract = max((e for e, _ in per_state.values()), default=0)
    worst_reach = max((r for _, r in per_state.values()), default=0)
    depth = min(max_steps, max(len(spec.states) * 4, 8))
    return depth * worst_extract + worst_reach
