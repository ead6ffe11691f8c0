"""Pre-synthesis specification normalization.

The code analyzer half of ParserHawk's front-end (Figure 8).  Everything
here is a semantics-preserving specification transform:

* canonicalization — drop unreachable states/rules and rules subsumed by
  earlier ones, merge unconditional chains (-R1/-R2/-R5 as cleanups), and
  collapse key-split chains back into wide keys (-R4) so the synthesizer
  sees one canonical spec regardless of the input's written style.  This is
  the concrete mechanism behind the paper's claim that ParserHawk depends
  only on semantics, never on how the program was written (§3.3).
* loop unrolling — for pipelined (forward-only) targets, self-loop states
  bounded by a header stack are replicated ``depth`` times (§7's
  "+unroll loop"; the commercial IPU compiler cannot do this).
* Opt2 bit-width minimization — fields irrelevant to control flow shrink
  to 1 bit during synthesis (Figure 14), restored afterwards.
* Opt6 fixed-size varbits — varbit fields become max-width fixed fields
  during synthesis (Figure 18), restored afterwards.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from ..ir.analysis import irrelevant_fields, looping_states
from ..ir.rewrites import (
    merge_states,
    merge_transition_key,
    remove_redundant_entries,
    remove_unreachable_entries,
)
from ..ir.spec import REJECT, Field, LookaheadKey, ParserSpec, Rule, SpecState


class CompileError(Exception):
    """The specification cannot be compiled for the requested target."""


def canonicalize(spec: ParserSpec) -> ParserSpec:
    """Apply the cleanup rewrites to a fixpoint.

    ``merge_transition_key`` and ``merge_states`` rewrite one site per
    call, so each rewrite is drained to its own fixpoint inside the
    round — otherwise a chained mutation (e.g. +R5 applied twice) needs
    one outer round per site and an early ``_same_shape`` hit between
    rounds can freeze the spec short of canonical.
    """
    current = spec
    for _ in range(10 * max(1, len(spec.states))):
        step = _drain(remove_unreachable_entries, current)
        step = _drain(remove_redundant_entries, step)
        step = _drain(merge_transition_key, step)
        step = _drain(merge_states, step)
        if step is current or _same_shape(step, current):
            return step
        current = step
    return current


def _drain(rewrite, spec: ParserSpec) -> ParserSpec:
    """Run a single-site rewrite until it stops changing the spec."""
    current = spec
    for _ in range(10 * max(1, len(spec.states))):
        step = rewrite(current)
        if step is current or _same_shape(step, current):
            return step
        current = step
    return current


def _same_shape(a: ParserSpec, b: ParserSpec) -> bool:
    if set(a.states) != set(b.states):
        return False
    for name in a.states:
        sa, sb = a.states[name], b.states[name]
        if (sa.extracts, sa.key, sa.rules) != (sb.extracts, sb.key, sb.rules):
            return False
    return True


# ---------------------------------------------------------------------------
# Loop unrolling (pipelined targets)
# ---------------------------------------------------------------------------

def unroll_self_loops(spec: ParserSpec) -> ParserSpec:
    """Replicate each self-looping state ``depth`` times for forward-only
    architectures.  ``depth`` comes from the stack bound of the fields the
    state extracts; the final copy's back-edge leads to an overflow state
    whose extraction necessarily rejects (preserving the stack-overflow
    semantics of the loop-capable original).
    """
    loopers = looping_states(spec)
    if not loopers:
        return spec
    states = dict(spec.states)
    order = list(spec.state_order)
    for name in sorted(loopers):
        state = spec.states[name]
        back_edges = [r for r in state.rules if r.next_state == name]
        if not back_edges:
            raise CompileError(
                f"state {name} is part of a multi-state cycle; only "
                "self-loops can be unrolled for pipelined targets"
            )
        depth = _loop_depth(spec, state)
        if depth is None:
            raise CompileError(
                f"cannot bound loop at state {name}: it extracts no "
                "stack-bounded field"
            )
        copies = [name] + [
            _fresh(states, f"{name}_u{i}") for i in range(1, depth)
        ]
        overflow = _fresh(states, f"{name}_ovf")
        for i, cname in enumerate(copies):
            succ = copies[i + 1] if i + 1 < depth else overflow
            rules = tuple(
                Rule(r.patterns, succ) if r.next_state == name
                else r
                for r in state.rules
            )
            states[cname] = SpecState(cname, state.extracts, state.key, rules)
            if cname not in order:
                order.insert(order.index(name) + i, cname)
        # The overflow state extracts one more stack instance, which rejects
        # at run time (stack full); its transition is never taken.
        states[overflow] = SpecState(
            overflow, state.extracts, (), (Rule((), REJECT),)
        )
        order.append(overflow)
    return spec.with_states(states, spec.start, order)


def _loop_depth(spec: ParserSpec, state: SpecState) -> Optional[int]:
    depths = [
        spec.fields[f].stack_depth
        for f in state.extracts
        if spec.fields[f].is_stack
    ]
    return min(depths) if depths else None


def _fresh(states: Dict[str, SpecState], base: str) -> str:
    name = base
    index = 0
    while name in states:
        index += 1
        name = f"{base}_{index}"
    return name


# ---------------------------------------------------------------------------
# Opt2 / Opt6 scaling (Figures 14 and 18)
# ---------------------------------------------------------------------------

class ScalePlan:
    """Remembers original field definitions so the synthesized program can
    be scaled back up (Impl' -> Impl in Figure 14)."""

    def __init__(self, original_fields: Dict[str, Field]):
        self.original_fields = dict(original_fields)

    def restore_fields(self, scaled: Dict[str, Field]) -> Dict[str, Field]:
        out = dict(scaled)
        for name, fdef in self.original_fields.items():
            if name in out:
                out[name] = fdef
        return out


def _lookahead_used(spec: ParserSpec) -> bool:
    return any(
        isinstance(part, LookaheadKey)
        for state in spec.states.values()
        for part in state.key
    )


def scale_spec(
    spec: ParserSpec,
    minimize_widths: bool,
    fix_varbits: bool,
    min_width: int = 1,
) -> Tuple[ParserSpec, ScalePlan]:
    """Apply Opt2 (irrelevant-field shrinking) and Opt6 (varbit fixing).

    Scaling moves field boundaries, so it is skipped entirely when the spec
    uses lookahead keys (whose window offsets are position-sensitive) —
    the safety net is that the final program is always verified against the
    *original* specification.
    """
    plan = ScalePlan(spec.fields)
    if _lookahead_used(spec):
        minimize_widths = False
    fields = dict(spec.fields)
    changed = False
    if minimize_widths:
        for name in irrelevant_fields(spec):
            fdef = fields[name]
            if fdef.is_varbit or fdef.width <= min_width:
                continue
            fields[name] = replace(fdef, width=min_width)
            changed = True
    if fix_varbits:
        for name, fdef in fields.items():
            if fdef.is_varbit:
                fields[name] = replace(
                    fdef,
                    is_varbit=False,
                    length_field=None,
                    length_multiplier=1,
                )
                changed = True
    if not changed:
        return spec, plan
    scaled = ParserSpec(
        spec.name, fields, dict(spec.states), spec.start, list(spec.state_order)
    )
    return scaled, plan


# ---------------------------------------------------------------------------
# Full front-end pipeline
# ---------------------------------------------------------------------------

def prepare_spec(
    spec: ParserSpec,
    pipelined: bool,
    minimize_widths: bool,
    fix_varbits: bool,
) -> Tuple[ParserSpec, ScalePlan]:
    """Canonicalize, unroll if the target is forward-only, scale."""
    prepared = canonicalize(spec)
    if pipelined:
        prepared = unroll_self_loops(prepared)
        prepared = canonicalize(prepared)
    scaled, plan = scale_spec(prepared, minimize_widths, fix_varbits)
    return scaled, plan
