"""Semantic-preserving rewrite rules R1-R5 (paper Figure 21).

The evaluation mutates each benchmark with these rewrites to model the many
ways developers express the same parsing semantics:

* R1  add / remove redundant entries,
* R2  add / remove unreachable entries (and unreachable states),
* R3  split / merge entries (specialize or generalize a mask bit),
* R4  split / merge the transition key across chained states,
* R5  split / merge parser states along extraction boundaries.

Every function takes a :class:`ParserSpec` and returns a new spec; all are
semantics-preserving (property-tested in ``tests/ir/test_rewrites.py``).
A mutation that finds no applicable site returns the spec unchanged —
callers can detect this via identity comparison.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from .analysis import unreachable_states
from .spec import (
    ACCEPT,
    REJECT,
    FieldKey,
    LookaheadKey,
    ParserSpec,
    Rule,
    SpecState,
    ValueMask,
)


def _fresh_name(spec: ParserSpec, base: str) -> str:
    index = 0
    while f"{base}_{index}" in spec.states:
        index += 1
    return f"{base}_{index}"


# ---------------------------------------------------------------------------
# R1: redundant entries
# ---------------------------------------------------------------------------

def add_redundant_entries(
    spec: ParserSpec, rng: Optional[random.Random] = None, copies: int = 1
) -> ParserSpec:
    """+R1: duplicate an existing rule immediately after itself.  First-match
    semantics make the copy dead weight — unless a compiler blindly allocates
    a TCAM entry for it."""
    rng = rng or random.Random(0)
    candidates = [
        (name, idx)
        for name, state in spec.states.items()
        if not state.is_unconditional
        for idx in range(len(state.rules))
    ]
    if not candidates:
        return spec
    name, idx = rng.choice(candidates)
    state = spec.states[name]
    rules = list(state.rules)
    for _ in range(copies):
        rules.insert(idx + 1, rules[idx])
    return spec.replace_state(
        SpecState(state.name, state.extracts, state.key, tuple(rules))
    )


def remove_redundant_entries(spec: ParserSpec) -> ParserSpec:
    """-R1: drop rules subsumed by an earlier rule with the same destination.

    Rule j is subsumed by earlier rule i when every key value matching j also
    matches i (mask_i ⊆ mask_j bit-wise and values agree on mask_i)."""
    new_states: Dict[str, SpecState] = {}
    changed = False
    for name, state in spec.states.items():
        if state.is_unconditional:
            new_states[name] = state
            continue
        widths = [k.width for k in state.key]
        folded = [rule.combined_value_mask(widths) for rule in state.rules]
        keep: List[Rule] = []
        kept_folded: List[Tuple[int, int, str]] = []
        for rule, (value, mask) in zip(state.rules, folded):
            subsumed = False
            for pv, pm, pdest in kept_folded:
                covers = (pm & mask) == pm and (value & pm) == (pv & pm)
                if covers and pdest == rule.next_state:
                    subsumed = True
                    break
            if subsumed:
                changed = True
                continue
            keep.append(rule)
            kept_folded.append((value, mask, rule.next_state))
        new_states[name] = SpecState(
            state.name, state.extracts, state.key, tuple(keep)
        )
    if not changed:
        return spec
    return spec.with_states(new_states, spec.start, spec.state_order)


# ---------------------------------------------------------------------------
# R2: unreachable entries / states
# ---------------------------------------------------------------------------

def add_unreachable_entries(
    spec: ParserSpec, rng: Optional[random.Random] = None
) -> ParserSpec:
    """+R2: append a rule after a catch-all rule (it can never fire), or —
    when no state ends in a catch-all — add an entire unreachable state."""
    rng = rng or random.Random(0)
    candidates = []
    for name, state in spec.states.items():
        if state.is_unconditional:
            continue
        widths = [k.width for k in state.key]
        for idx, rule in enumerate(state.rules):
            _value, mask = rule.combined_value_mask(widths)
            if mask == 0:  # catch-all: anything after it is dead
                candidates.append((name, idx))
                break
    if candidates:
        name, idx = rng.choice(candidates)
        state = spec.states[name]
        dead_dest = rng.choice(
            [ACCEPT, REJECT] + [s for s in spec.states if s != name]
        )
        dead = Rule(
            tuple(ValueMask(0) for _ in state.key), dead_dest
        )
        rules = list(state.rules)
        rules.insert(idx + 1, dead)
        return spec.replace_state(
            SpecState(state.name, state.extracts, state.key, tuple(rules))
        )
    # Fall back: a whole state nothing transitions to.
    orphan = _fresh_name(spec, "orphan")
    states = dict(spec.states)
    states[orphan] = SpecState(orphan, (), (), (Rule((), ACCEPT),))
    return spec.with_states(states, spec.start, spec.state_order + [orphan])


def remove_unreachable_entries(spec: ParserSpec) -> ParserSpec:
    """-R2: drop rules that can never fire and drop unreachable states.

    A rule can never fire when the earlier rules' match cubes cover its
    own: everything after a catch-all, but also a rule that several
    earlier rules cover only jointly."""
    new_states: Dict[str, SpecState] = {}
    for name, state in spec.states.items():
        if state.is_unconditional:
            new_states[name] = state
            continue
        widths = [k.width for k in state.key]
        keep: List[Rule] = []
        cubes: List[Tuple[int, int]] = []
        for rule in state.rules:
            value, mask = rule.combined_value_mask(widths)
            if _covered(value, mask, cubes):
                continue
            keep.append(rule)
            cubes.append((value, mask))
        new_states[name] = SpecState(
            state.name, state.extracts, state.key, tuple(keep)
        )
    trimmed = spec.with_states(new_states, spec.start, spec.state_order)
    dead = unreachable_states(trimmed)
    if not dead:
        return trimmed
    kept = {n: s for n, s in trimmed.states.items() if n not in dead}
    order = [n for n in trimmed.state_order if n not in dead]
    return trimmed.with_states(kept, trimmed.start, order)


def _covered(
    value: int, mask: int, cubes: List[Tuple[int, int]], start: int = 0
) -> bool:
    """Is every key matching ``(value, mask)`` matched by some cube in
    ``cubes[start:]``?  Exact: split on a bit the first intersecting cube
    fixes; the half that disagrees with that cube is disjoint from it."""
    for i in range(start, len(cubes)):
        cube_value, cube_mask = cubes[i]
        if (value ^ cube_value) & mask & cube_mask:
            continue  # disjoint
        free = cube_mask & ~mask
        if not free:
            return True  # this cube contains ours
        bit = free & -free
        return _covered(
            value | (bit & ~cube_value), mask | bit, cubes, i + 1
        ) and _covered(value | (bit & cube_value), mask | bit, cubes, i)
    return False


# ---------------------------------------------------------------------------
# R3: split / merge entries
# ---------------------------------------------------------------------------

def split_entries(
    spec: ParserSpec, rng: Optional[random.Random] = None
) -> ParserSpec:
    """+R3: replace one rule having a wildcard bit with the two rules that
    specialize that bit (same destination, same position in the list)."""
    rng = rng or random.Random(0)
    candidates = []
    for name, state in spec.states.items():
        if state.is_unconditional:
            continue
        widths = [k.width for k in state.key]
        total = sum(widths)
        for idx, rule in enumerate(state.rules):
            value, mask = rule.combined_value_mask(widths)
            free_bits = [
                b for b in range(total) if not (mask >> b) & 1
            ]
            if free_bits:
                candidates.append((name, idx, free_bits))
    if not candidates:
        return spec
    name, idx, free_bits = rng.choice(candidates)
    bit = rng.choice(free_bits)
    state = spec.states[name]
    widths = [k.width for k in state.key]
    value, mask = state.rules[idx].combined_value_mask(widths)
    new_mask = mask | (1 << bit)
    rules = list(state.rules)
    dest = rules[idx].next_state
    rule0 = _rule_from_folded(value & ~(1 << bit), new_mask, widths, dest)
    rule1 = _rule_from_folded(value | (1 << bit), new_mask, widths, dest)
    rules[idx : idx + 1] = [rule0, rule1]
    return spec.replace_state(
        SpecState(state.name, state.extracts, state.key, tuple(rules))
    )


def merge_entries(spec: ParserSpec) -> ParserSpec:
    """-R3: merge adjacent rule pairs with identical masks and destinations
    whose values differ in exactly one mask bit."""
    new_states: Dict[str, SpecState] = {}
    changed = False
    for name, state in spec.states.items():
        if state.is_unconditional:
            new_states[name] = state
            continue
        widths = [k.width for k in state.key]
        rules = list(state.rules)
        merged = True
        while merged:
            merged = False
            for i in range(len(rules) - 1):
                a, b = rules[i], rules[i + 1]
                if a.next_state != b.next_state:
                    continue
                av, am = a.combined_value_mask(widths)
                bv, bm = b.combined_value_mask(widths)
                if am != bm:
                    continue
                diff = (av ^ bv) & am
                if diff and (diff & (diff - 1)) == 0:
                    new_mask = am & ~diff
                    rules[i : i + 2] = [
                        _rule_from_folded(
                            av & new_mask, new_mask, widths, a.next_state
                        )
                    ]
                    merged = True
                    changed = True
                    break
        new_states[name] = SpecState(
            state.name, state.extracts, state.key, tuple(rules)
        )
    if not changed:
        return spec
    return spec.with_states(new_states, spec.start, spec.state_order)


def _rule_from_folded(
    value: int, mask: int, widths: List[int], dest: str
) -> Rule:
    """Unfold a whole-key (value, mask) back into per-key-part patterns."""
    patterns: List[ValueMask] = []
    remaining = sum(widths)
    for width in widths:
        remaining -= width
        part_value = (value >> remaining) & ((1 << width) - 1)
        part_mask = (mask >> remaining) & ((1 << width) - 1)
        if part_mask == 0:
            patterns.append(ValueMask(0, wildcard=True))
        elif part_mask == (1 << width) - 1:
            patterns.append(ValueMask(part_value))
        else:
            patterns.append(ValueMask(part_value, part_mask))
    return Rule(tuple(patterns), dest)


# ---------------------------------------------------------------------------
# R4: split / merge the transition key
# ---------------------------------------------------------------------------

def split_transition_key(
    spec: ParserSpec,
    state_name: Optional[str] = None,
    split_at: Optional[int] = None,
) -> ParserSpec:
    """+R4: split one state's wide key check into a two-level chain.

    The state keeps the high ``key_width - split_at`` bits of its key; for
    every distinct high-part among its rules a fresh chained state checks the
    low ``split_at`` bits.  The chained states extract nothing, so lookahead
    offsets and field references remain valid.  Rules with wildcard bits
    inside the split boundary are left alone (a site with only maskable
    rules is chosen automatically when ``state_name`` is None)."""
    target = None
    for name, state in spec.states.items():
        if state_name is not None and name != state_name:
            continue
        if state.is_unconditional or state.key_width < 2:
            continue
        target = state
        break
    if target is None:
        return spec
    widths = [k.width for k in target.key]
    total = sum(widths)
    cut = split_at if split_at is not None else total // 2
    if not 0 < cut < total:
        return spec

    folded = [r.combined_value_mask(widths) for r in target.rules]
    low_mask_all = (1 << cut) - 1

    # Find the trailing catch-all (default) if present.
    default_dest = None
    body = list(zip(target.rules, folded))
    if body and folded[-1][1] == 0:
        default_dest = target.rules[-1].next_state
        body = body[:-1]
    # Bail out when any non-default rule has wildcard high bits: chaining
    # would need overlapping groups.
    for _rule, (value, mask) in body:
        if (mask >> cut) != (1 << (total - cut)) - 1:
            return spec

    high_key, low_key = _split_key_parts(target.key, cut)
    groups: Dict[int, List[Tuple[int, int, str]]] = {}
    group_order: List[int] = []
    for rule, (value, mask) in body:
        high = value >> cut
        if high not in groups:
            groups[high] = []
            group_order.append(high)
        groups[high].append((value & low_mask_all, mask & low_mask_all, rule.next_state))

    new_spec = spec
    states = dict(spec.states)
    order = list(spec.state_order)
    high_rules: List[Rule] = []
    low_widths = [k.width for k in low_key]
    for high in group_order:
        child_name = _fresh_name(
            ParserSpec(spec.name, spec.fields, states, spec.start, order),
            f"{target.name}_k{high:x}",
        )
        child_rules = [
            _rule_from_folded(lv, lm, low_widths, dest)
            for lv, lm, dest in groups[high]
        ]
        if default_dest is not None:
            child_rules.append(
                Rule(tuple(ValueMask(0, wildcard=True) for _ in low_key), default_dest)
            )
        states[child_name] = SpecState(
            child_name, (), tuple(low_key), tuple(child_rules)
        )
        order.append(child_name)
        high_rules.append(
            _rule_from_folded(
                high,
                (1 << (total - cut)) - 1,
                [k.width for k in high_key],
                child_name,
            )
        )
    if default_dest is not None:
        high_rules.append(
            Rule(tuple(ValueMask(0, wildcard=True) for _ in high_key), default_dest)
        )
    states[target.name] = SpecState(
        target.name, target.extracts, tuple(high_key), tuple(high_rules)
    )
    return new_spec.with_states(states, spec.start, order)


def _split_key_parts(key, cut: int):
    """Split a key-part tuple so the low ``cut`` bits form the second key."""
    # Walk from the least-significant end (last part's low bits).
    high: List = []
    low: List = []
    remaining = cut
    for part in reversed(key):
        if remaining == 0:
            high.insert(0, part)
            continue
        if part.width <= remaining:
            low.insert(0, part)
            remaining -= part.width
            continue
        # Split inside this part.
        if isinstance(part, FieldKey):
            low.insert(0, FieldKey(part.field, part.lo + remaining - 1, part.lo))
            high.insert(0, FieldKey(part.field, part.hi, part.lo + remaining))
        else:
            assert isinstance(part, LookaheadKey)
            # Wire order: first bits are most significant.
            high_width = part.width - remaining
            high.insert(0, LookaheadKey(part.offset, high_width))
            low.insert(0, LookaheadKey(part.offset + high_width, remaining))
        remaining = 0
    return tuple(high), tuple(low)


def merge_transition_key(spec: ParserSpec) -> ParserSpec:
    """-R4: inverse of the split — collapse a state whose every non-default
    rule targets a distinct extraction-free keyed child back into a single
    state with the concatenated key."""
    for name, state in spec.states.items():
        if state.is_unconditional:
            continue
        widths = [k.width for k in state.key]
        body: List[Rule] = list(state.rules)
        default_dest = None
        if body and body[-1].combined_value_mask(widths)[1] == 0:
            default_dest = body[-1].next_state
            body = body[:-1]
        if not body:
            continue
        children = []
        ok = True
        for rule in body:
            value, mask = rule.combined_value_mask(widths)
            child_name = rule.next_state
            if mask != (1 << sum(widths)) - 1 or child_name not in spec.states:
                ok = False
                break
            child = spec.states[child_name]
            if child.extracts or child.is_unconditional:
                ok = False
                break
            # Child must be reachable only through this state.
            preds = [
                s
                for s in spec.states.values()
                for r in s.rules
                if r.next_state == child_name
            ]
            if len(preds) != 1:
                ok = False
                break
            children.append((value, child))
        if not ok or not children:
            continue
        base_key = children[0][1].key
        if any(c.key != base_key for _v, c in children):
            continue
        child_widths = [k.width for k in base_key]
        merged_key = tuple(state.key) + tuple(base_key)
        merged_widths = widths + child_widths
        merged_rules: List[Rule] = []
        child_total = sum(child_widths)
        for high_value, child in children:
            for rule in child.rules:
                lv, lm = rule.combined_value_mask(child_widths)
                if lm == 0 and default_dest is not None and (
                    rule.next_state == default_dest
                ):
                    continue  # child default duplicates the parent default
                merged_rules.append(
                    _rule_from_folded(
                        (high_value << child_total) | lv,
                        (((1 << sum(widths)) - 1) << child_total) | lm,
                        merged_widths,
                        rule.next_state,
                    )
                )
        if default_dest is not None:
            merged_rules.append(
                Rule(
                    tuple(ValueMask(0, wildcard=True) for _ in merged_key),
                    default_dest,
                )
            )
        states = {
            n: s
            for n, s in spec.states.items()
            if n not in {c.name for _v, c in children}
        }
        states[name] = SpecState(
            name, state.extracts, merged_key, tuple(merged_rules)
        )
        order = [
            n for n in spec.state_order if n in states
        ]
        return spec.with_states(states, spec.start, order)
    return spec


# ---------------------------------------------------------------------------
# R5: split / merge parser states
# ---------------------------------------------------------------------------

def split_states(
    spec: ParserSpec, state_name: Optional[str] = None, at: Optional[int] = None
) -> ParserSpec:
    """+R5: split a state extracting >= 2 fields into a chain of two states;
    the first extracts a prefix then transitions unconditionally."""
    target = None
    for name, state in spec.states.items():
        if state_name is not None and name != state_name:
            continue
        if len(state.extracts) >= 2:
            target = state
            break
    if target is None:
        return spec
    cut = at if at is not None else len(target.extracts) // 2
    if not 0 < cut < len(target.extracts):
        return spec
    tail_name = _fresh_name(spec, f"{target.name}_tail")
    states = dict(spec.states)
    states[target.name] = SpecState(
        target.name,
        tuple(target.extracts[:cut]),
        (),
        (Rule((), tail_name),),
    )
    states[tail_name] = SpecState(
        tail_name, tuple(target.extracts[cut:]), target.key, target.rules
    )
    order = list(spec.state_order)
    order.insert(order.index(target.name) + 1, tail_name)
    return spec.with_states(states, spec.start, order)


def merge_states(spec: ParserSpec) -> ParserSpec:
    """-R5: merge a state with a single unconditional successor when the
    successor has no other predecessors (and neither keys on lookahead that
    the merge would invalidate — extraction order is preserved so lookahead
    offsets stay correct)."""
    for name, state in spec.states.items():
        if not state.is_unconditional:
            continue
        dest = state.rules[0].next_state
        if dest in (ACCEPT, REJECT) or dest == name:
            continue
        preds = [
            s.name
            for s in spec.states.values()
            for r in s.rules
            if r.next_state == dest
        ]
        if preds != [name]:
            continue
        succ = spec.states[dest]
        if dest == spec.start:
            continue
        merged = SpecState(
            name,
            tuple(state.extracts) + tuple(succ.extracts),
            succ.key,
            succ.rules,
        )
        states = {n: s for n, s in spec.states.items() if n != dest}
        states[name] = merged
        order = [n for n in spec.state_order if n != dest]
        return spec.with_states(states, spec.start, order)
    return spec


# ---------------------------------------------------------------------------
# Registry used by the benchmark mutation driver
# ---------------------------------------------------------------------------

REWRITES = {
    "+R1": add_redundant_entries,
    "-R1": remove_redundant_entries,
    "+R2": add_unreachable_entries,
    "-R2": remove_unreachable_entries,
    "+R3": split_entries,
    "-R3": merge_entries,
    "+R4": split_transition_key,
    "-R4": merge_transition_key,
    "+R5": split_states,
    "-R5": merge_states,
}


def apply_rewrites(spec: ParserSpec, names: List[str]) -> ParserSpec:
    """Apply a sequence of rewrite names like ``["+R1", "-R3"]``."""
    out = spec
    for name in names:
        if name not in REWRITES:
            raise KeyError(f"unknown rewrite {name!r}")
        out = REWRITES[name](out)
    return out
