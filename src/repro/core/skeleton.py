"""Parameterized parser skeleton (§5's "parser skeleton with symbolic
variables").

From a normalized specification and a device profile, the skeleton fixes
everything the optimizations allow us to fix up front and leaves the rest
symbolic:

* implementation states: one per specification state ("extraction unit",
  Opt3 pre-allocation) plus auxiliary extraction-free states for
  transition-key splitting (Figure 4 Step 2);
* per state, a finite list of candidate transition keys (Opt1 restricts
  them to spec-used bits, Opt5 keeps field slices atomic);
* per (state, candidate), a finite pool of ternary patterns for TCAM
  entries (Opt4: spec constants, merged cubes, sub-range splits,
  catch-all) — or a fully symbolic value/mask pair when Opt4 is off;
* a fixed budget of symbolic TCAM entries whose owner / pattern /
  next-state assignments the solver decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from ..hw.device import DeviceProfile
from ..hw.tcam import TernaryPattern, minimal_cover_exact
from ..ir.analysis import build_state_graph
from ..ir.spec import (
    ACCEPT,
    REJECT,
    FieldKey,
    KeyPart,
    LookaheadKey,
    ParserSpec,
    SpecState,
)
from .options import CompileOptions

FREE_PATTERN = "FREE"   # sentinel: symbolic value/mask (Opt4 disabled)
MAX_AUX_STATES = 4      # key-splitting auxiliaries per state


@dataclass(frozen=True)
class KeyCandidate:
    """One possible transition key for an implementation state."""

    parts: Tuple[KeyPart, ...]

    @property
    def width(self) -> int:
        return sum(p.width for p in self.parts)

    @property
    def lookahead_bits(self) -> int:
        return sum(p.width for p in self.parts if isinstance(p, LookaheadKey))

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts) if self.parts else "<none>"


@dataclass
class SkelState:
    """An implementation state slot."""

    sid: int
    name: str
    extracts: Tuple[str, ...]
    candidates: List[KeyCandidate]
    # Per candidate index: the ternary patterns an entry owned by this state
    # may use (or the FREE_PATTERN sentinel for symbolic patterns).
    patterns: List[List[object]]
    is_aux: bool = False
    unit_sid: int = -1          # the unit this aux state belongs to

    def __post_init__(self) -> None:
        if self.unit_sid < 0:
            self.unit_sid = self.sid


@dataclass
class Skeleton:
    """Everything the encoder needs to build the synthesis formula."""

    spec: ParserSpec
    device: DeviceProfile
    options: CompileOptions
    states: List[SkelState]
    num_entries: int
    stage_budget: int
    allow_loops: bool
    unroll_steps: int
    start_sid: int = 0

    def state(self, sid: int) -> SkelState:
        return self.states[sid]

    @property
    def num_states(self) -> int:
        return len(self.states)

    def allowed_next(self) -> Dict[int, List[int]]:
        """Per state: the destinations entries owned by it may take.

        A state realizing specification state U may only transition to
        (a) the units realizing U's spec successors (or accept/reject),
        or (b) other members of U's own aux chain.  Any correct
        implementation built on pre-allocated extraction units must follow
        the spec's unit graph, so this prunes the search space without
        losing solutions (reject is always allowed: explicit reject rules
        may need shadowing entries)."""
        from ..hw.impl import ACCEPT_SID, REJECT_SID
        from ..ir.spec import ACCEPT as SPEC_ACCEPT
        from ..ir.spec import REJECT as SPEC_REJECT

        name_to_sid = {s.name: s.sid for s in self.states if not s.is_aux}
        out: Dict[int, List[int]] = {}
        for st in self.states:
            unit = self.states[st.unit_sid]
            spec_state = self.spec.states[unit.name]
            allowed = {REJECT_SID}
            for rule in spec_state.rules:
                dest = rule.next_state
                if dest == SPEC_ACCEPT:
                    allowed.add(ACCEPT_SID)
                elif dest == SPEC_REJECT:
                    allowed.add(REJECT_SID)
                else:
                    allowed.add(name_to_sid[dest])
            for other in self.states:
                if (
                    other.is_aux
                    and other.unit_sid == st.unit_sid
                    and other.sid != st.sid
                ):
                    allowed.add(other.sid)
            out[st.sid] = sorted(allowed)
        return out

    def describe(self) -> str:
        lines = [
            f"Skeleton: {self.num_states} states, {self.num_entries} entries, "
            f"stage budget {self.stage_budget}, K={self.unroll_steps}, "
            f"loops={'yes' if self.allow_loops else 'no'}"
        ]
        for st in self.states:
            kind = "aux" if st.is_aux else "unit"
            cands = "; ".join(
                f"{c} ({len(p)} pat)" for c, p in zip(st.candidates, st.patterns)
            )
            lines.append(f"  [{st.sid}] {st.name} ({kind}): {cands}")
        return "\n".join(lines)

    def search_space_bits(self) -> int:
        """Size of the symbolic search space in bits (Table 3 column)."""
        import math

        total = 0
        for st in self.states:
            if len(st.candidates) > 1:
                total += max(1, math.ceil(math.log2(len(st.candidates))))
        next_choices = self.num_states + 2
        for _ in range(self.num_entries):
            triples = sum(
                (len(p) if p != [FREE_PATTERN] else 0)
                for st in self.states
                for p in [sum(st.patterns, [])]
            )
            if self.options.opt4_constant_synthesis:
                pool = sum(len(sum(st.patterns, [])) for st in self.states)
                total += max(1, math.ceil(math.log2(max(2, pool))))
            else:
                widest = max(
                    (c.width for st in self.states for c in st.candidates),
                    default=1,
                )
                total += 2 * widest + max(
                    1, math.ceil(math.log2(max(2, self.num_states)))
                )
            total += max(1, math.ceil(math.log2(next_choices)))
        if self.device.is_pipelined:
            import math as _m

            total += self.num_states * max(
                1, _m.ceil(_m.log2(max(2, self.stage_budget)))
            )
        return total


# ---------------------------------------------------------------------------
# Candidate-key generation
# ---------------------------------------------------------------------------

def _slice_key(parts: Sequence[KeyPart], hi: int, lo: int) -> Tuple[KeyPart, ...]:
    """Bits [hi:lo] (LSB order over the concatenated key) as key parts."""
    out: List[KeyPart] = []
    offset = 0  # LSB offset of the current part within the whole key
    for part in reversed(parts):
        part_lo = offset
        part_hi = offset + part.width - 1
        take_lo = max(lo, part_lo)
        take_hi = min(hi, part_hi)
        if take_lo <= take_hi:
            inner_lo = take_lo - part_lo
            inner_hi = take_hi - part_lo
            if isinstance(part, FieldKey):
                out.insert(
                    0,
                    FieldKey(part.field, part.lo + inner_hi, part.lo + inner_lo),
                )
            else:
                assert isinstance(part, LookaheadKey)
                # Wire order: part's first bits are its most significant.
                skip_msb = part.width - 1 - inner_hi
                out.insert(
                    0,
                    LookaheadKey(
                        part.offset + skip_msb, inner_hi - inner_lo + 1
                    ),
                )
        offset += part.width
    return tuple(out)


def _candidate_slices(
    natural: Sequence[KeyPart],
    key_limit: int,
    per_bit: bool,
    cap: int = 24,
) -> List[KeyCandidate]:
    """Contiguous sub-keys of the natural key that fit the device limit.

    With Opt5 (``per_bit=False``) boundaries snap to key-part edges except
    inside oversized parts, where aligned and sliding windows are added.
    Without Opt5 every bit boundary is considered (a much larger pool)."""
    width = sum(p.width for p in natural)
    if width == 0:
        return []
    boundaries: Set[int] = {0, width}
    offset = 0
    for part in reversed(natural):
        boundaries.add(offset)
        boundaries.add(offset + part.width)
        offset += part.width
    if per_bit:
        boundaries.update(range(width + 1))
    else:
        # Oversized parts must still be splittable: add aligned cut points
        # (and all offsets when the part is modest) inside them.
        offset = 0
        for part in reversed(natural):
            if part.width > key_limit:
                if part.width <= 4 * key_limit:
                    boundaries.update(
                        range(offset, offset + part.width + 1)
                    )
                else:
                    boundaries.update(
                        range(offset, offset + part.width + 1, key_limit)
                    )
                    boundaries.add(offset + part.width)
            offset += part.width
    cuts = sorted(boundaries)
    part_cuts: Set[int] = {0, width}
    offset = 0
    for part in reversed(natural):
        part_cuts.add(offset)
        part_cuts.add(offset + part.width)
        offset += part.width
    out: List[KeyCandidate] = []
    seen: Set[Tuple[KeyPart, ...]] = set()
    for i, lo in enumerate(cuts):
        for hi_bound in cuts[i + 1 :]:
            w = hi_bound - lo
            if w <= 0 or w > key_limit:
                continue
            if not per_bit:
                # Keep the pool small: a slice is interesting when it is
                # maximal (full device width) or snaps to key-part
                # boundaries; narrower interior slices add search space
                # without enabling new split shapes.
                if w < key_limit and not (
                    lo in part_cuts and hi_bound in part_cuts
                ):
                    continue
            parts = _slice_key(natural, hi_bound - 1, lo)
            if parts and parts not in seen:
                seen.add(parts)
                out.append(KeyCandidate(parts))
    # Prefer wide candidates first (they usually need fewer entries).
    out.sort(key=lambda c: (-c.width,))
    return out[:cap]


# ---------------------------------------------------------------------------
# Pattern-pool generation (Opt4)
# ---------------------------------------------------------------------------

def _restrict_constant(
    value: int, mask: int, natural_width: int, lo: int, width: int
) -> Tuple[int, int]:
    sub_value = (value >> lo) & ((1 << width) - 1)
    sub_mask = (mask >> lo) & ((1 << width) - 1)
    return sub_value, sub_mask


def _candidate_lo(natural: Sequence[KeyPart], cand: KeyCandidate) -> Optional[int]:
    """LSB offset of a candidate inside the natural key, or None if the
    candidate is not a contiguous slice of it."""
    width = sum(p.width for p in natural)
    for lo in range(width - cand.width + 1):
        if _slice_key(natural, lo + cand.width - 1, lo) == cand.parts:
            return lo
    return None


def _patterns_for_candidate(
    spec_state: SpecState,
    natural: Sequence[KeyPart],
    cand: KeyCandidate,
    cap: int = 16,
) -> List[TernaryPattern]:
    """The Opt4 constant pool for one (state, key-candidate) pair."""
    width = cand.width
    pool: List[TernaryPattern] = []
    seen: Set[Tuple[int, int]] = set()

    def add(value: int, mask: int) -> None:
        value &= (1 << width) - 1
        mask &= (1 << width) - 1
        value &= mask
        if (value, mask) not in seen:
            seen.add((value, mask))
            pool.append(TernaryPattern(value, mask, width))

    add(0, 0)  # catch-all: always available (defaults / unconditional moves)
    lo = _candidate_lo(natural, cand)
    if lo is not None and spec_state.key:
        widths = [k.width for k in spec_state.key]
        constants = [r.combined_value_mask(widths) for r in spec_state.rules]
        # 6.4.1: the constants present in the spec, restricted to the slice.
        for value, mask in constants:
            sv, sm = _restrict_constant(value, mask, sum(widths), lo, width)
            add(sv, sm)
            add(sv, (1 << width) - 1)  # exact form of the same constant
        # 6.4.2: merged cubes per destination (mask synthesis candidates).
        by_dest: Dict[str, List[int]] = {}
        full = (1 << sum(widths)) - 1
        for rule, (value, mask) in zip(spec_state.rules, constants):
            if mask == full:
                by_dest.setdefault(rule.next_state, []).append(value)
        for dest, values in by_dest.items():
            sliced = sorted(
                {(v >> lo) & ((1 << width) - 1) for v in values}
            )
            if len(sliced) > 1 and width <= 16:
                for cube in minimal_cover_exact(sliced, width):
                    add(cube.value, cube.mask)
            for v in sliced:
                add(v, (1 << width) - 1)
    return pool[:cap]


# ---------------------------------------------------------------------------
# Skeleton construction
# ---------------------------------------------------------------------------

def accept_path_states(spec: ParserSpec) -> Set[str]:
    """States on at least one start->accept path (they must appear in the
    implementation because their extractions are observable)."""
    graph = build_state_graph(spec)
    if ACCEPT not in graph:
        return set()
    from_start = nx.descendants(graph, spec.start) | {spec.start}
    to_accept = nx.ancestors(graph, ACCEPT)
    return {s for s in from_start & to_accept if s in spec.states}


def entry_lower_bound(
    spec: ParserSpec, device: Optional[DeviceProfile] = None
) -> int:
    """Sound lower bound on TCAM entries.

    Every state on a start->accept path must be exited, and the family of
    states realizing one specification state (the unit plus any auxiliary
    key-splitting states) needs at least one entry per distinct non-reject
    destination the spec state can take: each destination requires some
    entry pointing at it, and families do not share entries.  Rules whose
    destination is ``reject`` need no entry (a TCAM miss already rejects),
    so they are excluded, which keeps the bound a true lower bound.

    When a device is given and a state's semantic transition function
    provably cannot be decided by any single slice of at most
    ``device.key_limit`` key bits, its family needs a routing hop, adding
    one more entry."""
    total = 0
    for name in accept_path_states(spec):
        state = spec.states[name]
        dests = {
            r.next_state for r in state.rules if r.next_state != REJECT
        }
        bound = max(1, len(dests))
        if (
            device is not None
            and state.key_width > device.key_limit
            and state.key_width <= 12
            and not _single_slice_separates(state, device.key_limit)
        ):
            bound += 1
        total += bound
    return max(1, total)


def _single_slice_separates(spec_state: SpecState, key_limit: int) -> bool:
    """Can some contiguous slice of at most key_limit bits decide the
    state's transition function?  (Exhaustive over key values; callers
    gate on small key widths.)"""
    widths = [k.width for k in spec_state.key]
    total = sum(widths)
    folded = [r.combined_value_mask(widths) for r in spec_state.rules]
    dests = [r.next_state for r in spec_state.rules]

    def dest_of(kv: int) -> str:
        for (value, mask), dest in zip(folded, dests):
            if (kv & mask) == (value & mask):
                return dest
        return REJECT

    behaviour = [dest_of(kv) for kv in range(1 << total)]
    for width in range(1, min(key_limit, total) + 1):
        for lo in range(total - width + 1):
            mapping: Dict[int, str] = {}
            consistent = True
            for kv, dest in enumerate(behaviour):
                sub = (kv >> lo) & ((1 << width) - 1)
                if mapping.setdefault(sub, dest) != dest:
                    consistent = False
                    break
            if consistent:
                return True
    return False


def build_skeleton(
    spec: ParserSpec,
    device: DeviceProfile,
    options: CompileOptions,
    num_entries: int,
    stage_budget: Optional[int] = None,
    allow_loops: Optional[bool] = None,
) -> Skeleton:
    """Construct the symbolic skeleton for one (entries, stages) budget."""
    if allow_loops is None:
        allow_loops = device.allows_loops
    if stage_budget is None:
        stage_budget = device.stage_limit if device.is_pipelined else 1

    states: List[SkelState] = []
    order = [n for n in spec.state_order if n in spec.states]
    unit_sids: Dict[str, int] = {}

    per_bit = not options.opt5_key_grouping

    for name in order:
        spec_state = spec.states[name]
        sid = len(states)
        unit_sids[name] = sid
        natural = spec_state.key
        candidates: List[KeyCandidate] = []
        natural_cand = KeyCandidate(tuple(natural))
        fits = (
            natural_cand.width <= device.key_limit
            and natural_cand.lookahead_bits <= device.lookahead_limit
        )
        if natural and fits:
            candidates.append(natural_cand)
        for cand in _candidate_slices(natural, device.key_limit, per_bit):
            if cand.lookahead_bits > device.lookahead_limit:
                continue
            if cand not in candidates:
                candidates.append(cand)
        if not options.opt1_spec_guided_keys:
            # Naive arm: also offer keys over bits the spec never uses.
            for fname in spec_state.extracts:
                fdef = spec.fields[fname]
                if fdef.is_varbit:
                    continue
                w = min(fdef.width, device.key_limit)
                extra = KeyCandidate((FieldKey(fname, w - 1, 0),))
                if extra not in candidates:
                    candidates.append(extra)
        candidates.append(KeyCandidate(()))  # keyless (single catch-all exit)
        patterns: List[List[object]] = []
        for cand in candidates:
            if not cand.parts:
                patterns.append([TernaryPattern(0, 0, 0)])
            elif options.opt4_constant_synthesis:
                patterns.append(
                    _patterns_for_candidate(spec_state, natural, cand)
                )
            else:
                patterns.append([FREE_PATTERN])
        states.append(
            SkelState(sid, name, tuple(spec_state.extracts), candidates, patterns)
        )

    # Auxiliary states for key splitting: only for units whose natural key
    # exceeds the device key width (or lookahead window).
    for name in order:
        spec_state = spec.states[name]
        natural_w = spec_state.key_width
        if natural_w == 0 or natural_w <= device.key_limit:
            continue
        import math

        needed = min(
            MAX_AUX_STATES,
            max(
                math.ceil(natural_w / device.key_limit) - 1,
                _distinct_high_groups(spec_state, device.key_limit),
            ),
        )
        unit = states[unit_sids[name]]
        for i in range(needed):
            sid = len(states)
            aux_candidates = [
                c for c in unit.candidates if c.parts
            ]
            aux_patterns: List[List[object]] = []
            for cand in aux_candidates:
                if options.opt4_constant_synthesis:
                    aux_patterns.append(
                        _patterns_for_candidate(
                            spec_state, spec_state.key, cand
                        )
                    )
                else:
                    aux_patterns.append([FREE_PATTERN])
            states.append(
                SkelState(
                    sid,
                    f"{name}__aux{i}",
                    (),
                    list(aux_candidates),
                    aux_patterns,
                    is_aux=True,
                    unit_sid=unit.sid,
                )
            )

    from ..ir.analysis import max_parse_depth

    base_depth = max_parse_depth(spec, loop_unroll=_max_stack_depth(spec))
    # Any single run can pass through each unit's aux chain at most once;
    # a chain is at most ceil(key_width / key_limit) - 1 long.
    import math

    chain_total = sum(
        max(0, math.ceil(spec.states[n].key_width / device.key_limit) - 1)
        for n in order
        if spec.states[n].key_width > 0
    )
    loop_extra = 0
    if any(f.is_stack for f in spec.fields.values()):
        # Looping states revisit their aux chain once per stack instance.
        loop_extra = chain_total * (_max_stack_depth(spec) - 1)
    unroll = base_depth + chain_total + loop_extra + 2

    start_name = spec.start
    return Skeleton(
        spec=spec,
        device=device,
        options=options,
        states=states,
        num_entries=num_entries,
        stage_budget=stage_budget,
        allow_loops=allow_loops,
        unroll_steps=unroll,
        start_sid=unit_sids[start_name],
    )


def _distinct_high_groups(spec_state: SpecState, key_limit: int) -> int:
    """How many distinct high-part groups a split at key_limit creates —
    each may need its own auxiliary check state (Figure 4 Step 2)."""
    widths = [k.width for k in spec_state.key]
    total = sum(widths)
    if total <= key_limit:
        return 0
    cut = total - key_limit
    highs = set()
    for rule in spec_state.rules:
        value, mask = rule.combined_value_mask(widths)
        if mask == 0:
            continue
        highs.add(value >> cut)
    return min(len(highs), 3)


def _max_stack_depth(spec: ParserSpec) -> int:
    depths = [f.stack_depth for f in spec.fields.values() if f.is_stack]
    return max(depths) if depths else 4
