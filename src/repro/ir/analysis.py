"""Static analysis over parser specifications.

These analyses feed the synthesis pipeline of §5-§6:

* key-bit usage and irrelevant fields -> Opt2 (bit-width minimization)
* loop detection                      -> Opt7.1 (loop-aware vs loop-free)
* parse depth                         -> stage budgets, verifier depth

They also provide general hygiene checks (reachability, extract-before-use)
used by the frontend lint and by the rewrite mutators.  The Opt1/Opt4/Opt5
candidate pools are built by the skeleton itself
(:mod:`repro.core.skeleton`).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import networkx as nx

from .spec import ACCEPT, REJECT, FieldKey, ParserSpec


def build_state_graph(spec: ParserSpec) -> nx.DiGraph:
    """Directed state-transition graph (accept/reject included as sinks)."""
    graph = nx.DiGraph()
    for state in spec.states.values():
        graph.add_node(state.name)
        for rule in state.rules:
            graph.add_edge(state.name, rule.next_state)
    graph.add_node(ACCEPT)
    graph.add_node(REJECT)
    return graph


def reachable_states(spec: ParserSpec) -> Set[str]:
    """States reachable from start (excluding accept/reject)."""
    graph = build_state_graph(spec)
    reach = nx.descendants(graph, spec.start) | {spec.start}
    return {s for s in reach if s in spec.states}


def unreachable_states(spec: ParserSpec) -> Set[str]:
    return set(spec.states) - reachable_states(spec)


def has_loops(spec: ParserSpec) -> bool:
    """True when some reachable state lies on a cycle (e.g. MPLS stacks)."""
    graph = build_state_graph(spec)
    reach = reachable_states(spec)
    sub = graph.subgraph(reach)
    try:
        nx.find_cycle(sub)
        return True
    except nx.NetworkXNoCycle:
        return False


def looping_states(spec: ParserSpec) -> Set[str]:
    graph = build_state_graph(spec).subgraph(reachable_states(spec))
    out: Set[str] = set()
    for component in nx.strongly_connected_components(graph):
        if len(component) > 1:
            out |= set(component)
        else:
            (node,) = component
            if graph.has_edge(node, node):
                out.add(node)
    return out


def max_parse_depth(spec: ParserSpec, loop_unroll: int = 4) -> int:
    """Bound on the number of state executions along any run.

    For acyclic specs this is the longest path from start; loops add
    ``loop_unroll`` extra iterations per looping state, matching the K
    parameter of the paper's Figure 6 unrolling.
    """
    reach = reachable_states(spec)
    graph = build_state_graph(spec).subgraph(reach | {ACCEPT, REJECT})
    loopers = looping_states(spec)
    if not loopers:
        condensed = graph
        longest: Dict[str, int] = {}

        def depth_of(node: str) -> int:
            if node in (ACCEPT, REJECT) or node not in spec.states:
                return 0
            if node in longest:
                return longest[node]
            longest[node] = 1  # guard against accidental cycles
            best = 0
            for succ in condensed.successors(node):
                best = max(best, depth_of(succ))
            longest[node] = 1 + best
            return longest[node]

        return depth_of(spec.start)
    return len(reach) + loop_unroll * len(loopers)


# ---------------------------------------------------------------------------
# Key-bit usage (Opt2)
# ---------------------------------------------------------------------------

def key_bits_by_field(spec: ParserSpec) -> Dict[str, Set[int]]:
    """For every field: the set of bit indices used in any transition key."""
    usage: Dict[str, Set[int]] = {name: set() for name in spec.fields}
    for state in spec.states.values():
        for part in state.key:
            if isinstance(part, FieldKey):
                usage[part.field].update(range(part.lo, part.hi + 1))
    return usage


def irrelevant_fields(spec: ParserSpec) -> Set[str]:
    """Opt2: fields none of whose bits appear in any transition key and that
    are not varbit length sources."""
    usage = key_bits_by_field(spec)
    length_sources = {
        f.length_field for f in spec.fields.values() if f.length_field
    }
    return {
        name
        for name, bits in usage.items()
        if not bits and name not in length_sources
    }


# ---------------------------------------------------------------------------
# Lints
# ---------------------------------------------------------------------------

def check_extract_before_use(spec: ParserSpec) -> List[str]:
    """Fields referenced in a state's key must be extracted on every path
    reaching that state.  Returns a list of human-readable violations."""
    problems: List[str] = []
    extracted_on_entry: Dict[str, Set[str]] = {}

    def visit(name: str, have: frozenset, guard: Set[Tuple[str, frozenset]]):
        if (name, have) in guard:
            return
        guard.add((name, have))
        state = spec.states[name]
        now = set(have)
        now.update(state.extracts)
        for part in state.key:
            if isinstance(part, FieldKey) and part.field not in now:
                problems.append(
                    f"state {name} keys on {part.field} which may be "
                    "unextracted on some path"
                )
        for rule in state.rules:
            if rule.next_state in spec.states:
                visit(rule.next_state, frozenset(now), guard)

    visit(spec.start, frozenset(), set())
    # Deduplicate, preserve order.
    seen: Set[str] = set()
    unique = []
    for p in problems:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return unique
