"""Graphviz DOT export for specification and implementation FSMs.

Parser developers reason about transition graphs visually; both the spec
IR and compiled TCAM programs export to DOT (`dot -Tpdf` renders them).
The output is deterministic, so golden tests are stable."""

from __future__ import annotations

from typing import List

from .spec import ACCEPT, REJECT, ParserSpec


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _key_label(key) -> str:
    return ", ".join(str(k) for k in key) if key else ""


def spec_to_dot(spec: ParserSpec, name: str | None = None) -> str:
    """Render a specification's state graph as DOT."""
    lines: List[str] = [f'digraph "{_escape(name or spec.name)}" {{']
    lines.append("  rankdir=TB;")
    lines.append('  node [shape=box, fontname="monospace"];')
    lines.append(
        '  accept [shape=doublecircle, label="accept", color=darkgreen];'
    )
    lines.append('  reject [shape=doublecircle, label="reject", color=red];')
    for sname in spec.state_order:
        state = spec.states.get(sname)
        if state is None:
            continue
        extracts = "\\n".join(state.extracts) if state.extracts else "-"
        key = _key_label(state.key)
        label = f"{sname}|extract: {extracts}"
        if key:
            label += f"|key: {key}"
        shape = "record"
        style = ' style="bold"' if sname == spec.start else ""
        lines.append(
            f'  "{_escape(sname)}" [shape={shape}, '
            f'label="{{{_escape(label)}}}"{style}];'
        )
        widths = [k.width for k in state.key]
        for rule in state.rules:
            if state.is_unconditional:
                edge_label = ""
            elif rule.is_default:
                edge_label = "default"
            else:
                value, mask = rule.combined_value_mask(widths)
                from ..hw.tcam import TernaryPattern

                edge_label = str(
                    TernaryPattern(value & mask, mask, sum(widths))
                )
            dest = rule.next_state
            target = (
                "accept" if dest == ACCEPT
                else "reject" if dest == REJECT
                else f'"{_escape(dest)}"'
            )
            attr = f' [label="{_escape(edge_label)}"]' if edge_label else ""
            lines.append(f'  "{_escape(sname)}" -> {target}{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def program_to_dot(program, name: str | None = None) -> str:
    """Render a compiled TcamProgram as DOT (one edge per TCAM entry,
    ordered by priority)."""
    from ..hw.impl import ACCEPT_SID, REJECT_SID

    title = _escape(name or program.source_name or "program")
    lines: List[str] = [f'digraph "{title}" {{']
    lines.append("  rankdir=TB;")
    lines.append('  node [shape=record, fontname="monospace"];')
    lines.append(
        '  accept [shape=doublecircle, label="accept", color=darkgreen];'
    )
    lines.append('  reject [shape=doublecircle, label="reject", color=red];')
    live = set(program.used_sids())
    for state in program.states:
        if state.sid not in live:
            continue
        extracts = "\\n".join(state.extracts) if state.extracts else "-"
        key = _key_label(state.key)
        label = f"{state.name} (stage {state.stage})|extract: {extracts}"
        if key:
            label += f"|key: {key}"
        style = ' style="bold"' if state.sid == program.start_sid else ""
        lines.append(
            f'  s{state.sid} [label="{{{_escape(label)}}}"{style}];'
        )
        for priority, entry in enumerate(program.entries_of(state.sid)):
            if entry.next_sid == ACCEPT_SID:
                target = "accept"
            elif entry.next_sid == REJECT_SID:
                target = "reject"
            else:
                target = f"s{entry.next_sid}"
            pattern = entry.pattern.to_wildcard_string()
            lines.append(
                f'  s{state.sid} -> {target} '
                f'[label="{priority}: {_escape(pattern)}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
