"""Row formatting and aggregate statistics for the experiment harness."""

from __future__ import annotations

import math
from typing import Any, Iterable, Optional, Sequence, Tuple, Union

from ..obs import format_profile, format_span_tree
from ..obs.export import aggregate

TimeValue = Union[float, Tuple[float, bool]]   # seconds, (seconds, capped?)


def fmt_time(value: Optional[TimeValue]) -> str:
    """Format seconds; capped measurements render as '>cap' like the
    paper's '>86400' cells."""
    if value is None:
        return "-"
    if isinstance(value, tuple):
        seconds, capped = value
        if capped:
            return f">{seconds:.0f}"
        return f"{seconds:.2f}"
    return f"{value:.2f}"


def speedup_of(opt: Optional[TimeValue], orig: Optional[TimeValue]) -> Optional[float]:
    """orig/opt; a capped orig yields a lower bound (still orig/opt).

    Non-positive measurements (a cache-served compile reports ~0s; a
    clock hiccup can even go negative) make the ratio meaningless, so
    they return ``None`` — rendered as '-' — rather than a fabricated
    number from a clamped denominator."""
    if opt is None or orig is None:
        return None
    opt_s = opt[0] if isinstance(opt, tuple) else opt
    orig_s = orig[0] if isinstance(orig, tuple) else orig
    if opt_s <= 0 or orig_s <= 0:
        return None
    return orig_s / opt_s


def fmt_speedup(
    opt: Optional[TimeValue], orig: Optional[TimeValue]
) -> str:
    s = speedup_of(opt, orig)
    if s is None:
        return "-"
    capped = isinstance(orig, tuple) and orig[1]
    prefix = ">" if capped else ""
    return f"{prefix}{s:.2f}x"


def geometric_mean(values: Iterable[float]) -> float:
    vals = [v for v in values if v and v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = ""
) -> str:
    """Plain-text aligned table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    if title:
        lines.append(title)
    lines.append(
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    )
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            " | ".join(str(c).ljust(widths[i]) for i, c in enumerate(row))
        )
    return "\n".join(lines)


def format_sat_phases(trace: Any) -> str:
    """One-line SAT-engine phase summary from a trace's counters.

    The solver accounts its own propagate/analyze wall time and
    the bit-blaster its structural-cache hits (recorded per ``check`` by
    the SMT facade); summing them across all spans gives the solver-level
    profile without any external tooling.  Returns "" when the trace
    recorded no SAT activity."""
    totals: dict = {}
    for row in aggregate(trace).values():
        for key, value in row["counters"].items():
            if key.startswith("sat."):
                totals[key] = totals.get(key, 0) + value
    if not totals:
        return ""
    parts = [
        f"{label} {totals.get(key, 0.0):.3f}s"
        for label, key in (
            ("propagate", "sat.propagate_seconds"),
            ("analyze", "sat.analyze_seconds"),
        )
    ]
    parts.append(f"gate-cache hits {int(totals.get('sat.gate_cache_hits', 0))}")
    return "SAT phases: " + " | ".join(parts)


def format_span_breakdown(
    trace: Any, max_depth: int = 4, min_seconds: float = 0.005
) -> str:
    """Benchmark-report rendering of a trace (a :class:`repro.obs.Tracer`,
    :class:`repro.obs.Span`, or an exported span-tree dict): the per-span
    profile table, a SAT-engine phase summary, and a depth-limited span
    tree."""
    profile = format_profile(trace)
    tree = format_span_tree(trace, max_depth=max_depth,
                            min_seconds=min_seconds)
    phases = format_sat_phases(trace)
    if phases:
        profile = f"{profile}\n\n{phases}"
    return f"{profile}\n\nspan tree (depth<={max_depth}):\n{tree}"
