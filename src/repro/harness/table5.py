"""Table 5: ablation of Opt4 (constant synthesis) and Opt5 (key grouping).

Three benchmarks x three configurations: all *other* optimizations on but
Opt4 and Opt5 off; plus Opt5; plus Opt4 and Opt5 (the full OPT arm).
The paper reports roughly an order of magnitude from each."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..benchgen import benchmark_by_label
from ..core import CompileOptions, ParserHawkCompiler
from .reporting import format_table
from .table3 import IPU, TOFINO

ABLATION_BENCHMARKS = ["Sai V1", "Dash V1", "Large tran key"]

CONFIGS: List[Tuple[str, Dict[str, bool]]] = [
    (
        "Other OPT",
        {"opt4_constant_synthesis": False, "opt5_key_grouping": False},
    ),
    (
        "+ OPT5",
        {"opt4_constant_synthesis": False, "opt5_key_grouping": True},
    ),
    ("+ OPT4, 5", {}),
]


@dataclass
class Table5Row:
    benchmark: str
    device: str
    seconds: Dict[str, float]       # config label -> compile seconds
    capped: Dict[str, bool]


def run_table5(
    device_kind: str = "tofino",
    benchmarks: Optional[Sequence[str]] = None,
    cap_seconds: float = 60.0,
) -> List[Table5Row]:
    device = TOFINO if device_kind == "tofino" else IPU
    rows: List[Table5Row] = []
    for label in benchmarks if benchmarks is not None else ABLATION_BENCHMARKS:
        bench = benchmark_by_label(label)
        spec = bench.spec()
        seconds: Dict[str, float] = {}
        capped: Dict[str, bool] = {}
        for config_label, overrides in CONFIGS:
            opts = CompileOptions(
                total_max_seconds=cap_seconds,
                budget_time_slice=cap_seconds,
                max_time_slice=cap_seconds,
                **overrides,
            )
            compiler = ParserHawkCompiler(opts)
            t0 = time.monotonic()
            result = compiler.compile(spec, device)
            elapsed = time.monotonic() - t0
            seconds[config_label] = elapsed
            capped[config_label] = not result.ok
        rows.append(Table5Row(label, device_kind, seconds, capped))
    return rows


def format_table5(rows: Sequence[Table5Row]) -> str:
    config_labels = [c for c, _ in CONFIGS]
    headers = ["Program Name"] + [f"{c} (s)" for c in config_labels]
    body = []
    for row in rows:
        cells = [row.benchmark]
        for c in config_labels:
            mark = ">" if row.capped.get(c) else ""
            cells.append(f"{mark}{row.seconds[c]:.2f}")
        body.append(cells)
    device = rows[0].device if rows else "?"
    return format_table(headers, body, title=f"Table 5 ablation ({device})")
