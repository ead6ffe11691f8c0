"""What each phase-ledger workload runs, as a pure function of its seed.

The seed drives row order, serve arrival times and key draws; it never
changes *which* work a run does, so two seeds measure the same rows and
the same number of compiles and requests.  Compile options stay at their
defaults (plus ``parallel_workers=2`` for the portfolio workload).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

DEVICES = ("tofino", "ipu")
WORKLOADS = (
    "table3-direct", "table3-keysplit", "portfolio-jobs2", "serve-zipf",
)

# The only Table-3 family whose transition key is wider than the device
# window, so the compiler must split keys (auxiliary states) to fit it.
KEYSPLIT_BASE = "large_tran_key"

# The keysplit workload keeps three rows, so two passes fit the time
# budget: the Tofino base row (140k clauses, 2 budgets refuted), Tofino
# +R4 (the hand-split key, 70k clauses) and IPU +R4 (265k clauses, 11
# budgets refuted).  +R1 +R4 prepares exactly the base row's spec; the
# other rows take 7 s (Tofino +R3 +R4) and 10-32 s (IPU) on a 2-core x86
# container.
KEYSPLIT_ROWS = {
    "tofino": ((), ("+R4",)),
    "ipu": (("+R4",),),
}

# Sai V2's 1.4-2 s compiles are synthesis-bound; the portfolio workload
# keeps the sub-second rows, where pool start-up and arm shipping dominate.
PORTFOLIO_SKIP = (KEYSPLIT_BASE, "sai_v2")

# Serve: families whose rows all compile in well under 0.1 s, so one
# service start plus cache warm stays short enough to repeat per run.
SERVE_BASES = (
    "parse_ethernet", "parse_icmp", "multi_key_diff", "pure_extraction",
)
SERVE_RATE = 25.0          # requests per second, Poisson arrivals
SERVE_MISS_SHARE = 0.05    # requests carrying a fresh compile seed
SERVE_MISS_SEED = 1        # the "fresh" CompileOptions.seed of a miss
SERVE_TENANTS = 4
ZIPF_S = 1.0

# A compile workload runs one pass per this many seconds of --seconds
# (at least one).  A pass takes about 12 s (direct), 11 s (keysplit) and
# 7 s (portfolio) on a 2-core x86 container.
SECONDS_PER_PASS = 10.0

Row = Tuple[str, object]       # (device name, repro.benchgen.Benchmark)


def row_key(device: str, bench) -> str:
    return f"{device}/{bench.row_label}"


def rows_for(workload: str) -> List[Row]:
    """The workload's row set in canonical order (device, then Table 3)."""
    from repro.benchgen import TABLE3_ROWS

    out: List[Row] = []
    for device in DEVICES:
        for bench in TABLE3_ROWS:
            if workload == "table3-direct":
                keep = bench.base != KEYSPLIT_BASE
            elif workload == "portfolio-jobs2":
                keep = bench.base not in PORTFOLIO_SKIP
            elif workload == "table3-keysplit":
                keep = (bench.base == KEYSPLIT_BASE
                        and bench.mutations in KEYSPLIT_ROWS[device])
            elif workload == "serve-zipf":
                keep = bench.base in SERVE_BASES
            else:
                raise ValueError(f"unknown workload {workload!r}")
            if keep:
                out.append((device, bench))
    return out


def pass_order(rows: List[Row], workload: str, seed: int, index: int
               ) -> List[Row]:
    """Pass ``index``'s seeded shuffle of ``rows``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    order = list(rows)
    rng.shuffle(order)
    return order


def passes_for(workload: str, seconds: float) -> int:
    if workload == "serve-zipf":
        return 1
    return max(1, round(seconds / SECONDS_PER_PASS))


@dataclass(frozen=True)
class Request:
    offset_s: float     # due time, seconds after the timed phase starts
    row: int            # index into the serve row set
    tenant: str
    miss: bool          # carries CompileOptions.seed=SERVE_MISS_SEED


def serve_schedule(num_rows: int, seed: int, seconds: float
                   ) -> List[Request]:
    """An open-loop request schedule of ``seconds * SERVE_RATE`` requests.

    Hits draw a row Zipf(s=1) over a seeded permutation of the row set.
    Misses are evenly spaced from a seeded phase, and each names a
    distinct row.  So with one miss per row (the default size) every run
    compiles the same rows, and misses never queue behind each other by
    chance of the draw."""
    rng = random.Random(f"serve-zipf:{seed}")
    count = max(1, round(seconds * SERVE_RATE))
    misses = min(num_rows, max(1, round(count * SERVE_MISS_SHARE)))
    ranked = rng.sample(range(num_rows), num_rows)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(num_rows)]
    hits = rng.choices(ranked, weights=weights, k=count)
    miss_rows = iter(rng.sample(range(num_rows), misses))
    spacing = count / misses
    phase = rng.random() * spacing
    miss_at = {int(phase + k * spacing) for k in range(misses)}
    out: List[Request] = []
    offset = 0.0
    for i in range(count):
        offset += rng.expovariate(SERVE_RATE)
        miss = i in miss_at
        out.append(Request(
            offset_s=offset,
            row=next(miss_rows) if miss else hits[i],
            tenant=f"tenant-{i % SERVE_TENANTS}",
            miss=miss,
        ))
    return out


def load_expected() -> Dict[str, Tuple[int, int]]:
    """``row key -> (entries, stages)`` from expected.json."""
    doc = json.loads(EXPECTED_PATH.read_text())
    return {
        f"{device}/{label}": (answer["entries"], answer["stages"])
        for device, rows in doc.items()
        for label, answer in rows.items()
    }
