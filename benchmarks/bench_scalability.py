"""§8 scalability observation: compile time grows steeply with spec
complexity (state count / search-space size).

The paper notes "an exponential increase of compilation time when the
parser spec becomes more complex" and proposes divide-and-conquer as
future work.  This sweep compiles synthetic layered parsers of growing
state count and records the trend (it must be monotone-ish and the search
space strictly growing).

A second sweep scales the *worker* axis: the same Table-3 rows compiled
through the process portfolio at 1/2/4/8 workers.  Its invariant is
correctness, not speed (this harness may run on a single core): the
winner's status and resource counts must be identical at every worker
count — the pool is not allowed to change answers.  Wall clocks are
recorded in the report for machines where the sweep is meaningful."""

from __future__ import annotations

import pytest

from repro.core import CompileOptions, compile_spec, portfolio_compile
from repro.harness.table3 import TOFINO

SIZES = [2, 3, 4, 6]

_RESULTS = []


def chain_spec(num_states: int):
    """A deterministic dispatch chain: state i keys on its own 4-bit field
    with two exact arms (continue / accept) plus a default reject."""
    from repro.ir import parse_spec

    lines = []
    fields = "; ".join(f"f{i} : 4" for i in range(num_states))
    lines.append(f"header h {{ {fields}; }}")
    lines.append(f"parser Scale{num_states} {{")
    for i in range(num_states):
        name = "start" if i == 0 else f"s{i}"
        succ = f"s{i + 1}" if i + 1 < num_states else "accept"
        lines.append(f"    state {name} {{")
        lines.append(f"        extract(h.f{i});")
        lines.append(f"        transition select(h.f{i}) {{")
        lines.append(f"            {5 + i} : {succ};")
        lines.append(f"            {10 + i} : accept;")
        lines.append("            default : reject;")
        lines.append("        }")
        lines.append("    }")
    lines.append("}")
    return parse_spec("\n".join(lines))


@pytest.mark.parametrize("num_states", SIZES)
def test_scalability_sweep(benchmark, num_states):
    spec = chain_spec(num_states)

    def run():
        return compile_spec(spec, TOFINO)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.ok, result.message
    _RESULTS.append(
        (num_states, result.stats.total_seconds,
         result.stats.search_space_bits, result.num_entries)
    )


def test_scalability_report(benchmark, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(_RESULTS) == len(SIZES)
    lines = ["Scalability sweep (synthetic layered parsers, Tofino profile)",
             "  states | compile (s) | search space (bits) | entries"]
    for states, seconds, bits, entries in _RESULTS:
        lines.append(
            f"  {states:6d} | {seconds:11.2f} | {bits:19d} | {entries}"
        )
    text = "\n".join(lines)
    report("scalability", text)
    print()
    print(text)
    # The search space grows monotonically with the chain length.
    bits = [b for _s, _t, b, _e in _RESULTS]
    assert bits == sorted(bits) and bits[-1] > bits[0]


# -- worker-count sweep (Table-3 rows through the process portfolio) ----

WORKER_COUNTS = [1, 2, 4, 8]

# Fast Table-3 rows (every arm terminates quickly) so the sweep measures
# pool behaviour, not solver tail latency.
SWEEP_ROWS = ["Parse icmp", "Geneve tunnel", "Multi-key (same pkt field)"]

_SWEEP = []


def _sweep_options(workers: int) -> CompileOptions:
    return CompileOptions(
        parallel_workers=workers,
        total_max_seconds=120,
        seed=5,
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("label", SWEEP_ROWS)
def test_worker_sweep(benchmark, label, workers):
    from repro.benchgen import benchmark_by_label

    spec = benchmark_by_label(label).spec()

    def run():
        return portfolio_compile(spec, TOFINO, _sweep_options(workers))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.ok, f"{label} @ {workers} workers: {result.message}"
    _SWEEP.append(
        (workers, label, result.status, result.num_entries,
         result.num_stages)
    )


def test_worker_sweep_report(benchmark, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(_SWEEP) == len(WORKER_COUNTS) * len(SWEEP_ROWS)
    by_workers = {
        w: sorted((r[1:]) for r in _SWEEP if r[0] == w)
        for w in WORKER_COUNTS
    }
    lines = ["Worker sweep (process portfolio, Table-3 rows, Tofino profile)",
             "  workers | per-row (status, entries, stages)"]
    for workers in WORKER_COUNTS:
        cells = ", ".join(
            f"{r[1]}/{r[2]}e/{r[3]}s" for r in by_workers[workers]
        )
        lines.append(f"  {workers:7d} | {cells}")
    text = "\n".join(lines)
    report("worker_sweep", text)
    print()
    print(text)
    # Winner identity across the whole sweep: every worker count agrees
    # on status and resource counts, row by row.
    baseline = by_workers[WORKER_COUNTS[0]]
    for workers in WORKER_COUNTS[1:]:
        assert by_workers[workers] == baseline, (
            f"answers changed at {workers} workers: "
            f"{by_workers[workers]} != {baseline}"
        )
