"""Compile-speed benchmark: SAT hot-path speedup vs the PR-4 baseline.

PR 5 flattened the SAT solver's hot path (clause arena + lazy watcher
maintenance), added SatELite preprocessing for the standalone DIMACS
path, and hash-conses bit-blasted gates.  This benchmark measures the
end-to-end effect on the compile pipeline against the **checked-in**
``BENCH_pr4.json`` baseline: each case's reuse-on wall clock is compared
to the same case's recorded PR-4 reuse-on wall, and ``--check`` requires
the geomean of those per-case speedups to clear the target — with the
per-case resource counts (entries/stages) and statuses *identical* to
the baseline, so the speedup cannot come from changed answers.

The PR-4 reuse ON/OFF A/B is retained (the incremental engine's win is
orthogonal to the solver speedup and should survive it), as is the
bit-blaster constant-folding A/B.

The suite pins budgets (``max_extra_entries`` 0-2) and sets each case's
time slice below its winner's solve time, so every case exercises the
escalation schedule's retry path and the winning budget — and with it
the resource counts — stays deterministic across modes and PRs.

Usage::

    python benchmarks/bench_compile_speed.py [--quick] [--check]
        [--output BENCH_pr5.json] [--baseline BENCH_pr4.json] [--seed 0]
        [--pr4-tree PATH] [--certify-ab]

``--quick`` runs one repetition per case (CI perf-smoke) and relaxes the
vs-PR4 gate to a no-major-regression check (geomean >= 0.8, i.e. fail
only on a >25% slowdown — single-rep walls on shared CI runners are
noisy).  The full run uses three repetitions, reports the median, and
requires a >= 1.3x geomean speedup over the PR-4 baseline.

A recorded baseline's *absolute* walls only transfer across machines —
and across hours on a shared machine — up to the machine-speed drift,
which routinely exceeds the speedups being measured.  Wall-clock
comparisons against ``BENCH_pr4.json`` therefore serve as a regression
*guard*; the speedup *proof* is the interleaved same-machine A/B:
pass ``--pr4-tree`` pointing at a checkout of the pre-PR-5 commit
(``git worktree add --detach /tmp/pr4repo <pre-PR5-sha>``) and the
bench compiles every case on both trees in alternation, in fresh
subprocesses, under identical load — and ``--check`` then applies the
1.3x full-mode gate to that A/B's geomean instead of the recorded
walls.  Resource counts and statuses must match the recorded baseline
either way.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.benchgen.suites import benchmark_by_label  # noqa: E402
from repro.core.compiler import compile_spec  # noqa: E402
from repro.core.options import CompileOptions  # noqa: E402
from repro.hw.device import tofino_profile  # noqa: E402
from repro.smt import bitblast  # noqa: E402

# (label, key_limit, max_extra_entries, budget_time_slice).  Slices sit
# below each case's measured winner time so the schedule retries; pinned
# entry budgets keep the winner identical across modes.  The last case is
# infeasible at its budget — it measures UNSAT *retirement* speed.
SUITE = [
    ("Sai V2", 8, 0, 0.25),
    ("Finance feed", 5, 2, 0.5),
    ("Large tran key", 8, 2, 0.25),
    ("Multi-keys (diff pkt fields)", 4, 0, 0.1),
    ("Dash V2", 4, 0, 0.05),
    ("Sai V1", 8, 0, 0.05),
    ("Multi-key (same pkt field)", 4, 0, 0.25),
]

# Constant folding at the *gate* level only matters where constants
# reach the bit-blaster unfolded.  The default compile path (§6.4
# constant synthesis) matches candidate constants concretely, so the A/B
# runs the paper's ablation arm (opt4 off): its free value/mask encoding
# floods the blaster with per-bit constant AND inputs.
FOLD_CASE = ("Multi-keys (diff pkt fields)", 6)

DEFAULT_BASELINE = REPO_ROOT / "BENCH_pr4.json"

# Geomean of per-case (pr4 reuse-on wall / current reuse-on wall).
VS_PR4_TARGET_FULL = 1.3
VS_PR4_TARGET_QUICK = 0.8  # fail only on a >25% regression

# Certified compiles (DRAT logging in every CEGIS solver) may cost at
# most this much end-to-end; the default path has logging off entirely.
CERTIFY_OVERHEAD_LIMIT = 1.10

def _options(reuse: bool, extra: int, tslice: float,
             seed: int, certify: bool = False) -> CompileOptions:
    return CompileOptions(
        test_reuse=reuse,
        seed=seed,
        # Paper-fidelity seeding (one random test): counterexamples carry
        # the run, which is the regime incremental reuse targets.
        directed_seed_tests=False,
        total_max_seconds=120,
        budget_time_slice=tslice,
        max_extra_entries=extra,
        certify=certify,
    )


def _run_case(label: str, kl: int, extra: int, tslice: float,
              reuse: bool, reps: int, seed: int) -> Dict[str, Any]:
    spec = benchmark_by_label(label).spec()
    device = tofino_profile(key_limit=kl)
    walls: List[float] = []
    result = None
    for _ in range(reps):
        t0 = time.monotonic()
        result = compile_spec(spec, device, _options(reuse, extra,
                                                     tslice, seed))
        walls.append(time.monotonic() - t0)
    stats = result.stats
    return {
        "status": result.status,
        "wall_seconds": statistics.median(walls),
        "wall_all": [round(w, 4) for w in walls],
        "cegis_iterations": stats.cegis_iterations,
        "sat_conflicts": stats.sat_conflicts,
        "sat_clauses_added": stats.sat_clauses_added,
        "sat_gate_cache_hits": stats.sat_gate_cache_hits,
        "pool_tests_reused": stats.pool_tests_reused,
        "warm_resumes": stats.warm_resumes,
        "budget_retries": stats.budget_retries,
        "entries": result.num_entries if result.program else None,
        "stages": result.num_stages if result.program else None,
    }


def _ablation_compile(seed: int) -> Dict[str, Any]:
    """One compile of FOLD_CASE under whatever bitblast module flags the
    caller has set; reports the answer-relevant fields."""
    label, kl = FOLD_CASE
    spec = benchmark_by_label(label).spec()
    device = tofino_profile(key_limit=kl)
    opts = CompileOptions(
        test_reuse=True,
        seed=seed,
        directed_seed_tests=False,
        total_max_seconds=120,
        budget_time_slice=30.0,
        opt4_constant_synthesis=False,
    )
    result = compile_spec(spec, device, opts)
    return {
        "status": result.status,
        "sat_clauses_added": result.stats.sat_clauses_added,
        "sat_gate_cache_hits": result.stats.sat_gate_cache_hits,
        "entries": result.num_entries if result.program else None,
    }


def _ab_summary(out: Dict[str, Any], on_key: str, off_key: str) -> None:
    on, off = out[on_key], out[off_key]
    out["clause_reduction"] = (
        1.0 - on["sat_clauses_added"] / off["sat_clauses_added"]
        if off["sat_clauses_added"] else 0.0
    )
    out["same_status"] = on["status"] == off["status"]
    out["same_entries"] = on["entries"] == off["entries"]


# Child script for the same-machine A/B: one warm-up compile, one timed
# compile, stats on stdout as JSON.  Run in a fresh interpreter per rep
# so neither tree's module caches or interned terms leak into the other.
_AB_CHILD = r'''
import json, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
from repro.benchgen.suites import benchmark_by_label
from repro.core.compiler import compile_spec
from repro.core.options import CompileOptions
from repro.hw.device import tofino_profile
label, kl, extra, tslice, seed = (
    sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), float(sys.argv[5]),
    int(sys.argv[6]))
spec = benchmark_by_label(label).spec()
device = tofino_profile(key_limit=kl)
def opts():
    return CompileOptions(test_reuse=True, seed=seed,
                          directed_seed_tests=False, total_max_seconds=120,
                          budget_time_slice=tslice, max_extra_entries=extra)
compile_spec(spec, device, opts())  # warm-up (imports, pyc, caches)
t0 = time.perf_counter()
result = compile_spec(spec, device, opts())
print(json.dumps({
    "wall": time.perf_counter() - t0,
    "status": result.status,
    "entries": result.num_entries if result.program else None,
    "stages": result.num_stages if result.program else None,
}))
'''


def _run_pr4_same_machine_ab(
    pr4_tree: Path, seed: int, reps: int
) -> Dict[str, Any]:
    """Interleaved A/B against a pre-PR-5 checkout on this machine.

    Each rep compiles every case once per tree, alternating trees
    case-by-case, so both sides see the same load profile; walls are
    medians (and mins) over reps of fresh-subprocess compiles."""
    import subprocess

    walls: Dict[str, Dict[str, List[float]]] = {
        t: {c[0]: [] for c in SUITE} for t in ("pr4", "pr5")
    }
    answers: Dict[str, Dict[str, Any]] = {"pr4": {}, "pr5": {}}
    trees = {"pr5": str(REPO_ROOT), "pr4": str(pr4_tree)}
    for _rep in range(reps):
        for label, kl, extra, tslice in SUITE:
            for tree, path in trees.items():
                proc = subprocess.run(
                    [sys.executable, "-c", _AB_CHILD, path, label,
                     str(kl), str(extra), str(tslice), str(seed)],
                    capture_output=True, text=True, check=True)
                doc = json.loads(proc.stdout.strip().splitlines()[-1])
                walls[tree][label].append(doc["wall"])
                answers[tree][label] = (
                    doc["status"], doc["entries"], doc["stages"])
    cases = []
    logs_med: List[float] = []
    logs_min: List[float] = []
    for label, *_ in SUITE:
        w4, w5 = walls["pr4"][label], walls["pr5"][label]
        med = statistics.median(w4) / statistics.median(w5)
        mn = min(w4) / min(w5)
        logs_med.append(math.log(max(med, 1e-9)))
        logs_min.append(math.log(max(mn, 1e-9)))
        cases.append({
            "case": label,
            "pr4_walls": [round(w, 4) for w in w4],
            "pr5_walls": [round(w, 4) for w in w5],
            "speedup_median": round(med, 4),
            "speedup_min": round(mn, 4),
            "same_answer": answers["pr4"][label] == answers["pr5"][label],
        })
    return {
        "pr4_tree": str(pr4_tree),
        "reps": reps,
        "cases": cases,
        "geomean_median": round(
            math.exp(sum(logs_med) / len(logs_med)), 4),
        "geomean_min": round(math.exp(sum(logs_min) / len(logs_min)), 4),
        "same_answers": all(c["same_answer"] for c in cases),
    }


def _run_fold_ab(seed: int) -> Dict[str, Any]:
    """Constant-folding A/B on one case: clause counts with gate folding
    on vs off, same compile otherwise.  Toggles the module flag so every
    solver the compile builds inherits the setting.  The gate cache is
    disabled for BOTH arms: it deduplicates exactly the constant-heavy
    repeated structure that folding collapses, so with the cache on the
    fold-off arm recovers nearly all of folding's savings and the A/B
    would measure the cache, not folding."""
    label, _ = FOLD_CASE
    out: Dict[str, Any] = {"case": label, "opt4_constant_synthesis": False}
    saved_fold, saved_cache = bitblast.FOLD_CONSTANTS, bitblast.GATE_CACHE
    try:
        bitblast.GATE_CACHE = False
        for fold in (True, False):
            bitblast.FOLD_CONSTANTS = fold
            out["fold_on" if fold else "fold_off"] = _ablation_compile(seed)
    finally:
        bitblast.FOLD_CONSTANTS = saved_fold
        bitblast.GATE_CACHE = saved_cache
    _ab_summary(out, "fold_on", "fold_off")
    return out


def _run_gate_cache_ab(seed: int) -> Dict[str, Any]:
    """Gate-cache A/B on the same case, with folding OFF in both arms so
    the cache sees the repeated constant-substituted structure the
    default compile path never leaves behind.  Measures the hash-consing
    layer's own clause reduction and checks it changes no answer."""
    label, _ = FOLD_CASE
    out: Dict[str, Any] = {"case": label, "fold_constants": False}
    saved_fold, saved_cache = bitblast.FOLD_CONSTANTS, bitblast.GATE_CACHE
    try:
        bitblast.FOLD_CONSTANTS = False
        for cache in (True, False):
            bitblast.GATE_CACHE = cache
            out["cache_on" if cache else "cache_off"] = _ablation_compile(seed)
    finally:
        bitblast.FOLD_CONSTANTS = saved_fold
        bitblast.GATE_CACHE = saved_cache
    _ab_summary(out, "cache_on", "cache_off")
    out["cache_hits"] = out["cache_on"]["sat_gate_cache_hits"]
    return out


def _run_certify_ab(seed: int, reps: int) -> Dict[str, Any]:
    """Interleaved certify on/off A/B over the whole suite.

    ``certify=True`` turns on DRAT proof logging in every CEGIS solver
    (one append per derived clause); with no cache/checkpoint directory
    nothing is persisted, so the A/B isolates the logging overhead from
    IO.  Arms alternate case-by-case so both see the same machine load;
    per-case overhead is median(certified)/median(plain) and the gate
    (``--check``) requires the geomean to stay <= CERTIFY_OVERHEAD_LIMIT
    with identical answers.
    """
    walls: Dict[str, Dict[str, List[float]]] = {
        arm: {c[0]: [] for c in SUITE} for arm in ("certify", "plain")
    }
    answers: Dict[str, Dict[str, Any]] = {"certify": {}, "plain": {}}
    for _rep in range(reps):
        for label, kl, extra, tslice in SUITE:
            spec = benchmark_by_label(label).spec()
            device = tofino_profile(key_limit=kl)
            if _rep == 0:
                # Untimed warm-up so the first timed arm doesn't absorb
                # cold caches (imports, interned terms, pyc loads).
                compile_spec(spec, device,
                             _options(True, extra, tslice, seed))
            arms = [("certify", True), ("plain", False)]
            if _rep % 2:
                arms.reverse()        # neither arm always goes first
            for arm, certify in arms:
                t0 = time.monotonic()
                result = compile_spec(
                    spec, device,
                    _options(True, extra, tslice, seed, certify=certify))
                walls[arm][label].append(time.monotonic() - t0)
                answers[arm][label] = (
                    result.status,
                    result.num_entries if result.program else None,
                    result.num_stages if result.program else None,
                )
    cases = []
    logs: List[float] = []
    for label, *_ in SUITE:
        wc = walls["certify"][label]
        wp = walls["plain"][label]
        overhead = (
            statistics.median(wc) / statistics.median(wp)
            if statistics.median(wp) else 1.0
        )
        logs.append(math.log(max(overhead, 1e-9)))
        cases.append({
            "case": label,
            "certify_walls": [round(w, 4) for w in wc],
            "plain_walls": [round(w, 4) for w in wp],
            "overhead": round(overhead, 4),
            "same_answer": answers["certify"][label]
            == answers["plain"][label],
        })
        print(
            f"{label:30s} certify={statistics.median(wc):6.2f}s "
            f"plain={statistics.median(wp):6.2f}s "
            f"x{overhead:.3f}",
            flush=True,
        )
    return {
        "reps": reps,
        "cases": cases,
        "geomean_overhead": round(
            math.exp(sum(logs) / len(logs)), 4),
        "same_answers": all(c["same_answer"] for c in cases),
    }


def _load_baseline(path: Path) -> Optional[Dict[str, Dict[str, Any]]]:
    """Checked-in PR-4 reuse-on rows keyed by case label, or None."""
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    return {c["case"]: c["reuse_on"] for c in data.get("cases", [])}


def run_bench(quick: bool = False, seed: int = 0,
              baseline_path: Path = DEFAULT_BASELINE,
              pr4_tree: Optional[Path] = None,
              certify_ab: bool = False) -> Dict[str, Any]:
    reps = 1 if quick else 3
    baseline = _load_baseline(baseline_path)
    cases = []
    for label, kl, extra, tslice in SUITE:
        row: Dict[str, Any] = {
            "case": label, "key_limit": kl,
            "max_extra_entries": extra, "time_slice": tslice,
        }
        row["reuse_on"] = _run_case(label, kl, extra, tslice, True,
                                    reps, seed)
        row["reuse_off"] = _run_case(label, kl, extra, tslice, False,
                                     reps, seed)
        on, off = row["reuse_on"], row["reuse_off"]
        row["speedup"] = (
            off["wall_seconds"] / on["wall_seconds"]
            if on["wall_seconds"] else 0.0
        )
        base = baseline.get(label) if baseline else None
        if base:
            row["pr4_wall_seconds"] = base["wall_seconds"]
            row["vs_pr4"] = (
                base["wall_seconds"] / on["wall_seconds"]
                if on["wall_seconds"] else 0.0
            )
            row["pr4_resources_identical"] = (
                on["entries"] == base["entries"]
                and on["stages"] == base["stages"]
                and on["status"] == base["status"]
            )
        vs = f" pr4 x{row['vs_pr4']:.2f}" if base else ""
        cases.append(row)
        print(
            f"{label:30s} on={on['wall_seconds']:6.2f}s "
            f"it={on['cegis_iterations']:3d} "
            f"warm={on['warm_resumes']} | "
            f"off={off['wall_seconds']:6.2f}s "
            f"it={off['cegis_iterations']:3d} | "
            f"x{row['speedup']:.2f}{vs}",
            flush=True,
        )
    geomean = math.exp(
        sum(math.log(max(c["speedup"], 1e-9)) for c in cases) / len(cases)
    )
    with_base = [c for c in cases if "vs_pr4" in c]
    geomean_vs_pr4 = (
        math.exp(sum(math.log(max(c["vs_pr4"], 1e-9)) for c in with_base)
                 / len(with_base))
        if with_base else None
    )
    its_on = sum(c["reuse_on"]["cegis_iterations"] for c in cases)
    its_off = sum(c["reuse_off"]["cegis_iterations"] for c in cases)
    fold = _run_fold_ab(seed)
    gate = _run_gate_cache_ab(seed)
    same_machine = (
        _run_pr4_same_machine_ab(pr4_tree, seed, reps)
        if pr4_tree is not None else None
    )
    certify = _run_certify_ab(seed, reps) if certify_ab else None
    report = {
        "bench": "bench_compile_speed",
        "pr": 5,
        "quick": quick,
        "seed": seed,
        "reps": reps,
        "baseline": str(baseline_path.name) if baseline else None,
        "cases": cases,
        "fold_constants_ab": fold,
        "gate_cache_ab": gate,
        "pr4_same_machine": same_machine,
        "certify_ab": certify,
        "summary": {
            "geomean_speedup": round(geomean, 4),
            "geomean_vs_pr4": (
                round(geomean_vs_pr4, 4)
                if geomean_vs_pr4 is not None else None
            ),
            "total_iterations_reuse_on": its_on,
            "total_iterations_reuse_off": its_off,
            "resources_identical": all(
                c["reuse_on"]["entries"] == c["reuse_off"]["entries"]
                and c["reuse_on"]["stages"] == c["reuse_off"]["stages"]
                and c["reuse_on"]["status"] == c["reuse_off"]["status"]
                for c in cases
            ),
            "pr4_resources_identical": all(
                c.get("pr4_resources_identical", False) for c in with_base
            ) if with_base else None,
            "gate_cache_hits_total": sum(
                c["reuse_on"]["sat_gate_cache_hits"] for c in cases
            ),
            "clause_reduction_fold": round(fold["clause_reduction"], 4),
            "clause_reduction_gate_cache": round(
                gate["clause_reduction"], 4
            ),
            "geomean_vs_pr4_same_machine": (
                same_machine["geomean_median"]
                if same_machine is not None else None
            ),
            "certify_overhead": (
                certify["geomean_overhead"]
                if certify is not None else None
            ),
        },
    }
    return report


def check_report(report: Dict[str, Any]) -> List[str]:
    """Acceptance assertions; returns a list of failure strings."""
    s = report["summary"]
    failures = []
    same_machine = report.get("pr4_same_machine")
    if same_machine is not None:
        # Apples-to-apples run against a pre-PR-5 checkout: the full
        # speedup gate applies to it; the recorded baseline then only
        # needs to clear the cross-machine regression guard.
        if same_machine["geomean_median"] < VS_PR4_TARGET_FULL:
            failures.append(
                f"same-machine geomean vs PR4 "
                f"{same_machine['geomean_median']:.3f} < {VS_PR4_TARGET_FULL}"
            )
        if not same_machine["same_answers"]:
            failures.append("same-machine A/B answers differ from PR4")
        target = VS_PR4_TARGET_QUICK
    else:
        target = (
            VS_PR4_TARGET_QUICK if report["quick"] else VS_PR4_TARGET_FULL
        )
    if report["baseline"] is None:
        failures.append("baseline BENCH_pr4.json not found")
    elif s["geomean_vs_pr4"] < target:
        failures.append(
            f"geomean vs PR4 {s['geomean_vs_pr4']:.3f} < {target}"
        )
    elif s["pr4_resources_identical"] is not True:
        failures.append(
            "resource counts or statuses differ from the PR4 baseline"
        )
    if s["total_iterations_reuse_on"] >= s["total_iterations_reuse_off"]:
        failures.append(
            f"reuse-on iterations {s['total_iterations_reuse_on']} not "
            f"strictly fewer than {s['total_iterations_reuse_off']}"
        )
    if not s["resources_identical"]:
        failures.append("resource counts differ between reuse modes")
    fold = report["fold_constants_ab"]
    if fold["clause_reduction"] <= 0:
        failures.append("constant folding did not reduce emitted clauses")
    if not (fold["same_status"] and fold["same_entries"]):
        failures.append("constant folding changed a compile answer")
    gate = report["gate_cache_ab"]
    if gate["clause_reduction"] <= 0:
        failures.append("gate cache did not reduce emitted clauses")
    if not (gate["same_status"] and gate["same_entries"]):
        failures.append("gate cache changed a compile answer")
    certify = report.get("certify_ab")
    if certify is not None:
        if certify["geomean_overhead"] > CERTIFY_OVERHEAD_LIMIT:
            failures.append(
                f"certify overhead x{certify['geomean_overhead']:.3f} > "
                f"x{CERTIFY_OVERHEAD_LIMIT}"
            )
        if not certify["same_answers"]:
            failures.append("proof logging changed a compile answer")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="single repetition per case (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless acceptance criteria hold")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_pr5.json"))
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="checked-in PR4 report to compare against")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pr4-tree", default=None,
                        help="checkout of the pre-PR-5 commit; enables the "
                             "interleaved same-machine A/B (see module doc)")
    parser.add_argument("--certify-ab", action="store_true",
                        help="also run the interleaved certify on/off A/B "
                             "(proof-logging overhead must stay <= "
                             f"{CERTIFY_OVERHEAD_LIMIT}x with --check)")
    args = parser.parse_args(argv)

    report = run_bench(quick=args.quick, seed=args.seed,
                       pr4_tree=Path(args.pr4_tree) if args.pr4_tree else None,
                       baseline_path=Path(args.baseline),
                       certify_ab=args.certify_ab)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    s = report["summary"]
    vs = (
        f"{s['geomean_vs_pr4']:.3f}" if s["geomean_vs_pr4"] is not None
        else "n/a"
    )
    print(
        f"\ngeomean vs PR4 {vs}  reuse on/off {s['geomean_speedup']:.3f}  "
        f"iterations {s['total_iterations_reuse_on']} vs "
        f"{s['total_iterations_reuse_off']}  "
        f"resources_identical={s['resources_identical']}  "
        f"pr4_resources_identical={s['pr4_resources_identical']}  "
        f"fold clause reduction "
        f"{100 * s['clause_reduction_fold']:.1f}%  "
        f"gate-cache clause reduction "
        f"{100 * s['clause_reduction_gate_cache']:.1f}%"
    )
    if report["pr4_same_machine"] is not None:
        sm = report["pr4_same_machine"]
        print(
            f"same-machine vs PR4: geomean median "
            f"x{sm['geomean_median']:.3f}  min x{sm['geomean_min']:.3f}  "
            f"same_answers={sm['same_answers']}"
        )
    if report["certify_ab"] is not None:
        cab = report["certify_ab"]
        print(
            f"certify A/B: geomean overhead x{cab['geomean_overhead']:.3f} "
            f"(limit x{CERTIFY_OVERHEAD_LIMIT})  "
            f"same_answers={cab['same_answers']}"
        )
    print(f"wrote {args.output}")
    if args.check:
        failures = check_report(report)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
