#!/usr/bin/env python3
"""Phase ledger: one outside-in benchmark over the Table-3 rows, the
``--jobs 2`` portfolio and the compile service.

    python3 benchmarks/ledger/run.py --workload table3-direct --seed 1 \\
        --seconds 20 --trace 0 [--record LEDGER.json] [--against PRIOR.json]

Run from the repository root.  A human-readable report goes to stderr; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs one untraced and
one traced pass of the same rows and reports the per-layer metrics.
Every pass runs in a fresh interpreter (``worker.py``), one at a time.
See README.md for the metrics, workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers      # noqa: E402
import workloads   # noqa: E402

SETUP_SAMPLES = 3        # set-up time is the median of this many set-ups
RUN_BUDGET_S = 170.0     # the whole run, every worker included

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("suite_s", "s"),
    ("geomean_s", "s"),
    ("tcam_entries_sum", "count"),
    ("stages_sum", "count"),
    ("peak_rss_mb", "MB"),
)

# Call counts reported per layer: (metric, wrapped target).
CALL_METRICS = (
    ("skeleton.calls", "repro.core.compiler:build_skeleton"),
    ("encoder.tests_encoded",
     "repro.core.encoder:SymbolicProgram.encode_test"),
    ("cdcl.solves", "repro.smt.sat.solver:SatSolver.solve"),
    ("verify.calls", "repro.core.cegis:verify_equivalent"),
)

# CompileStats sums over the untraced pass: (metric, field).
STATS_METRICS = (
    ("cegis.iterations", "cegis_iterations"),
    ("cegis.counterexamples", "counterexamples"),
    ("budget.tried", "budgets_tried"),
    ("budget.retired", "budgets_retired"),
    ("budget.retries", "budget_retries"),
    ("sat.conflicts", "sat_conflicts"),
    ("sat.propagations", "sat_propagations"),
    ("sat.decisions", "sat_decisions"),
    ("sat.clauses", "sat_clauses_added"),
    ("sat.gate_cache_hits", "sat_gate_cache_hits"),
    ("pool.tests_reused", "pool_tests_reused"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple((f"{layer}.self_s", "s") for layer in layers.LAYERS)
    + tuple((name, "count") for name, _target in CALL_METRICS)
    + (("trace.overhead", "ratio"), ("trace.coverage", "ratio"),
       ("trace.layers_absent", "count"))
    + tuple((name, "count") for name, _field in STATS_METRICS)
    + (("budget.useful_ratio", "ratio"),
       ("serve.hit_p50_s", "s"), ("serve.miss_p50_s", "s"),
       ("serve.p99_s", "s"), ("serve.queue_wait_p50_s", "s"),
       ("serve.coalesced", "count"), ("cache.hit_ratio", "ratio"),
       ("loadgen.late_p99_s", "s"), ("portfolio.overhead_s", "s"),
       ("portfolio.units_stolen", "count"),
       ("tests.pool_shared_in", "count"))
)

# Layers that must record calls in a traced pass of each workload; zero
# calls means a wrapper no longer sees the work and the run fails.
COMPILE_LAYERS = (
    "parse", "prepare_spec", "skeleton", "encoder", "tests", "bitblast",
    "model", "cdcl", "verify", "verify_final", "postopt", "codegen",
)
MUST_FIRE = {
    "table3-direct": COMPILE_LAYERS,
    "table3-keysplit": COMPILE_LAYERS,
    # Compiles run in the portfolio's worker processes, out of reach.
    "portfolio-jobs2": ("parse", "codegen"),
    "serve-zipf": ("parse", "encoder", "cdcl", "verify", "cache.lookup",
                   "cache.store", "journal", "serve.submit"),
}


class WorkerFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------

def run_worker(args, mode: str, index: int, work: Path, deadline: float
               ) -> dict:
    """One worker interpreter in its own session; every process it leaves
    behind is killed and waited for before this returns."""
    out = work / f"{mode}-{index}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"          # same dict/set order every pass
    env["TMPDIR"] = str(work / "tmp")    # scratch dirs stay in the checkout
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--index", str(index),
        "--mode", mode, "--work", str(work), "--out", str(out),
    ]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(spawned_at)],
        env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        reap_session(proc)
    if code != 0 or not out.exists():
        why = "timed out" if code is None else f"exited {code}"
        raise WorkerFailed(f"{mode} pass {index} {why}")
    return json.loads(out.read_text())


def reap_session(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the worker's session and wait until it
    is gone (portfolio pools and managers are grandchildren)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def latencies(ops: List[dict]) -> List[float]:
    return [op["latency_s"] for op in ops if "latency_s" in op]


def tail(values: List[float]) -> float:
    """The highest percentile with ten samples above it (the maximum
    when there are fewer than eleven samples)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def percentile(values: List[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_samples(workload: str, passes: List[dict]) -> List[float]:
    """One sample per request on serve; on the compile workloads one per
    row, its fastest compile over the passes.  Neighbours on a shared
    machine only ever add time, so a row's minimum is its steadiest
    reading."""
    if workload == "serve-zipf":
        return latencies([op for p in passes for op in p["ops"]])
    return [min(v) for v in row_samples(passes).values()]


def largest_rss_mb(workload: str, passes: List[dict]) -> float:
    """The serve process's peak; on the compile workloads the largest
    row's peak (its process and the portfolio's pool), each row at the
    smaller of its passes — pool processes race, so memory varies the
    same way time does."""
    if workload == "serve-zipf":
        return max(p["rss_mb"] for p in passes)
    return max(min(v) for v in row_samples(passes, "rss_mb").values())


def end_to_end(workload: str, passes: List[dict], setups: List[float]
               ) -> Dict[str, float]:
    samples = latency_samples(workload, passes)
    answers = passes[0]["answers"]
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(samples),
        "latency_tail_s": tail(samples),
        "suite_s": sum(samples),
        "geomean_s": math.exp(statistics.fmean(map(math.log, samples))),
        "tcam_entries_sum": sum(a[0] for a in answers.values()),
        "stages_sum": sum(a[1] for a in answers.values()),
        "peak_rss_mb": largest_rss_mb(workload, passes),
    }


def per_layer(workload: str, untraced: dict, traced: dict
              ) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer metrics plus run-level failures (layers that
    should have fired but recorded no calls)."""
    trace = traced["trace"]
    self_s, calls = trace["self_s"], trace["calls"]
    metrics: Dict[str, float] = {
        f"{layer}.self_s": self_s.get(layer, 0.0) for layer in layers.LAYERS
    }
    for name, target in CALL_METRICS:
        metrics[name] = calls.get(target, 0)
    wall = trace["wall_s"]
    named = sum(v for k, v in self_s.items() if k != layers.OTHER)
    metrics["trace.overhead"] = (
        sum(latencies(traced["ops"])) / sum(latencies(untraced["ops"]))
    )
    metrics["trace.coverage"] = named / wall if wall else 0.0
    metrics["trace.layers_absent"] = len(trace["absent"])

    stats = [op["stats"] for op in untraced["ops"] if "stats" in op]
    for name, field in STATS_METRICS:
        metrics[name] = sum(s.get(field, 0) for s in stats)
    attempts = metrics["budget.tried"] + metrics["budget.retries"]
    metrics["budget.useful_ratio"] = (
        (metrics["budget.retired"] + len(stats)) / attempts
        if attempts else 0.0
    )
    metrics.update(serve_extras(untraced))
    overheads = [op["overhead_s"] for op in untraced["ops"]
                 if "overhead_s" in op]
    metrics["portfolio.overhead_s"] = (
        statistics.median(overheads) if overheads else 0.0
    )
    counters = trace["counters"]
    metrics["portfolio.units_stolen"] = counters.get(
        "portfolio.units_stolen", 0)
    metrics["tests.pool_shared_in"] = counters.get("tests.pool_shared_in", 0)

    fired = defaultdict(int)
    for target, count in calls.items():
        fired[trace["layer_of"][target]] += count
    problems = [
        f"layer {layer!r} recorded no calls"
        for layer in MUST_FIRE[workload] if not fired[layer]
    ]
    return metrics, problems


def serve_extras(pass_doc: dict) -> Dict[str, float]:
    """Serve-only numbers (zero on the other workloads)."""
    ops = pass_doc["ops"]
    hits = latencies([op for op in ops if op.get("kind") == "hit"])
    misses = latencies([op for op in ops if op.get("kind") == "miss"])
    waits = [op["queue_wait_s"] for op in ops if "queue_wait_s" in op]
    late = [op["late_s"] for op in ops if "late_s" in op]
    counters = pass_doc.get("service_counters", {})
    serve = bool(late)
    return {
        "serve.hit_p50_s": statistics.median(hits) if hits else 0.0,
        "serve.miss_p50_s": statistics.median(misses) if misses else 0.0,
        "serve.p99_s": percentile(latencies(ops), 99) if serve else 0.0,
        "serve.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
        "serve.coalesced": counters.get("serve.coalesced", 0),
        # The cache warm compiles every row, so each cache hit the
        # service counts was a timed request.
        "cache.hit_ratio": (
            counters.get("serve.cache_hits", 0) / len(ops) if serve else 0.0
        ),
        "loadgen.late_p99_s": percentile(late, 99) if serve else 0.0,
    }


def row_samples(passes: List[dict], field: str = "latency_s"
                ) -> Dict[str, List[float]]:
    per_row: Dict[str, List[float]] = defaultdict(list)
    for p in passes:
        for op in p["ops"]:
            if field in op:
                per_row[op["row"]].append(op[field])
    return dict(sorted(per_row.items()))


# ---------------------------------------------------------------------------
# Comparison against a prior ledger
# ---------------------------------------------------------------------------

def compare(record: dict, prior_path: Path) -> None:
    """Print, on stderr, each metric's ratio to the prior runs' median
    with its bound, then per-row ratios, so a regression names its row
    and (on traced runs) its layer."""
    doc = json.loads(prior_path.read_text())
    prior = [
        r for r in doc.get("runs", [doc])
        if r["workload"] == record["workload"] and r["trace"] == record["trace"]
    ]
    if not prior:
        log(f"--against: {prior_path} has no {record['workload']} runs "
            f"with trace={record['trace']}")
        return
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
            "end_to_end"]
    }
    log(f"against {prior_path} ({len(prior)} prior run(s)):")
    log(f"  {'metric':28} {'prior':>12} {'now':>12} {'ratio':>7} "
        f"{'bound':>6}  verdict")
    for name, value in record["metrics"].items():
        values = [r["metrics"][name] for r in prior if name in r["metrics"]]
        if not values:
            continue
        base = statistics.median(values)
        ratio = value / base if base else None
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            spread = iqr_share(values)
            if spread > bound:
                verdict = f"unresolved (prior spread {spread:.3f})"
            elif ratio is not None and ratio > 1 + bound:
                verdict = "WORSE"
            else:
                verdict = "ok"
        log(f"  {name:28} {base:12.6g} {value:12.6g} "
            f"{'-' if ratio is None else f'{ratio:.3f}':>7} "
            f"{'' if bound is None else f'{bound:6.3f}'}  {verdict}")
    prior_rows: Dict[str, List[float]] = defaultdict(list)
    for r in prior:
        for row, samples in r.get("rows", {}).items():
            prior_rows[row].extend(samples)
    ratios = sorted(
        ((statistics.median(samples) / statistics.median(prior_rows[row]),
          row)
         for row, samples in record["rows"].items() if row in prior_rows),
        reverse=True,
    )
    log("  per-row latency ratio (now / prior median), worst first:")
    for ratio, row in ratios:
        log(f"    {ratio:7.3f}  {row}")


def iqr_share(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


# ---------------------------------------------------------------------------

def log(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Phase-ledger benchmark (see README.md)."
    )
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="append this run to a ledger JSON file")
    parser.add_argument("--against", type=Path,
                        help="compare with the runs in a prior ledger file")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        log(f"ledger: no program source at {ROOT / 'src' / 'repro'}")
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".ledger" / str(os.getpid())
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            traced = run_worker(args, "traced", 0, work, deadline)
            if "traced_ops" in traced:
                # Compile rows: the worker ran each row untraced, then
                # traced, in the same pass.
                untraced = traced
                traced = {"ops": untraced.pop("traced_ops"),
                          "trace": untraced["trace"], "failures": []}
            else:
                untraced = run_worker(args, "untraced", 0, work, deadline)
            passes = [untraced, traced]
            metrics, problems = per_layer(args.workload, untraced, traced)
            units = dict(PER_LAYER)
        else:
            count = workloads.passes_for(args.workload, args.seconds)
            probes = [
                run_worker(args, "probe", i, work, deadline)["setup_s"]
                for i in range(max(0, SETUP_SAMPLES - count))
            ]
            passes = [
                run_worker(args, "untraced", i, work, deadline)
                for i in range(count)
            ]
            metrics = end_to_end(args.workload, passes, probes + [
                p["setup_s"] for p in passes])
            problems = []
            units = dict(END_TO_END)
    except WorkerFailed as exc:
        log(f"ledger: {exc}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    ops = [op for p in passes for op in p["ops"]]
    failed_ops = [op for op in ops if op.get("failed")]
    problems += [f"{f['row']}: {f['reason']}"
                 for p in passes for f in p["failures"]]
    report(args, passes, metrics, units, failed_ops, problems)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": len(ops), "failed": len(failed_ops),
        "metrics": metrics,
        "rows": row_samples(passes if not args.trace else passes[:1]),
    }
    if args.against:
        compare(record, args.against)
    if args.record:
        ledger = (json.loads(args.record.read_text())
                  if args.record.exists() else {"runs": []})
        ledger["runs"].append(record)
        args.record.write_text(json.dumps(ledger, indent=1) + "\n")
    print(json.dumps({
        "correct": not failed_ops and not problems,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def report(args, passes, metrics, units, failed_ops, problems) -> None:
    ops = [op for p in passes for op in p["ops"]]
    log(f"ledger {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(passes)} pass(es), {len(ops)} operation(s)")
    if not args.trace:
        samples = len(latency_samples(args.workload, passes))
        tail_rank = "max" if samples < 11 else f"rank {samples - 10}"
        log(f"  latency samples: {samples}; latency_tail_s is the "
            f"{tail_rank}")
        extras = serve_extras(passes[0])
        if extras["serve.p99_s"]:
            for name, value in extras.items():
                log(f"  ({name} = {value:.6g})")
    for name, value in metrics.items():
        log(f"  {name:28} {value:14.6g} {units[name]}")
    for op in failed_ops:
        for reason in op["failed"]:
            log(f"  FAILED {op['row']}: {reason}")
    for problem in problems:
        log(f"  FAILED {problem}")


if __name__ == "__main__":
    sys.exit(main())
