"""One pass of a phase-ledger workload, in a fresh interpreter.

``run.py`` starts this script once per pass and once per extra set-up
sample; it writes one JSON document to ``--out``.  Modes:

* ``probe`` — set up, then stop (a set-up time sample);
* ``untraced`` — set up, run the timed operations, check every answer;
* ``traced`` — on serve, the same with every layer wrapped by
  :mod:`layers`; on the compile workloads, each row's untraced compile is
  followed by a traced one (``traced_ops``).

Set-up is everything from interpreter start (``--spawned-at``, a
``time.monotonic`` reading taken by the parent) to the first timed
operation: imports, workload generation and one untimed warm-up compile;
for serve, the service start and the cache warm instead of the warm-up.
On the compile workloads each row then runs in a child forked from the
set-up process (:func:`in_child`).  Answers are checked after each timed
operation, outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

import layers
import workloads

SIM_SAMPLES = 200       # random_simulation_check inputs per distinct answer
SIM_SEED = 2025
SERVE_LIMIT_S = 2.0     # a served request slower than this has failed

# CompileStats fields each operation reports (summed per pass by run.py).
STATS_FIELDS = (
    "cegis_iterations", "counterexamples", "budgets_tried",
    "budgets_retired", "budget_retries", "sat_conflicts", "sat_propagations",
    "sat_decisions", "sat_clauses_added", "sat_gate_cache_hits",
    "pool_tests_reused",
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--mode", choices=("probe", "untraced", "traced"),
                        required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


def devices() -> Dict[str, object]:
    from repro.harness.table3 import IPU, TOFINO

    return {"tofino": TOFINO, "ipu": IPU}


def stats_doc(stats) -> Dict[str, float]:
    return {name: getattr(stats, name) for name in STATS_FIELDS}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def check_program(key, spec, program, expected) -> List[str]:
    """Reasons the answer is wrong: resources against expected.json, then
    the Figure-22 random simulation check with a fixed seed."""
    from repro.core.validate import random_simulation_check

    reasons = []
    answer = (program.num_entries, program.num_stages)
    if answer != expected[key]:
        reasons.append(
            f"answer (entries, stages)={answer}, expected {expected[key]}"
        )
    report = random_simulation_check(
        spec, program, samples=SIM_SAMPLES, seed=SIM_SEED
    )
    if not report.passed:
        reasons.append(str(report))
    return reasons


# ---------------------------------------------------------------------------
# Table 3 rows: direct compiles and the --jobs 2 portfolio
# ---------------------------------------------------------------------------

def table3_pass(args: argparse.Namespace) -> dict:
    from repro.benchgen import BASE_PROGRAMS
    from repro.core import CompileOptions, ParserHawkCompiler
    from repro.core import parallel
    from repro.hw import codegen
    from repro.ir import spec as spec_mod
    from repro.obs import Tracer, set_tracer

    portfolio = args.workload == "portfolio-jobs2"
    if portfolio:
        options = CompileOptions(parallel_workers=2)

        def compile_one(spec, device):
            return parallel.portfolio_compile(spec, device, options)
    else:
        options = CompileOptions()

        def compile_one(spec, device):
            return ParserHawkCompiler(options).compile(spec, device)

    by_name = devices()
    rows = workloads.pass_order(
        workloads.rows_for(args.workload), args.workload, args.seed,
        args.index,
    )
    sources = [
        (workloads.row_key(device, bench), device, bench.spec().to_source())
        for device, bench in rows
    ]
    expected = workloads.load_expected()
    warm = compile_one(
        spec_mod.parse_spec(BASE_PROGRAMS["parse_ethernet"]),
        by_name["tofino"],
    )
    codegen.emit_for_device(warm.program, by_name["tofino"])
    doc: dict = {"setup_s": time.monotonic() - args.spawned_at}
    if args.mode == "probe":
        return doc

    def compile_row(key: str, device_name: str, source: str, traced: bool
                    ) -> dict:
        """One timed compile, then its checks; runs in a forked child, so
        a traced child's wrappers never reach the parent."""
        device = by_name[device_name]
        clock = tracer = None
        if traced:
            clock = layers.LayerClock()
            clock.install()
            if portfolio:
                # The portfolio's own counters (units stolen, tests shared
                # between arms) exist only under an enabled program tracer.
                tracer = Tracer()
                set_tracer(tracer)
        started = time.perf_counter()
        try:
            with clock.span(layers.OTHER) if clock else nullcontext():
                spec = spec_mod.parse_spec(source)
                compile_started = time.perf_counter()
                result = compile_one(spec, device)
                compile_s = time.perf_counter() - compile_started
                text = (
                    codegen.emit_for_device(result.program, device)
                    if result.ok else ""
                )
        except Exception as exc:   # a crash is this row's failure
            op = {"row": key, "failed": [f"{type(exc).__name__}: {exc}"]}
            if clock is not None:
                op["trace"] = trace_doc(clock, tracer)
            return op
        op = {
            "row": key,
            "latency_s": time.perf_counter() - started,
            "rss_mb": peak_rss_mb(),
            "status": result.status,
            "stats": stats_doc(result.stats),
        }
        if portfolio:
            op["overhead_s"] = compile_s - result.stats.total_seconds
        if clock is not None:
            op["trace"] = trace_doc(clock, tracer)
        if not result.ok:
            op["failed"] = [f"status {result.status}: {result.message}"]
            return op
        program = result.program
        op["answer"] = [program.num_entries, program.num_stages]
        marker = (
            f"# stages: {program.num_stages}" if device_name == "ipu"
            else f"# entries: {program.num_entries}"
        )
        reasons = check_program(key, spec, program, expected)
        if marker not in text:
            reasons.append(f"emitted config lacks {marker!r}")
        if reasons:
            op["failed"] = reasons
        return op

    # Children share the parent's heap copy-on-write; frozen objects are
    # never traversed by a child's collector, so a fork costs a compile
    # what a fresh interpreter would, not a sweep of the parent's heap.
    gc.freeze()
    ops, traced_ops = [], []
    for row in sources:
        ops.append(in_child(compile_row, *row, False))
        if args.mode == "traced":
            # Each row's traced compile runs right after its untraced
            # one, so trace.overhead compares like with like in time.
            traced_ops.append(in_child(compile_row, *row, True))
    if traced_ops:
        doc["trace"] = merge_traces([op.pop("trace") for op in traced_ops])
        doc["traced_ops"] = traced_ops
    answers = {op["row"]: op.pop("answer") for op in ops if "answer" in op}
    doc.update(ops=ops, answers=answers, failures=[])
    return doc


def in_child(fn, *args) -> dict:
    """``fn(*args)`` in a child forked from this process; returns the
    JSON document it produced.

    The term layer interns every term in a process-wide table that is
    never cleared, so in one interpreter each compile would run against
    the heap its predecessors left behind and a row's time would depend
    on the seeded row order.  Every row instead starts from the same
    warmed-up parent: a cold compile, whatever came before it."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(json.dumps(fn(*args)))
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _pid, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"row child exited with status {status}")
    return json.loads(data)


def merge_traces(traces: List[dict]) -> dict:
    merged: dict = {"self_s": {}, "calls": {}, "layer_of": {}, "wall_s": 0.0,
                    "absent": traces[0]["absent"], "counters": {}}
    for trace in traces:
        for field in ("self_s", "calls", "counters"):
            for name, value in trace[field].items():
                merged[field][name] = merged[field].get(name, 0) + value
        merged["layer_of"].update(trace["layer_of"])
        merged["wall_s"] += trace["wall_s"]
    return merged


# ---------------------------------------------------------------------------
# The compile service under open-loop Zipf traffic
# ---------------------------------------------------------------------------

def serve_pass(args: argparse.Namespace) -> dict:
    from repro.ir.spec import parse_spec
    from repro.persist.serialize import program_from_doc
    from repro.serve.admission import Rejected
    from repro.serve.service import CompileService

    by_name = devices()
    rows = workloads.rows_for(args.workload)
    keys = [workloads.row_key(device, bench) for device, bench in rows]
    sources = [bench.spec().to_source() for _device, bench in rows]
    schedule = workloads.serve_schedule(len(rows), args.seed, args.seconds)
    expected = workloads.load_expected()
    root = Path(args.work) / f"svc-{args.mode}-{args.index}"
    shutil.rmtree(root, ignore_errors=True)     # a cold cache, always
    service = CompileService(root, workers=1)
    service.start()
    try:
        warm_jobs = []
        for (device_name, _bench), source in zip(rows, sources):
            job = service.submit(source, by_name[device_name], tenant="warm")
            warm_jobs.append(service.wait(job.job_id, timeout=60.0))
        doc: dict = {"setup_s": time.monotonic() - args.spawned_at}
        if args.mode == "probe":
            return doc

        clock = None
        if args.mode == "traced":
            clock = layers.LayerClock()
            clock.install()
        sent = []
        start = time.time()
        for request in schedule:
            due = start + request.offset_s
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            op = {
                "row": keys[request.row],
                "kind": "miss" if request.miss else "hit",
                "late_s": time.time() - due,
            }
            try:
                with clock.span(layers.OTHER) if clock else nullcontext():
                    job = service.submit(
                        sources[request.row],
                        by_name[rows[request.row][0]],
                        tenant=request.tenant,
                        options=(
                            {"seed": workloads.SERVE_MISS_SEED}
                            if request.miss else None
                        ),
                    )
            except Rejected as exc:
                op["error"] = f"rejected: {exc}"
                job = None
            else:
                if job.terminal:
                    op["latency_s"] = time.time() - due
            sent.append((op, due, job))
        for op, due, job in sent:
            if job is not None and "latency_s" not in op:
                job = service.wait(job.job_id, timeout=60.0)
                if job.terminal:
                    op["latency_s"] = job.finished_epoch - due
                if job.started_epoch is not None:
                    op["queue_wait_s"] = (
                        job.started_epoch - job.submitted_epoch
                    )
        if clock is not None:
            doc["trace"] = trace_doc(clock, None)
    finally:
        service.shutdown(wait=True)
    doc["rss_mb"] = peak_rss_mb()
    doc["service_counters"] = service.metrics()["counters"]

    answers: Dict[str, List[int]] = {}
    verdicts: Dict[tuple, List[str]] = {}

    def job_reasons(row: int, job, variant: str) -> List[str]:
        """Why a served answer is wrong; each distinct answer is checked
        once and its verdict reused for every request it served."""
        if job.state != "done":
            return [f"job finished {job.state}: {job.message}"]
        if (row, variant) not in verdicts:
            program = program_from_doc(job.result_doc["program"])
            if variant == "hit":
                answers[keys[row]] = [program.num_entries, program.num_stages]
            verdicts[row, variant] = check_program(
                keys[row], parse_spec(sources[row]), program, expected
            )
        return verdicts[row, variant]

    failures = [
        {"row": keys[row], "reason": f"cache warm: {reason}"}
        for row, job in enumerate(warm_jobs)
        for reason in job_reasons(row, job, "hit")
    ]
    ops = []
    for (op, _due, job), request in zip(sent, schedule):
        reasons = [op.pop("error")] if "error" in op else []
        if job is not None:
            reasons += job_reasons(request.row, job, op["kind"])
            if request.miss and job.result_doc:
                op["stats"] = job.result_doc.get("stats", {})
        latency = op.get("latency_s")
        if job is not None and (latency is None or latency > SERVE_LIMIT_S):
            reasons.append(
                f"request latency {latency} s exceeds {SERVE_LIMIT_S} s"
            )
        if reasons:
            op["failed"] = reasons
        ops.append(op)
    doc.update(ops=ops, answers=answers, failures=failures)
    return doc


def trace_doc(clock: layers.LayerClock, tracer) -> dict:
    self_s, calls, wall = clock.totals()
    return {
        "self_s": self_s,
        "calls": calls,
        "layer_of": clock.layer_of,
        "wall_s": wall,
        "absent": clock.absent,
        "counters": tracer.registry.snapshot() if tracer else {},
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    run = serve_pass if args.workload == "serve-zipf" else table3_pass
    doc = run(args)
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
