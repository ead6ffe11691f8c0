"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile``  — compile a parser source file for a target device and emit
  the synthesized program (human-readable, vendor config, or JSON);
* ``simulate`` — run the reference simulator on an input bitstream;
* ``validate`` — compile then run the Figure 22 random-simulation check;
* ``bench``    — regenerate one of the paper's tables from the harness;
* ``cache``    — inspect/clear/verify a persistent compile cache directory;
* ``sat``      — run the standalone CDCL solver on DIMACS input (profiling
  and triage for the synthesis substrate);
* ``serve``    — run the compile service on a spool directory (see
  :mod:`repro.serve`): admission control, request coalescing, classified
  retry, and a crash-safe job journal; ``--owner-id`` joins a fleet;
* ``fleet``    — supervise N ``serve`` processes sharing one spool
  directory: leases with fencing tokens, job reclamation, crash
  restarts under a budget, graceful drain;
* ``submit``   — spool a compile request to a ``serve`` directory;
* ``status``   — print a submitted job's journaled state;
* ``result``   — print a finished job's synthesized program.

The ``submit``/``status``/``result`` commands talk to the server purely
through files (atomic envelopes in the service directory), so ``status``
and ``result`` work even when no server is running.

Interrupting a checkpointed compile (Ctrl-C) flushes a final checkpoint
and prints a hint to re-run the same command (a matching checkpoint in
``--checkpoint-dir`` is always resumed) before exiting with the
conventional SIGINT status (130).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .core import (
    CompileOptions,
    STATUS_FAULT,
    STATUS_TIMEOUT,
    compile_spec,
    portfolio_compile,
)
from .core.validate import random_simulation_check
from .obs import Tracer, format_profile, use_tracer
from .persist import CompileCache, flush_active
from .hw import (
    custom_profile,
    emit_ipu,
    emit_json,
    emit_tofino,
    ipu_profile,
    tofino_profile,
    trident_profile,
)
from .ir import Bits, parse_spec, simulate_spec
from .lang import ParseError, SemanticError


class _InputError(Exception):
    """An unreadable or unparseable input file: :func:`main` prints it
    as one line on stderr and exits 1."""


def _read_source(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _load_spec(path: str):
    text = _read_source(path)
    try:
        return parse_spec(text)
    except (ParseError, SemanticError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def make_device(args: argparse.Namespace):
    builders = {
        "tofino": lambda: tofino_profile(
            key_limit=args.key_limit,
            tcam_limit=args.tcam_limit,
            lookahead_limit=args.lookahead_limit,
            extract_limit=args.extract_limit,
        ),
        "ipu": lambda: ipu_profile(
            key_limit=args.key_limit,
            tcam_per_stage_limit=args.tcam_limit,
            lookahead_limit=args.lookahead_limit,
            stage_limit=args.stage_limit,
            extract_limit=args.extract_limit,
        ),
        "trident": lambda: trident_profile(
            key_limit=args.key_limit,
            tcam_per_stage_limit=args.tcam_limit,
            lookahead_limit=args.lookahead_limit,
            stage_limit=args.stage_limit,
        ),
        "custom": lambda: custom_profile(
            key_limit=args.key_limit,
            tcam_limit=args.tcam_limit,
            lookahead_limit=args.lookahead_limit,
            extract_limit=args.extract_limit,
        ),
    }
    return builders[args.target]()


def _add_device_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--target",
        choices=["tofino", "ipu", "trident", "custom"],
        default="tofino",
    )
    parser.add_argument("--key-limit", type=int, default=16)
    parser.add_argument("--tcam-limit", type=int, default=64)
    parser.add_argument("--lookahead-limit", type=int, default=16)
    parser.add_argument("--stage-limit", type=int, default=10)
    parser.add_argument("--extract-limit", type=int, default=256)


def _make_tracer(args: argparse.Namespace) -> Optional[Tracer]:
    if getattr(args, "trace", None) or getattr(args, "profile", False):
        return Tracer()
    return None


def _emit_trace(tracer: Optional[Tracer], args: argparse.Namespace) -> None:
    if tracer is None:
        return
    tracer.finish()
    if getattr(args, "trace", None):
        try:
            Path(args.trace).write_text(tracer.export_json() + "\n")
        except OSError as exc:
            print(f"could not write trace to {args.trace}: {exc}",
                  file=sys.stderr)
    if getattr(args, "profile", False):
        print(format_profile(tracer), file=sys.stderr)


def _print_failure(result, args: argparse.Namespace) -> None:
    """Human-readable failure line, with timeout/fault outcomes called
    out explicitly (they are operational conditions, not spec problems)."""
    if result.status == STATUS_TIMEOUT:
        budget = (
            f" (wall-clock budget {args.timeout:g}s)"
            if getattr(args, "timeout", None)
            else ""
        )
        print(f"compilation timed out{budget}: {result.message}",
              file=sys.stderr)
    elif result.status == STATUS_FAULT:
        print(f"compilation failed on a fault: {result.message}",
              file=sys.stderr)
    else:
        print(f"compilation failed: {result.status}: {result.message}",
              file=sys.stderr)
    if getattr(result, "checkpoint_path", ""):
        print(
            f"progress saved to {result.checkpoint_path}; "
            "re-run the same command to continue from it",
            file=sys.stderr,
        )


def cmd_compile(args: argparse.Namespace) -> int:
    spec = _load_spec(args.source)
    device = make_device(args)
    if args.certify and not (args.cache_dir or args.checkpoint_dir):
        print(
            "warning: --certify without --cache-dir/--checkpoint-dir "
            "logs proofs but has nowhere to persist certificates",
            file=sys.stderr,
        )
    options = CompileOptions(
        total_max_seconds=args.timeout,
        parallel_workers=args.jobs,
        seed=args.seed,
        checkpoint_dir=args.checkpoint_dir,
        cache_dir=args.cache_dir,
        certify=args.certify,
    )
    tracer = _make_tracer(args)
    with use_tracer(tracer):
        if args.jobs > 1:
            result = portfolio_compile(spec, device, options)
        else:
            result = compile_spec(spec, device, options)
    _emit_trace(tracer, args)
    if not result.ok:
        _print_failure(result, args)
        return 1
    assert result.program is not None
    if args.emit == "text":
        print(result.program.describe())
    elif args.emit == "json":
        print(emit_json(result.program))
    elif args.emit == "config":
        emitter = emit_ipu if device.is_pipelined else emit_tofino
        print(emitter(result.program))
    elif args.emit == "dot":
        from .ir.dot import program_to_dot

        print(program_to_dot(result.program))
    if args.report:
        from .hw.resources import resource_report

        print(resource_report(result.program, device).render(),
              file=sys.stderr)
    if result.certificate_path:
        print(
            f"# equivalence certificate: {result.certificate_path} "
            "(re-check with `repro cache verify --deep`)",
            file=sys.stderr,
        )
    print(f"# {result.summary_row()}", file=sys.stderr)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _load_spec(args.source)
    text = args.input
    if text.startswith("0x"):
        raw = bytes.fromhex(text[2:])
        bits = Bits.from_bytes(raw)
    else:
        bits = Bits.from_str(text.removeprefix("0b"))
    result = simulate_spec(spec, bits)
    print(f"outcome: {result.outcome}")
    print(f"consumed: {result.consumed} bits")
    print(f"path: {' -> '.join(result.path)}")
    for key in sorted(result.od):
        width = result.od_widths[key]
        print(f"  {key} = {result.od[key]:#x} ({width} bits)")
    return 0 if result.outcome != "overrun" else 1


def cmd_validate(args: argparse.Namespace) -> int:
    spec = _load_spec(args.source)
    device = make_device(args)
    options = CompileOptions(total_max_seconds=args.timeout, seed=args.seed)
    tracer = _make_tracer(args)
    with use_tracer(tracer):
        result = compile_spec(spec, device, options)
    _emit_trace(tracer, args)
    if not result.ok:
        _print_failure(result, args)
        return 1
    report = random_simulation_check(
        spec, result.program, samples=args.samples, seed=args.seed
    )
    print(report)
    return 0 if report.passed else 1


def cmd_bench(args: argparse.Namespace) -> int:
    from .harness import (
        format_table3,
        format_table4,
        format_table5,
        run_table3,
        run_table4,
        run_table5,
    )

    if args.table == "table3":
        rows = run_table3(
            args.device,
            include_orig=args.orig,
            orig_cap_seconds=args.orig_cap,
            progress=lambda line: print(line, file=sys.stderr),
            cache_dir=args.cache_dir,
        )
        print(format_table3(rows))
    elif args.table == "table4":
        print(format_table4(run_table4()))
    elif args.table == "table5":
        print(format_table5(run_table5(args.device)))
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    cache = CompileCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache directory: {args.cache_dir}")
        print(f"entries: {stats['entries']}")
        print(f"certificates: {stats['certificates']}")
        print(f"bytes: {stats['bytes']}")
        print(f"quarantined: {stats['quarantined']}")
        return 0
    if args.action == "clear":
        if args.quarantined:
            removed = cache.purge_quarantined()
            print(
                f"removed {removed} quarantined "
                f"file{'' if removed == 1 else 's'}"
            )
            return 0
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
        return 0
    # verify: re-read every entry through the integrity-checking loader;
    # corrupt entries are quarantined as a side effect (and reported, so
    # the numbers agree with a subsequent `cache stats`).
    report = cache.verify(deep=args.deep)
    print(
        f"verified {report['ok']} entr{'y' if report['ok'] == 1 else 'ies'}"
        f", {report['invalid']} corrupt"
        f" ({report['quarantined']} quarantined)"
    )
    failed = report["invalid"]
    if args.deep:
        print(
            f"certificates: {report['cert_ok']} ok, "
            f"{report['cert_invalid']} invalid, "
            f"{report['witnesses_checked']} witness test(s) re-run"
        )
        failed += report["cert_invalid"]
    return 0 if failed == 0 else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .resilience import injection
    from .serve import CompileService, SpoolServer

    if args.inject:
        injection.configure_from_string(args.inject)
    service = CompileService(
        args.dir,
        workers=args.workers,
        capacity=args.capacity,
        per_tenant=args.per_tenant,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        owner_id=args.owner_id,
        lease_ttl=args.lease_ttl,
    )
    server = SpoolServer(args.dir, service)
    if args.owner_id:
        # Fleet member: SIGTERM means "drain gracefully" — the run loop
        # picks the stop file up, finishes/releases held leases, exits 0.
        def _drain(signum, frame):  # noqa: ARG001
            (Path(args.dir) / f"stop-{args.owner_id}").touch()

        try:
            signal.signal(signal.SIGTERM, _drain)
        except ValueError:
            pass
    who = f" as {args.owner_id}" if args.owner_id else ""
    print(
        f"serving {args.dir}{who} with {args.workers} worker(s), "
        f"capacity {args.capacity}, per-tenant quota {args.per_tenant}",
        file=sys.stderr,
    )
    handled = server.run(duration=args.duration)
    metrics = service.metrics()
    print(
        f"served {handled} request(s); "
        f"counters: {metrics['counters']}",
        file=sys.stderr,
    )
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from .serve import FleetSupervisor

    supervisor = FleetSupervisor(
        args.dir,
        workers=args.workers,
        threads=args.threads,
        capacity=args.capacity,
        per_tenant=args.per_tenant,
        lease_ttl=args.lease_ttl,
        restart_budget=args.restart_budget,
        drain_timeout=args.drain_timeout,
        inject=args.inject,
    )
    print(
        f"fleet of {args.workers} server(s) on {args.dir} "
        f"({args.threads} thread(s) each, lease ttl {args.lease_ttl:g}s)",
        file=sys.stderr,
    )
    summary = supervisor.run(duration=args.duration)
    restarts = sum(summary["restarts"].values())
    print(
        f"fleet drained after {summary['elapsed_seconds']:g}s; "
        f"{restarts} restart(s); exit codes: {summary['exit_codes']}",
        file=sys.stderr,
    )
    return 0


def _parse_option_overrides(pairs) -> dict:
    """``KEY=VALUE`` pairs, values parsed as JSON with a string fallback
    (so ``seed=7`` and ``certify=true`` both do the obvious thing)."""
    import json

    options = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"expected KEY=VALUE, got {pair!r}")
        try:
            options[key] = json.loads(value)
        except ValueError:
            options[key] = value
    return options


def cmd_submit(args: argparse.Namespace) -> int:
    from .serve import SpoolClient

    client = SpoolClient(args.dir)
    try:
        options = _parse_option_overrides(args.option)
    except ValueError as exc:
        print(f"bad --option: {exc}", file=sys.stderr)
        return 1
    if args.timeout is not None:
        options["total_max_seconds"] = args.timeout
    if args.seed is not None:
        options["seed"] = args.seed
    req_id = client.submit(
        _read_source(args.source),
        make_device(args),
        tenant=args.tenant,
        options=options,
        deadline_seconds=args.deadline,
    )
    print(req_id)
    if not args.wait:
        return 0
    ack = client.wait_ack(req_id, timeout=args.wait_timeout)
    if ack is None:
        print("no ack (is a server running on this directory?)",
              file=sys.stderr)
        return 2
    if not ack.get("accepted"):
        retry = ack.get("retry_after")
        hint = "" if retry is None else f" (retry after {retry:g}s)"
        print(f"rejected: {ack.get('reason', '?')}{hint}", file=sys.stderr)
        return 1
    job = client.wait_job(req_id, timeout=args.wait_timeout)
    if job is None or not job.terminal:
        print("job not finished before --wait-timeout", file=sys.stderr)
        return 2
    return _print_job(job, emit=None)


def _print_job(job, emit: Optional[str]) -> int:
    """Render a journaled job; exit code mirrors its state."""
    flags = []
    if job.coalesced_into:
        flags.append(f"coalesced into {job.coalesced_into}")
    if job.degraded:
        flags.append("degraded")
    suffix = f" ({', '.join(flags)})" if flags else ""
    print(
        f"# job {job.job_id} [{job.tenant}] {job.state}"
        f"{': ' + job.failure_kind if job.failure_kind else ''}{suffix}",
        file=sys.stderr,
    )
    if job.message:
        print(f"# {job.message}", file=sys.stderr)
    if job.state == "failed":
        return 1
    if not job.terminal:
        return 2
    if job.result_doc and job.result_doc.get("program") and emit:
        from .persist.serialize import program_from_doc

        program = program_from_doc(job.result_doc["program"])
        if emit == "json":
            print(emit_json(program))
        else:
            print(program.describe())
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    from .serve import SpoolClient

    job = SpoolClient(args.dir).job(args.job_id)
    if job is None:
        print(f"unknown job {args.job_id}", file=sys.stderr)
        return 1
    return _print_job(job, emit=None)


def cmd_result(args: argparse.Namespace) -> int:
    from .serve import SpoolClient

    job = SpoolClient(args.dir).job(args.job_id)
    if job is None:
        print(f"unknown job {args.job_id}", file=sys.stderr)
        return 1
    return _print_job(job, emit=args.emit)


def _emit_and_check_proof(
    args: argparse.Namespace, proof, num_vars: int, clauses
) -> Optional[int]:
    """Write/verify the DRAT refutation of an UNSAT solve.

    Returns an exit code to use instead of 20 when the proof fails its
    own check (the verdict must not be trusted then), else None.
    """
    drat = proof.to_drat()
    if args.proof is not None:
        try:
            Path(args.proof).write_text(drat)
            print(f"c proof written to {args.proof}", file=sys.stderr)
        except OSError as exc:
            print(f"could not write proof to {args.proof}: {exc}",
                  file=sys.stderr)
            return 1
    if args.check_proof:
        # The independent checker: reverse unit propagation over the
        # clauses as *parsed from the input file*, shared solver state
        # deliberately not consulted.  Round-tripping through DRAT text
        # also exercises the on-disk format.
        from .smt.sat import check_proof, parse_drat

        result = check_proof(num_vars, clauses, parse_drat(drat))
        if result.verified:
            # A comment line, so it lands next to the s-line it backs.
            print(
                f"c proof verified ({result.additions} additions, "
                f"{result.deletions} deletions)"
            )
        else:
            print(f"c proof check FAILED: {result.reason}", file=sys.stderr)
            return 1
    return None


def cmd_sat(args: argparse.Namespace) -> int:
    """Standalone SAT solving on DIMACS CNF, for profiling and triage of
    the CDCL search the compiler runs.

    Prints the conventional competition ``s`` line; exit status follows
    the SAT-competition convention (10 SAT, 20 UNSAT, 0 unknown).
    """
    from .smt.sat import Budget, SatSolver, parse_dimacs

    want_proof = args.proof is not None or args.check_proof
    text = _read_source(args.cnf)
    try:
        num_vars, clauses = parse_dimacs(text)
    except ValueError as exc:
        print(f"malformed DIMACS input: {exc}", file=sys.stderr)
        return 1
    solver = SatSolver()
    if want_proof:
        proof = solver.enable_proof()
    solver.ensure_vars(num_vars)
    for clause in clauses:
        if not solver.add_clause(clause):
            break
    budget = None
    if args.max_conflicts is not None or args.max_seconds is not None:
        budget = Budget(
            max_conflicts=args.max_conflicts, max_seconds=args.max_seconds
        )
    result = solver.solve(budget=budget) if solver.ok else False
    if result is None:
        print("s UNKNOWN")
        code = 0
    elif result:
        # Verify the model against the original clauses before claiming
        # SAT: a wrong model must never reach the v-line.
        model = solver.model()
        for clause in clauses:
            if not any(model[l >> 1] ^ bool(l & 1) for l in clause):
                print("s UNKNOWN")
                print("c model failed verification", file=sys.stderr)
                return 1
        print("s SATISFIABLE")
        assignment = " ".join(
            str(v + 1) if model[v] else str(-(v + 1))
            for v in range(num_vars)
        )
        print(f"v {assignment} 0" if assignment else "v 0")
        if want_proof:
            print("c satisfiable: no refutation to log", file=sys.stderr)
        code = 10
    else:
        print("s UNSATISFIABLE")
        code = 20
        if want_proof:
            rc = _emit_and_check_proof(args, proof, num_vars, clauses)
            if rc is not None:
                return rc
    if args.stats:
        for key, value in solver.stats().items():
            print(f"c {key} = {value}")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ParserHawk reproduction: synthesis-based parser compiler",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a parser source")
    p_compile.add_argument("source")
    _add_device_args(p_compile)
    p_compile.add_argument(
        "--emit", choices=["text", "config", "json", "dot"], default="text"
    )
    p_compile.add_argument(
        "--report", action="store_true",
        help="print a resource-utilization report to stderr",
    )
    p_compile.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget (CompileOptions.total_max_seconds); the "
        "portfolio returns its best result so far or a timeout naming "
        "the arms still running",
    )
    p_compile.add_argument(
        "--jobs", "--parallel-workers", dest="jobs", type=int, default=1,
        metavar="N",
        help="portfolio worker processes (1 = deterministic sequential)",
    )
    p_compile.add_argument("--seed", type=int, default=0)
    p_compile.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="persist durable CEGIS/budget-search checkpoints under DIR "
        "(atomic, checksummed) and resume a matching one found there: "
        "prior counterexamples are replayed and budgets proved UNSAT are "
        "skipped; pass an empty DIR to start over",
    )
    p_compile.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="content-addressed compile cache: identical "
        "(spec, device, solver options) compiles are served from DIR "
        "instead of re-synthesized",
    )
    p_compile.add_argument(
        "--certify", action="store_true",
        help="certifying compile: DRAT proof logging in every CEGIS "
        "solver, an offline-checkable equivalence certificate next to "
        "the cache entry (with --cache-dir), and proof bundles for "
        "budgets proved UNSAT (with --checkpoint-dir)",
    )
    p_compile.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write the structured span tree (JSON) to PATH",
    )
    p_compile.add_argument(
        "--profile", action="store_true",
        help="print a per-span-kind timing/counter summary to stderr",
    )
    p_compile.set_defaults(func=cmd_compile)

    p_sim = sub.add_parser("simulate", help="run the reference simulator")
    p_sim.add_argument("source")
    p_sim.add_argument(
        "input", help="input bitstream: 0b0101... or 0xAB... (byte aligned)"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser(
        "validate", help="compile + Figure 22 random check"
    )
    p_val.add_argument("source")
    _add_device_args(p_val)
    p_val.add_argument("--samples", type=int, default=500)
    p_val.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock compile budget (CompileOptions.total_max_seconds)",
    )
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--trace", metavar="PATH", default=None)
    p_val.add_argument("--profile", action="store_true")
    p_val.set_defaults(func=cmd_validate)

    p_bench = sub.add_parser("bench", help="regenerate a paper table")
    p_bench.add_argument(
        "table", choices=["table3", "table4", "table5"]
    )
    p_bench.add_argument(
        "--device", choices=["tofino", "ipu"], default="tofino"
    )
    p_bench.add_argument("--orig", action="store_true")
    p_bench.add_argument("--orig-cap", type=float, default=20.0)
    p_bench.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="serve previously compiled benchmark rows from a persistent "
        "compile cache at DIR (and populate it)",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_cache = sub.add_parser(
        "cache", help="inspect a persistent compile cache"
    )
    p_cache.add_argument("action", choices=["stats", "clear", "verify"])
    p_cache.add_argument("cache_dir", metavar="DIR")
    p_cache.add_argument(
        "--deep", action="store_true",
        help="verify only: additionally re-validate every equivalence "
        "certificate offline — re-parse the spec, rebuild the program, "
        "re-check fingerprints/device constraints, and re-run every "
        "witness test through both simulators (no solver involved)",
    )
    p_cache.add_argument(
        "--quarantined", action="store_true",
        help="clear only: delete quarantined (.corrupt-N) files instead "
        "of live entries",
    )
    p_cache.set_defaults(func=cmd_cache)

    p_sat = sub.add_parser(
        "sat", help="run the standalone CDCL solver on a DIMACS file"
    )
    sat_sub = p_sat.add_subparsers(dest="sat_command", required=True)
    p_sat_solve = sat_sub.add_parser(
        "solve", help="solve a DIMACS CNF and print the s-line"
    )
    p_sat_solve.add_argument("cnf", help="path to a DIMACS .cnf file")
    p_sat_solve.add_argument(
        "--stats", action="store_true",
        help="print solver counters as 'c' comment lines",
    )
    p_sat_solve.add_argument(
        "--max-conflicts", type=int, default=None, metavar="N",
        help="budget: give up (s UNKNOWN) after N conflicts",
    )
    p_sat_solve.add_argument(
        "--max-seconds", type=float, default=None, metavar="SECONDS",
        help="budget: give up (s UNKNOWN) after this much wall clock",
    )
    p_sat_solve.add_argument(
        "--proof", metavar="PATH", default=None,
        help="log a DRAT proof during the solve and, on UNSAT, write "
        "the refutation to PATH",
    )
    p_sat_solve.add_argument(
        "--check-proof", action="store_true",
        help="on UNSAT, re-verify the DRAT refutation with the "
        "independent reverse-unit-propagation checker against the "
        "original CNF (exit 1 if it does not check)",
    )
    p_sat_solve.set_defaults(func=cmd_sat)

    p_serve = sub.add_parser(
        "serve", help="run the compile service on a spool directory"
    )
    p_serve.add_argument(
        "dir", metavar="DIR",
        help="service directory (inbox/, acks/, journal/, cache/, ckpt/)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent compile workers (threads)",
    )
    p_serve.add_argument(
        "--capacity", type=int, default=32,
        help="bounded queue: max queued+running primary jobs before "
        "submissions are rejected with a retry-after hint",
    )
    p_serve.add_argument(
        "--per-tenant", type=int, default=8, metavar="N",
        help="max live jobs (coalesced included) per tenant",
    )
    p_serve.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive faulting outcomes that open a per-(tenant, "
        "compile key) circuit breaker",
    )
    p_serve.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="how long an open breaker rejects before admitting a probe",
    )
    p_serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="serve for this long then shut down gracefully "
        "(default: until DIR/stop appears)",
    )
    p_serve.add_argument(
        "--inject", metavar="SPEC", default=None,
        help="arm deterministic fault injection: comma-separated "
        "site:FaultName[:times[:match]] entries (soak testing)",
    )
    p_serve.add_argument(
        "--owner-id", default=None, metavar="ID",
        help="fleet mode: join DIR as this named instance (leases, "
        "fencing, reclamation; see 'repro fleet')",
    )
    p_serve.add_argument(
        "--lease-ttl", type=float, default=5.0, metavar="SECONDS",
        help="fleet mode: heartbeat TTL before a lease may be stolen",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_fleet = sub.add_parser(
        "fleet",
        help="supervise N serve processes sharing one spool directory",
    )
    p_fleet.add_argument(
        "dir", metavar="DIR",
        help="shared service directory (same layout as 'serve')",
    )
    p_fleet.add_argument(
        "--workers", type=int, default=3, metavar="N",
        help="server processes to supervise",
    )
    p_fleet.add_argument(
        "--threads", type=int, default=2, metavar="N",
        help="compile worker threads per server process",
    )
    p_fleet.add_argument("--capacity", type=int, default=32)
    p_fleet.add_argument("--per-tenant", type=int, default=8, metavar="N")
    p_fleet.add_argument(
        "--lease-ttl", type=float, default=5.0, metavar="SECONDS",
        help="heartbeat TTL before a worker's lease may be stolen",
    )
    p_fleet.add_argument(
        "--restart-budget", type=int, default=8, metavar="N",
        help="max respawns per worker slot before giving up on it",
    )
    p_fleet.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="grace period for workers to finish after a drain request",
    )
    p_fleet.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="supervise for this long then drain "
        "(default: until SIGTERM or DIR/stop appears)",
    )
    p_fleet.add_argument(
        "--inject", metavar="SPEC", default=None,
        help="fault-injection spec passed through to every worker",
    )
    p_fleet.set_defaults(func=cmd_fleet)

    p_submit = sub.add_parser(
        "submit", help="spool a compile request to a serve directory"
    )
    p_submit.add_argument("dir", metavar="DIR", help="service directory")
    p_submit.add_argument("source", help="parser source file")
    _add_device_args(p_submit)
    p_submit.add_argument("--tenant", default="default")
    p_submit.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="end-to-end deadline from submission; propagated into the "
        "compiler's wall-clock budget",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt compile budget (total_max_seconds override)",
    )
    p_submit.add_argument("--seed", type=int, default=None)
    p_submit.add_argument(
        "--option", action="append", metavar="KEY=VALUE",
        help="whitelisted CompileOptions override (repeatable); values "
        "are parsed as JSON with a string fallback",
    )
    p_submit.add_argument(
        "--wait", action="store_true",
        help="block until the job is acked and terminal",
    )
    p_submit.add_argument(
        "--wait-timeout", type=float, default=300.0, metavar="SECONDS",
    )
    p_submit.set_defaults(func=cmd_submit)

    p_status = sub.add_parser(
        "status", help="print a submitted job's journaled state"
    )
    p_status.add_argument("dir", metavar="DIR", help="service directory")
    p_status.add_argument("job_id")
    p_status.set_defaults(func=cmd_status)

    p_result = sub.add_parser(
        "result", help="print a finished job's synthesized program"
    )
    p_result.add_argument("dir", metavar="DIR", help="service directory")
    p_result.add_argument("job_id")
    p_result.add_argument(
        "--emit", choices=["text", "json"], default="text"
    )
    p_result.set_defaults(func=cmd_result)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Make Ctrl-C durable: flush every live checkpoint manager so the
        # interrupted compile can be continued, then exit with the
        # conventional 128+SIGINT status.
        flush_active()
        if getattr(args, "checkpoint_dir", None):
            print(
                f"interrupted; progress saved under {args.checkpoint_dir} "
                "— re-run the same command to continue",
                file=sys.stderr,
            )
        else:
            print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
