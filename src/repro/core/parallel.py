"""Opt7: parallel synthesis portfolios (§6.7), with fault tolerance.

The paper distributes subproblems over a server pool: loop-aware vs
loop-free arms (§6.7.1) and per-hardware-constraint-level arms (§6.7.2,
e.g. one subproblem per transition-key width limit), halting as soon as
any subproblem yields a valid outcome.  Here the arms are the key-limit
levels; each arm's compile runs the loop modes in sequence.

``portfolio_compile`` reproduces that with a ``ProcessPoolExecutor``
where each worker runs a full sequential compile of one subproblem.  The
first valid success wins, and the workers still running losing arms are
stopped then and there, so they never compete with whatever the caller
runs next.  With ``options.parallel_workers <= 1`` the portfolio
degenerates to the deterministic sequential iteration the rest of the
repo uses by default.

Resilience (see :mod:`repro.resilience`): the portfolio is the scaling
path, so it must degrade instead of dying.

* **Arm supervision** — an arm that raises (worker crash, pickling
  error, injected fault) becomes a per-arm ``STATUS_FAULT`` result in
  the failure list, counted as ``portfolio.arm_faults`` and marked on
  the arm's span; the remaining arms keep racing.
* **Pool recovery** — a ``BrokenProcessPool`` (or a pool that cannot be
  created at all, e.g. in sandboxed environments) falls back to running
  the not-yet-completed arms in-process, best priority first.
* **Deadline enforcement** — ``options.total_max_seconds`` acts as a
  wall-clock watchdog: it bounds the ``as_completed`` wait, is threaded
  into every arm's own options, and on expiry the portfolio stops the
  arms still running and returns its best valid winner so far, or a
  ``STATUS_TIMEOUT`` result naming them.

Tracing: each arm runs under a ``portfolio.arm`` span.  Worker processes
cannot share the parent's tracer, so when tracing is enabled each worker
builds its own :class:`~repro.obs.Tracer` and ships the finished span
tree back with its result; the parent grafts it under its own trace,
and the tree's counters count in the parent's totals.
"""

from __future__ import annotations

import concurrent.futures
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..hw.device import DeviceProfile
from ..ir.spec import ParserSpec
from ..obs import Tracer, get_tracer, use_tracer
from ..persist import arm_checkpoint_dir
from ..resilience import CompileFault, PoolBroken
from ..resilience import injection as _injection
from ..resilience.injection import fault_point
from .options import CompileOptions
from .result import (
    STATUS_FAULT,
    STATUS_INFEASIBLE,
    STATUS_TIMEOUT,
    CompileResult,
)

# (priority, result, span-tree dict or None)
ArmOutcome = Tuple[int, CompileResult, Optional[Dict[str, Any]]]

# Environments where a process pool cannot even be created (no /dev/shm,
# seccomp'd fork, missing _multiprocessing) raise one of these.
_POOL_UNAVAILABLE_ERRORS = (
    OSError, PermissionError, NotImplementedError, ImportError, PoolBroken,
)


@dataclass(frozen=True)
class Subproblem:
    """One portfolio arm: a device variant plus an option variant."""

    label: str
    device: DeviceProfile
    options: CompileOptions
    priority: int = 0


def derive_subproblems(
    spec: ParserSpec, device: DeviceProfile, options: CompileOptions
) -> List[Subproblem]:
    """The §6.7.2 subproblem set for one compilation: key-limit levels.

    The device limit comes first, then tighter limits down to the spec's
    widest actually-needed slice — a tighter limit shrinks the candidate
    pools, so those arms often finish first and their results are valid
    on the real device (a narrower key always fits).  Each arm's compile
    runs §6.7.1's loop modes in sequence itself
    (``ParserHawkCompiler._portfolio_arms``), the one place that orders
    them.
    """
    key_levels = [device.key_limit]
    widest_key = max(
        (s.key_width for s in spec.states.values()), default=0
    )
    for level in (widest_key, max(1, device.key_limit // 2)):
        if 0 < level < device.key_limit and level not in key_levels:
            key_levels.append(level)

    opts = options.with_(parallel_workers=1)
    return [
        Subproblem(
            f"key<={level}",
            device if level == device.key_limit
            else device.with_limits(key_limit=level),
            opts,
            priority,
        )
        for priority, level in enumerate(key_levels)
    ]


def _run_subproblem(
    spec: ParserSpec,
    subproblem: Subproblem,
    trace: bool = False,
    faults: Optional[list] = None,
) -> ArmOutcome:
    # Imported here so worker processes resolve it after fork/spawn.
    from .compiler import ParserHawkCompiler

    if faults is not None:
        # Worker-process side of the fault-injection registry handoff
        # (works under both fork and spawn start methods).
        _injection.install(faults)
    fault_point("portfolio.worker", label=subproblem.label)
    compiler = ParserHawkCompiler(subproblem.options)
    if not trace:
        return subproblem.priority, compiler.compile(
            spec, subproblem.device
        ), None
    # Worker-side tracer: serialized back for the parent to merge.
    tracer = Tracer()
    with use_tracer(tracer):
        with tracer.span(
            "portfolio.arm",
            label=subproblem.label,
            priority=subproblem.priority,
        ) as arm_span:
            result = compiler.compile(spec, subproblem.device)
    return subproblem.priority, result, arm_span.to_dict()


def _valid_winner(result: CompileResult, device: DeviceProfile) -> bool:
    """Successful AND satisfying the real device profile.

    The race only halts on a valid winner: a tighter-key arm whose program
    somehow violates the real device must not stop arms that could still
    produce a usable result.  The constraint check is memoized on the
    result, so ``select_result`` reuses it instead of re-checking."""
    return result.ok and not result.constraint_violations(device)


def _arm_failure(
    sub: Subproblem, exc: BaseException, device: DeviceProfile
) -> CompileResult:
    """Convert an exception escaping one arm into that arm's result."""
    if isinstance(exc, CompileFault):
        detail = exc.describe()
    else:
        detail = f"{type(exc).__name__}: {exc}"
    return CompileResult(STATUS_FAULT, device, message=detail)


def _with_deadline(
    sub: Subproblem, deadline: Optional[float]
) -> Optional[Subproblem]:
    """Thread the portfolio's wall-clock deadline into an arm's options.

    Each arm then enforces its share of the remaining time itself (the
    compiler turns ``total_max_seconds`` into its internal deadline), so
    a straggler arm self-terminates even if the parent has moved on.

    Returns None when the deadline has *already expired*: the arm must
    not be launched at all (it could only burn a token budget and report
    a misleading per-arm timeout) — callers count it under
    ``portfolio.deadline_expired`` and report it among the pending arms.
    """
    if deadline is None:
        return sub
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None
    current = sub.options.total_max_seconds
    if current is not None and current <= remaining:
        return sub
    return Subproblem(
        sub.label,
        sub.device,
        sub.options.with_(total_max_seconds=remaining),
        sub.priority,
    )


def select_result(
    subproblems: List[Subproblem],
    results: List[Tuple[int, CompileResult]],
    device: DeviceProfile,
    pending: Optional[Sequence[str]] = None,
) -> CompileResult:
    """Pick the portfolio's overall result from per-arm outcomes.

    ``results`` holds ``(priority, result)`` pairs in *any* order
    (completion order for the process pool) — arms are identified by
    priority, never by position.  Winners are considered best-first; a
    winner whose program violates the real device profile is skipped in
    favour of the next-best winner.  When no winner survives:

    * ``pending`` non-empty (the deadline expired with arms unfinished)
      → a ``STATUS_TIMEOUT`` result naming the still-running arms;
    * otherwise → ``STATUS_INFEASIBLE`` listing every arm's failure
      (including supervised ``STATUS_FAULT`` arms with their fault
      detail).
    """
    label_of = {sub.priority: sub.label for sub in subproblems}
    winners = sorted(
        (pr for pr in results if pr[1].ok), key=lambda pr: pr[0]
    )
    failures: List[str] = []
    for priority, result in winners:
        assert result.program is not None
        violations = result.constraint_violations(device)
        if not violations:
            return result
        failures.append(
            f"{label_of.get(priority, f'arm#{priority}')}: winner violates "
            f"device constraints ({'; '.join(violations)})"
        )
    for priority, result in sorted(results, key=lambda pr: pr[0]):
        if result.ok:
            continue
        line = f"{label_of.get(priority, f'arm#{priority}')}: {result.status}"
        if result.status == STATUS_FAULT and result.message:
            line += f" ({result.message})"
        failures.append(line)
    if pending:
        message = (
            "portfolio deadline expired with arm(s) still running: "
            + ", ".join(pending)
        )
        if failures:
            message += f"; finished arms: {'; '.join(failures)}"
        return CompileResult(STATUS_TIMEOUT, device, message=message)
    return CompileResult(
        STATUS_INFEASIBLE,
        device,
        message=f"no portfolio arm succeeded ({'; '.join(failures)})",
    )


def _run_arms_inline(
    spec: ParserSpec,
    subproblems: Sequence[Subproblem],
    device: DeviceProfile,
    tracer,
    deadline: Optional[float],
    results: List[Tuple[int, CompileResult]],
) -> List[str]:
    """Run arms in-process, best priority first, under supervision.

    Appends each arm's ``(priority, result)`` to ``results`` and stops
    early on a valid winner.  Returns the labels of arms *not run*
    because the deadline expired first (empty otherwise)."""
    ordered = sorted(subproblems, key=lambda s: s.priority)
    for index, sub in enumerate(ordered):
        bounded = _with_deadline(sub, deadline)
        if bounded is None:
            # Deadline already expired: launching would only misreport.
            tracer.count("portfolio.deadline_expired")
            return [s.label for s in ordered[index:]]
        with tracer.span(
            "portfolio.arm", label=sub.label, priority=sub.priority
        ) as arm_span:
            try:
                _priority, result, _spans = _run_subproblem(
                    spec, bounded
                )
            except Exception as exc:
                result = _arm_failure(sub, exc, device)
                arm_span.attrs["error"] = result.message
                tracer.count("portfolio.arm_faults")
        results.append((sub.priority, result))
        if _valid_winner(result, device):
            break
    return []


def _stop_pool(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Shut ``pool`` down and kill its workers, busy or idle.

    ``shutdown(cancel_futures=True)`` alone only drops arms that never
    started: a losing arm already running would keep its worker busy
    until its own budgets expire, competing with whatever the caller runs
    next.  Killing loses nothing, because checkpoint and cache writes are
    atomic renames.  This is what ``ProcessPoolExecutor.kill_workers``
    does from Python 3.14 on; before that the workers are only reachable
    through ``_processes``, read before ``shutdown`` clears it.  The join
    waits for each worker to die, not for the executor's own bookkeeping.
    """
    workers = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in workers:
        proc.kill()
    for proc in workers:
        proc.join(timeout=1.0)


def _run_pooled(
    spec: ParserSpec,
    subproblems: Sequence[Subproblem],
    device: DeviceProfile,
    tracer,
    deadline: Optional[float],
    workers: int,
    results: List[Tuple[int, CompileResult]],
) -> List[str]:
    """Race arms across a process pool; returns still-pending labels.

    Supervision: a worker exception becomes that arm's ``STATUS_FAULT``
    result; a broken pool re-runs the not-yet-completed arms in-process;
    an unavailable pool degrades to the sequential path; a deadline expiry
    returns the labels of unfinished arms for the partial result.  On
    every exit the pool is stopped, so no losing arm outlives the race."""
    try:
        fault_point("portfolio.pool")
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    except _POOL_UNAVAILABLE_ERRORS as exc:
        tracer.count("portfolio.pool_unavailable")
        with tracer.span(
            "portfolio.degraded",
            reason=f"{type(exc).__name__}: {exc}",
        ):
            return _run_arms_inline(
                spec, subproblems, device, tracer, deadline, results
            )

    faults = _injection.snapshot() or None
    futures: Dict[concurrent.futures.Future, Subproblem] = {}
    completed: Set[int] = set()
    expired: List[Subproblem] = []

    def collect(future: concurrent.futures.Future, sub: Subproblem) -> bool:
        """Record one finished arm; returns whether it won the race.
        ``BrokenProcessPool`` propagates: the pool, not the arm, failed."""
        try:
            priority, result, spans = future.result(timeout=0)
        except BrokenProcessPool:
            raise
        except Exception as exc:
            # Supervision: the arm failed (worker raised, or its outcome
            # could not be pickled back) — record a per-arm failure.
            priority, spans = sub.priority, None
            result = _arm_failure(sub, exc, device)
            with tracer.span(
                "portfolio.arm.fault",
                label=sub.label,
                priority=sub.priority,
                error=result.message,
            ):
                pass
            tracer.count("portfolio.arm_faults")
        completed.add(sub.priority)
        if spans is not None:
            tracer.attach(spans)
        results.append((priority, result))
        return _valid_winner(result, device)

    broken: Optional[BaseException] = None
    try:
        try:
            for sub in subproblems:
                bounded = _with_deadline(sub, deadline)
                if bounded is None:
                    # The deadline expired before this arm could even be
                    # submitted: never launch it.
                    expired.append(sub)
                    tracer.count("portfolio.deadline_expired")
                    continue
                futures[pool.submit(
                    _run_subproblem, spec, bounded, tracer.enabled, faults,
                )] = sub
        except (BrokenProcessPool,) + _POOL_UNAVAILABLE_ERRORS as exc:
            # Submission only: the deadline's TimeoutError is an OSError
            # too, and must not read as a broken pool.
            broken = exc
        if broken is None:
            timeout = (
                None if deadline is None
                else max(0.01, deadline - time.monotonic())
            )
            try:
                for future in concurrent.futures.as_completed(
                    futures, timeout=timeout
                ):
                    if collect(future, futures[future]):
                        break   # first valid success wins
            except BrokenProcessPool as exc:
                broken = exc
            except concurrent.futures.TimeoutError:
                tracer.count("portfolio.deadline_expired")
                # Harvest arms that finished but were not yet yielded by
                # as_completed — their results already exist and must
                # not be reported as "still running" (or dropped when
                # one of them is the winner).
                for future, sub in futures.items():
                    if sub.priority in completed or not future.done():
                        continue
                    try:
                        collect(future, sub)
                    except BrokenProcessPool:
                        pass    # never finished: still running
                return [
                    s.label
                    for s in sorted(subproblems, key=lambda s: s.priority)
                    if s.priority not in completed
                ]
    finally:
        _stop_pool(pool)

    if broken is not None:
        # The pool died under us (a worker was killed, fork failed
        # mid-run, a result was unpicklable at the pool layer).  Re-run
        # every arm that never completed in-process, best priority first;
        # the injection registry's "subprocess" scope keeps worker-killing
        # test faults from re-firing here.
        tracer.count("portfolio.pool_broken")
        remaining = [
            s for s in subproblems if s.priority not in completed
        ]
        with tracer.span(
            "portfolio.recovery",
            reason=f"{type(broken).__name__}: {broken}",
            arms=len(remaining),
        ):
            return _run_arms_inline(
                spec, remaining, device, tracer, deadline, results
            )
    return [s.label for s in sorted(expired, key=lambda s: s.priority)]


def portfolio_compile(
    spec: ParserSpec,
    device: DeviceProfile,
    options: Optional[CompileOptions] = None,
) -> CompileResult:
    """Compile via the parallel subproblem portfolio.

    Results from tighter-key arms are re-validated against the REAL device
    profile before being returned (they always fit — a narrower key is a
    subset of a wider one — but the constraint check keeps us honest; a
    winner that fails it is skipped in favour of the next-best winner).

    Fault tolerance: arms are supervised (an arm that raises becomes a
    per-arm failure), a broken or unavailable process pool degrades to
    in-process execution, and ``options.total_max_seconds`` is enforced
    as a portfolio-level wall-clock deadline with best-effort partial
    results.

    Persistence (``options.checkpoint_dir``): every arm's own compile
    checkpoint lives in ``<root>/arms/<label>/``, so a re-run with the
    same root resumes each arm from its own CEGIS progress — an arm that
    already retired every budget re-derives its infeasible verdict
    without building a skeleton.  A timeout or fault names the root
    directory, which is what the re-run passes back."""
    options = options or CompileOptions()
    subproblems = derive_subproblems(spec, device, options)
    workers = max(1, options.parallel_workers)
    tracer = get_tracer()
    deadline = (
        time.monotonic() + options.total_max_seconds
        if options.total_max_seconds
        else None
    )

    if options.checkpoint_dir:
        # Each arm checkpoints independently under the root directory;
        # the arm's own compile key (its variant device + options)
        # guards each sub-checkpoint against spec changes.
        subproblems = [
            Subproblem(
                sub.label,
                sub.device,
                sub.options.with_(
                    checkpoint_dir=arm_checkpoint_dir(
                        options.checkpoint_dir, sub.label
                    ),
                ),
                sub.priority,
            )
            for sub in subproblems
        ]

    results: List[Tuple[int, CompileResult]] = []
    with tracer.span(
        "portfolio", arms=len(subproblems), workers=workers
    ):
        if workers == 1:
            pending = _run_arms_inline(
                spec, subproblems, device, tracer, deadline, results
            )
        else:
            pending = _run_pooled(
                spec, subproblems, device, tracer, deadline, workers,
                results,
            )

    result = select_result(subproblems, results, device, pending=pending)
    if options.checkpoint_dir and result.status in (
        STATUS_TIMEOUT, STATUS_FAULT
    ):
        # Arms whose deadline expired before launch wrote nothing, so
        # the root may not exist yet; the re-run passes it back.
        root = Path(options.checkpoint_dir)
        root.mkdir(parents=True, exist_ok=True)
        result.checkpoint_path = str(root)
    return result
