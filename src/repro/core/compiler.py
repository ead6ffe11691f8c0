"""ParserHawk's top-level compiler (Figure 8's whole pipeline).

``ParserHawkCompiler.compile`` runs:

1. front-end — canonicalize the spec, unroll self-loops for forward-only
   targets, apply Opt2/Opt6 scaling;
2. resource search — iterate budgets (stages outer for pipelined targets,
   TCAM entries inner) from their lower bounds upward; the first budget
   whose CEGIS run succeeds is resource-minimal;
3. back-end — post-synthesis optimization, scale restoration, a final
   exact verification against the *original* specification, and a device
   constraint check.

Opt7's portfolio (loop-free vs loop-aware arms, §6.7.1) runs the loop-free
arm first for loop-free specs — the sequential emulation of the paper's
parallel race.  The process-pool race is
:func:`repro.core.parallel.portfolio_compile`'s, over key-limit arms
(``options.parallel_workers``); each of its arms runs this compiler.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Iterable, List, Optional, Tuple

from ..hw.device import DeviceProfile
from ..ir.analysis import check_extract_before_use, has_loops, max_parse_depth
from ..ir.bits import Bits
from ..ir.spec import ParserSpec
from ..obs import Tracer, get_tracer, use_tracer
from ..persist import (
    CheckpointManager,
    cache_for_options,
    certificate_doc,
    compile_key,
    spec_fingerprint,
    write_certificate,
)
from ..resilience import CompileFault
from .cegis import CegisSession, SynthesisTimeout
from .encoder import EncodingOverflow
from .normalize import CompileError, prepare_spec
from .options import CompileOptions
from .postopt import optimize as post_optimize
from .result import (
    STATUS_FAULT,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_TIMEOUT,
    CompileResult,
    CompileStats,
)
from .skeleton import build_skeleton, entry_lower_bound
from .testpool import ORIGIN_CEX, TestPool
from .verifier import VerificationBudgetExceeded, verify_equivalent


# Factor by which every undecided budget's time slice grows between
# rounds of the iterative-deepening schedule (§6.7.2).
TIME_SLICE_GROWTH = 4.0


def _budget_rng(
    seed: int,
    allow_loops: bool,
    stage_budget: Optional[int],
    num_entries: int,
    tag: str = "",
) -> random.Random:
    """Per-budget RNG, derived (not shared) so each budget's CEGIS run is
    independent of which budgets were visited before it.  Resume skips
    retired budgets entirely; a shared stream would make the surviving
    budgets see different randomness than the uninterrupted run did."""
    material = f"{seed}:{int(allow_loops)}:{stage_budget}:{num_entries}:{tag}"
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class ParserHawkCompiler:
    """Program-synthesis-based parser compiler."""

    def __init__(self, options: Optional[CompileOptions] = None) -> None:
        self.options = options or CompileOptions()

    # ------------------------------------------------------------------
    def compile(
        self, spec: ParserSpec, device: DeviceProfile
    ) -> CompileResult:
        """Compile ``spec`` for ``device``.

        Persistence (both optional, see :mod:`repro.persist`):

        * a compile cache (``options.cache_dir``) is consulted before any
          synthesis and fed on success;
        * a checkpoint directory (``options.checkpoint_dir``) makes CEGIS
          progress durable, and a checkpoint already there with a
          matching compile key is resumed: an interrupted compile
          restarts seeded with all previously discovered counterexamples
          and skips budgets proved UNSAT.  Timeout/fault results then
          carry ``checkpoint_path`` naming the file that continues them.
        """
        options = self.options
        cache = cache_for_options(options)
        key = ""
        if cache is not None or options.checkpoint_dir:
            key = compile_key(spec, device, options)
        if cache is not None:
            hit = cache.lookup(key, device)
            if hit is not None:
                cert = cache.cert_path(key)
                if cert.exists():
                    hit.certificate_path = str(cert)
                return hit
        manager: Optional[CheckpointManager] = None
        if options.checkpoint_dir:
            manager = CheckpointManager(options.checkpoint_dir, key)

        # CompileStats is read off the compile span, so a compile always
        # records: under the caller's tracer, else under a private one.
        tracer = get_tracer()
        if not tracer.enabled:
            tracer = Tracer()
        with use_tracer(tracer), tracer.span(
            "compile", spec=spec.name, device=device.name
        ) as compile_span:
            deadline = (
                compile_span.start + options.total_max_seconds
                if options.total_max_seconds
                else None
            )
            result = self._compile_checked(
                spec, device, options, deadline, manager
            )
        result.stats = CompileStats.from_span(compile_span)
        result.options_summary = options.enabled_summary()
        if result.ok:
            if manager is not None:
                manager.flush()
            if cache is not None:
                cache.store(
                    key,
                    result,
                    meta={"spec": spec.name, "device": device.name},
                )
                if options.certify and result._certify_payload is not None:
                    payload = result._certify_payload
                    doc = certificate_doc(
                        spec,
                        device,
                        result.program,
                        compile_key=key,
                        constraint_digest=payload["constraint_digest"],
                        witnesses=payload["witnesses"],
                        max_steps=payload["max_steps"],
                    )
                    cert = cache.cert_path(key)
                    if write_certificate(cert, doc):
                        result.certificate_path = str(cert)
        return result

    # ------------------------------------------------------------------
    def _compile_checked(
        self,
        spec: ParserSpec,
        device: DeviceProfile,
        options: CompileOptions,
        deadline: Optional[float],
        manager: Optional[CheckpointManager],
    ) -> CompileResult:
        """The compile span's body: every anticipated failure becomes a
        typed result."""
        problems = check_extract_before_use(spec)
        if problems:
            return CompileResult(
                STATUS_INFEASIBLE, device, message="; ".join(problems)
            )
        try:
            return self._compile_scaled(
                spec, device, options, deadline, manager
            )
        except CompileError as exc:
            return CompileResult(STATUS_INFEASIBLE, device, message=str(exc))
        except SynthesisTimeout as exc:
            result = CompileResult(STATUS_TIMEOUT, device, message=str(exc))
        except CompileFault as exc:
            # An anticipated abnormal failure (solver resource
            # exhaustion, injected fault): degrade to a typed result
            # instead of unwinding the caller — the portfolio records
            # it as a per-arm failure and keeps the other arms racing.
            get_tracer().count("compile.faults")
            result = CompileResult(
                STATUS_FAULT, device, message=exc.describe()
            )
        if manager is not None:
            # Resumable failure: flush a final checkpoint and name it on
            # the result.
            manager.flush()
            result.checkpoint_path = str(manager.path)
        return result

    def _compile_scaled(
        self,
        spec: ParserSpec,
        device: DeviceProfile,
        options: CompileOptions,
        deadline: Optional[float],
        manager: Optional[CheckpointManager] = None,
    ) -> CompileResult:
        arms = self._portfolio_arms(spec, device, options)
        tracer = get_tracer()
        last_failure = "no feasible budget found"
        for allow_loops in arms:
            with tracer.span(
                "arm", mode="loop-aware" if allow_loops else "loop-free"
            ):
                synth_spec, plan = prepare_spec(
                    spec,
                    pipelined=device.is_pipelined or not allow_loops,
                    minimize_widths=options.opt2_bitwidth_minimization,
                    fix_varbits=options.opt6_fixed_varbits,
                )
                result = self._search_budgets(
                    spec, synth_spec, plan, device, options, deadline,
                    allow_loops, manager,
                )
            if result.ok:
                return result
            last_failure = result.message or last_failure
        return CompileResult(STATUS_INFEASIBLE, device, message=last_failure)

    def _portfolio_arms(
        self,
        spec: ParserSpec,
        device: DeviceProfile,
        options: CompileOptions,
    ) -> List[bool]:
        """Which loop modes to try, in order (§6.7.1)."""
        if device.is_pipelined:
            return [False]
        if not device.allows_loops:
            return [False]
        if options.opt7_parallelism and not has_loops(spec):
            # Loop-free arm first: smaller search space, usually wins the
            # race the paper runs in parallel.
            return [False, True]
        return [True]

    # ------------------------------------------------------------------
    def _search_budgets(
        self,
        original_spec: ParserSpec,
        synth_spec: ParserSpec,
        plan,
        device: DeviceProfile,
        options: CompileOptions,
        deadline: Optional[float],
        allow_loops: bool,
        manager: Optional[CheckpointManager] = None,
    ) -> CompileResult:
        # Checkpoint and pool state are keyed per (loop mode, prepared
        # spec): the counterexample inputs live in the *synthesis* spec's
        # bit layout (Opt2/Opt6 scaling changes it), so recorded tests
        # must never cross layouts.
        arm_key = (
            ("loop" if allow_loops else "fwd") + ":"
            + spec_fingerprint(synth_spec)[:16]
        )
        pool = TestPool(synth_spec)
        if manager is not None:
            # Resume: rebuild the pool exactly as recorded (content AND
            # order — budget runs are seeded from its prefixes, so
            # faithfulness depends on both); every later write snapshots
            # its new entries.
            for value, length, origin in manager.pool_entries(arm_key):
                pool.add(Bits(value, length), origin)
            manager.track_pool(arm_key, pool)
        entry_lb = entry_lower_bound(synth_spec, device)
        entry_ub = min(
            device.total_entry_budget(),
            entry_lb + options.max_extra_entries,
        )
        if device.is_pipelined:
            stage_lb = max(1, max_parse_depth(synth_spec))
            stage_budgets: Iterable[Optional[int]] = range(
                min(stage_lb, device.stage_limit), device.stage_limit + 1
            )
        else:
            stage_budgets = [None]
        # Budget exploration uses iterative deepening with time slices
        # (the sequential emulation of §6.7.2's parallel subproblem
        # portfolio): ascending budgets each get a slice; budgets proved
        # UNSAT are retired; budgets whose slice expires are retried with a
        # larger slice only if nothing cheaper succeeds first.  The first
        # success is therefore the smallest budget the solver could settle
        # within the escalation schedule.
        budgets: List[Tuple[Optional[int], int]] = []
        for stage_budget in stage_budgets:
            for num_entries in range(entry_lb, entry_ub + 1):
                budgets.append((stage_budget, num_entries))
        retired: set = set()
        attempted: set = set()
        # Warm solver paths (incremental synthesis): budgets whose time
        # slice expired park their live CegisSession here and the next
        # escalation round *continues* it — no re-encoding, no repeated
        # solves or verifications.
        warm_sessions: dict = {}
        tracer = get_tracer()
        saw_unknown = False
        slice_seconds = options.budget_time_slice
        if manager is not None:
            # Resume: budgets a previous run proved UNSAT stay retired,
            # and the escalation schedule restarts at the slice the
            # previous run had reached (smaller slices are already known
            # to be insufficient for the surviving budgets).
            preloaded = manager.retired_budgets(arm_key)
            if preloaded:
                retired |= preloaded
                tracer.count("checkpoint.budgets_skipped", len(preloaded))
            persisted_slice = manager.resume_slice(arm_key)
            if persisted_slice:
                slice_seconds = max(slice_seconds, min(
                    persisted_slice, options.max_time_slice
                ))
        while budgets and slice_seconds <= options.max_time_slice:
            remaining: List[Tuple[Optional[int], int]] = []
            for stage_budget, num_entries in budgets:
                budget_key = (stage_budget, num_entries)
                if budget_key in retired:
                    continue
                if deadline is not None and time.monotonic() > deadline:
                    raise SynthesisTimeout("compiler deadline exceeded")
                first_visit = budget_key not in attempted
                if first_visit:
                    attempted.add(budget_key)
                    tracer.count("budget.attempts")
                else:
                    # A later escalation round re-attempting a budget whose
                    # earlier time slice expired is a retry, not a new
                    # budget (the old code inflated budgets_tried here).
                    tracer.count("budget.retries")
                with tracer.span(
                    "budget",
                    stages=stage_budget,
                    entries=num_entries,
                    slice=slice_seconds,
                ) as budget_span:
                    session = warm_sessions.get(budget_key)
                    if session is not None:
                        # Warm continuation: the expired attempt's solver,
                        # constraints, RNG position and iteration counter
                        # are all live — this slice picks up exactly where
                        # the previous one stopped.
                        tracer.count("budget.warm_resumes")
                    else:
                        skeleton = build_skeleton(
                            synth_spec,
                            device,
                            options,
                            num_entries=num_entries,
                            stage_budget=stage_budget,
                            allow_loops=allow_loops,
                        )
                        budget_span.attrs["search_space_bits"] = (
                            skeleton.search_space_bits()
                        )
                        rng = _budget_rng(
                            options.seed, allow_loops, stage_budget,
                            num_entries,
                        )
                        # The checkpoint records each budget's LATEST
                        # attempt.  Only a budget's first visit can
                        # faithfully continue a persisted one; a later
                        # cold attempt starts afresh (from the full
                        # current pool, whose earlier discoveries make
                        # retries cheap) and resets the record to match.
                        attempt = None
                        if manager is not None and first_visit:
                            attempt = manager.latest_attempt(
                                arm_key, budget_key
                            )
                        if attempt is not None:
                            pool_base, replay = attempt
                        else:
                            pool_base = len(pool)
                            replay = None
                            if manager is not None:
                                manager.begin_attempt(
                                    arm_key, budget_key, pool_base
                                )

                        def on_cex(bits, _b=budget_key):
                            # Pool entry first: the counterexample's
                            # write-through then carries both.
                            pool.add(bits, ORIGIN_CEX)
                            if manager is not None:
                                manager.record_counterexample(
                                    arm_key, _b, bits
                                )

                        session = CegisSession(
                            skeleton,
                            rng,
                            directed_tests=options.directed_seed_tests,
                            replay=replay,
                            on_counterexample=on_cex,
                            pool=pool,
                            pool_base=pool_base,
                            certify=options.certify,
                        )
                    try:
                        outcome = session.run(
                            max_seconds=slice_seconds, deadline=deadline
                        )
                    except SynthesisTimeout:
                        saw_unknown = True
                        remaining.append(budget_key)
                        warm_sessions[budget_key] = session
                        continue
                    except (
                        EncodingOverflow, VerificationBudgetExceeded
                    ) as exc:
                        return CompileResult(
                            STATUS_INFEASIBLE, device, message=str(exc)
                        )
                    # Terminal outcome (program or UNSAT proof): the
                    # session's solver state has no further use.
                    warm_sessions.pop(budget_key, None)
                    if not outcome.feasible:
                        retired.add(budget_key)
                        tracer.count("budget.retired")
                        if manager is not None:
                            # A certifying solve's refutation becomes an
                            # offline-checkable proof bundle.
                            manager.record_retired(
                                arm_key, budget_key, proof=outcome.proof
                            )
                        continue  # proved UNSAT at this budget; grow it
                    assert outcome.program is not None
                    program = post_optimize(outcome.program, device)
                    program = self._restore_scaling(program, plan)
                    final = self._finalize(
                        original_spec, program, device, options
                    )
                    if final is not None:
                        self._attach_certify_payload(
                            final, original_spec, outcome, options
                        )
                        return final
                    # Restoration failed validation (rare: scaling
                    # interacted with semantics): retry this budget
                    # without scaling.
                    final = self._retry_unscaled(
                        original_spec, device, options, deadline,
                        allow_loops, num_entries, stage_budget,
                        slice_seconds,
                    )
                    if final is not None:
                        return final
                    remaining.append(budget_key)
            budgets = remaining
            slice_seconds *= TIME_SLICE_GROWTH
            if manager is not None:
                manager.record_slice(arm_key, slice_seconds)
                manager.flush()
        # Undecided budgets (slice schedule ran out first) mean the search
        # timed out; if every budget was *retired* — each one individually
        # proved UNSAT — infeasibility is proved even when some earlier
        # slice expired along the way (saw_unknown only tracks transient
        # expiries, which retirement supersedes).
        if budgets or (saw_unknown and len(retired) < len(attempted)):
            raise SynthesisTimeout(
                "budget search exhausted its time-slice schedule"
            )
        return CompileResult(
            STATUS_INFEASIBLE,
            device,
            message="no implementation exists within the device's "
            "resource limits",
        )

    def _retry_unscaled(
        self,
        original_spec: ParserSpec,
        device: DeviceProfile,
        options: CompileOptions,
        deadline: Optional[float],
        allow_loops: bool,
        num_entries: int,
        stage_budget: Optional[int],
        slice_seconds: float,
    ) -> Optional[CompileResult]:
        rng = _budget_rng(
            options.seed, allow_loops, stage_budget, num_entries,
            tag="unscaled",
        )
        unscaled, _plan = prepare_spec(
            original_spec,
            pipelined=device.is_pipelined or not allow_loops,
            minimize_widths=False,
            fix_varbits=False,
        )
        skeleton = build_skeleton(
            unscaled,
            device,
            options,
            num_entries=num_entries,
            stage_budget=stage_budget,
            allow_loops=allow_loops,
        )
        try:
            outcome = CegisSession(
                skeleton,
                rng,
                directed_tests=options.directed_seed_tests,
                certify=options.certify,
            ).run(max_seconds=slice_seconds, deadline=deadline)
        except (
            SynthesisTimeout, EncodingOverflow, VerificationBudgetExceeded
        ):
            return None
        if outcome.feasible and outcome.program is not None:
            program = post_optimize(outcome.program, device)
            final = self._finalize(original_spec, program, device, options)
            if final is not None:
                self._attach_certify_payload(
                    final, original_spec, outcome, options
                )
            return final
        return None

    # ------------------------------------------------------------------
    @staticmethod
    def _attach_certify_payload(
        result: CompileResult,
        original_spec: ParserSpec,
        outcome,
        options: CompileOptions,
    ) -> None:
        """Stash the winning attempt's certificate material on the result
        (``compile`` writes it next to the cache entry at the end)."""
        if not options.certify:
            return
        result._certify_payload = {
            "constraint_digest": getattr(outcome, "constraint_digest", ""),
            "witnesses": list(getattr(outcome, "witnesses", ())),
            "max_steps": max(32, 4 * max_parse_depth(original_spec)),
        }

    @staticmethod
    def _restore_scaling(program, plan):
        from ..hw.impl import TcamProgram

        restored_fields = plan.restore_fields(program.fields)
        return TcamProgram(
            restored_fields,
            program.states,
            program.entries,
            program.start_sid,
            program.source_name,
        )

    def _finalize(
        self,
        original_spec: ParserSpec,
        program,
        device: DeviceProfile,
        options: CompileOptions,
    ) -> Optional[CompileResult]:
        violations = program.check_constraints(device)
        if violations:
            return None
        max_steps = max(32, 4 * max_parse_depth(original_spec))
        cex = verify_equivalent(original_spec, program, max_steps=max_steps)
        if cex is not None:
            return None
        return CompileResult(STATUS_OK, device, program=program)


def compile_spec(
    spec: ParserSpec,
    device: DeviceProfile,
    options: Optional[CompileOptions] = None,
) -> CompileResult:
    """Convenience one-shot compile."""
    return ParserHawkCompiler(options).compile(spec, device)
