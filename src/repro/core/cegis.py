"""The CEGIS loop (§5.2, Figure 13).

``CegisSession`` runs synthesis/verification rounds for one fixed
resource budget (a skeleton).  The synthesis phase solves the accumulated
test-case constraints with the CDCL solver; the verification phase runs the
exact product-equivalence checker.  Counterexamples flow back as new test
cases (edge ③ of Figure 13); an UNSAT synthesis result means no
implementation exists within this budget (edge ②)."""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..hw.impl import TcamProgram
from ..ir.bits import Bits
from ..ir.simulator import (
    OUTCOME_OVERRUN,
    ParseResult,
    simulate_spec,
    spec_input_bound,
    trace_spec,
)
from ..ir.spec import ParserSpec
from ..obs import get_tracer
from ..smt import SAT, Solver, UNKNOWN, UNSAT
from .encoder import SymbolicProgram
from .skeleton import Skeleton
from .testpool import ORIGIN_SEED, TestPool
from .verifier import verify_equivalent

# Pool replay runs one warm-up solve before every pool test after the
# first, so the solver absorbs the pool one test at a time, as live CEGIS
# discovers it.  One solve after ALL tests would hand the CDCL search a
# cold, maximally constrained instance with no learnt clauses or saved
# phases to steer it (measurably slower than discovering the same tests
# incrementally).
#
# Conflict cap for those warm-up solves.  A warm-up solve's job is to
# keep the CDCL state (saved phases, learnt clauses, activity)
# co-evolving with the constraints the way live CEGIS iterations would —
# not to fully decide the instance.  Most repairs converge in far fewer
# conflicts; when one doesn't, capping it and moving on is cheaper than
# letting a single hard intermediate instance burn the whole time slice.
POOL_WARMUP_MAX_CONFLICTS = 400


class SynthesisTimeout(Exception):
    """The synthesis budget (time or conflicts) ran out."""


@dataclass
class CegisOutcome:
    """How one attempt ended.  The attempt's work (solves, iterations,
    clauses) is recorded on the ambient tracer."""

    program: Optional[TcamProgram]
    feasible: bool
    # Certifying runs only.  On a winner: the SHA-256 of the exact CNF
    # clause stream the solver saw plus the ordered packet-level inputs
    # whose behaviour was encoded as constraints (the certificate's
    # witness tests).  On a proved UNSAT: the DRAT ProofLog refuting the
    # blasted formula.
    constraint_digest: str = ""
    witnesses: List[Bits] = field(default_factory=list)
    proof: Optional[object] = None


def initial_tests(
    spec: ParserSpec,
    rng: random.Random,
    max_tests: int = 48,
    max_steps: int = 64,
    directed: bool = True,
) -> List[Tuple[Bits, ParseResult]]:
    """Seed test set.

    The paper seeds CEGIS with a single random input/output pair and lets
    counterexamples do the rest.  We use the same loop but seed it with
    *directed* tests: starting from the all-zero input, each traced run
    spawns mutants that splice every rule's constant into the transition-key
    bit positions the trace touched, until every (path, outcome) signature
    discovered has a representative.  This covers each reachable rule with
    high probability and typically saves several CEGIS round-trips."""
    bound = max(8, spec_input_bound(spec, max_steps))
    if not directed:
        # Paper fidelity (§5.2): a single random input/output pair; the
        # CEGIS loop grows the rest from counterexamples.
        length = rng.randint(1, bound)
        bits = Bits(rng.getrandbits(length), length)
        return [(bits, simulate_spec(spec, bits, max_steps))]
    tests: List[Tuple[Bits, ParseResult]] = []
    seen_sigs = set()
    # Membership is checked (and recorded) at *enqueue* time: the queue
    # never holds an input twice, so it cannot balloon with the duplicate
    # mutants the splice loops produce, and popleft keeps dequeueing O(1)
    # (the old list.pop(0) made the whole BFS O(n^2)).
    seen_inputs = set()
    queue: deque = deque()

    def enqueue(bits: Bits) -> None:
        if bits not in seen_inputs:
            seen_inputs.add(bits)
            queue.append(bits)

    enqueue(Bits(0, bound))
    for _ in range(3):
        enqueue(Bits(rng.getrandbits(bound), bound))
    # Short inputs exercise truncation behaviour.
    enqueue(Bits(0, max(0, bound // 4)))
    enqueue(Bits(0, 1))
    processed = 0
    while queue and len(tests) < max_tests and processed < 10 * max_tests:
        bits = queue.popleft()
        processed += 1
        result, steps = trace_spec(spec, bits, max_steps)
        if result.outcome == OUTCOME_OVERRUN:
            continue
        # Signature includes the observed key values: two inputs with the
        # same spec path can still distinguish candidate implementations.
        sig = (
            tuple(result.path),
            result.outcome,
            tuple((s.state, s.key_value) for s in steps if s.key_width),
        )
        if sig not in seen_sigs:
            seen_sigs.add(sig)
            tests.append((bits, result))
        # Mutants: splice each rule constant of each traced keyed state
        # into the key positions that run touched.
        for step in steps:
            if not step.key_positions:
                continue
            state = spec.states[step.state]
            widths = [k.width for k in state.key]
            full = (1 << step.key_width) - 1
            if step.key_width <= 3:
                # Small key: enumerate it exhaustively.  CEGIS then sees the
                # state's complete transition behaviour up front, which
                # usually makes the first synthesized candidate correct.
                for value in range(1 << step.key_width):
                    enqueue(_splice(
                        bits, step.key_positions, step.key_width, value, full
                    ))
                continue
            for rule in state.rules:
                value, mask = rule.combined_value_mask(widths)
                enqueue(_splice(bits, step.key_positions, step.key_width,
                                value, mask))
                # Neighbourhood of each constant (flip one masked bit) plus
                # a random probe, to hit default arms and near-misses.
                for b in range(step.key_width):
                    if (mask >> b) & 1:
                        enqueue(_splice(
                            bits, step.key_positions, step.key_width,
                            value ^ (1 << b), full,
                        ))
                rnd = rng.getrandbits(step.key_width) if step.key_width else 0
                enqueue(_splice(bits, step.key_positions, step.key_width,
                                rnd, full))
    return tests


def _splice(
    bits: Bits, positions: List[int], key_width: int, value: int, mask: int
) -> Bits:
    """Overwrite the masked key bits at their absolute input positions."""
    raw = bits.uint()
    n = len(bits)
    for j, pos in enumerate(positions):
        if pos >= n:
            continue
        bit_index = key_width - 1 - j
        if not (mask >> bit_index) & 1:
            continue
        shift = n - 1 - pos
        if (value >> bit_index) & 1:
            raw |= 1 << shift
        else:
            raw &= ~(1 << shift)
    return Bits(raw, n)



class CegisSession:
    """One skeleton's CEGIS run, resumable across time slices.

    The budget search retries a budget whose slice expired with a larger
    slice.  A cold retry re-runs the whole deterministic iteration
    sequence from scratch — every solve, decode and verification of the
    expired attempt is repeated before any new ground is covered.  A
    session instead keeps the *live* run between attempts: the CDCL
    solver (learnt clauses, saved phases, activity), the constraints
    already encoded, the RNG position, the replay/pool cursors and the
    iteration counter.  :meth:`run` executes one attempt under its own
    time budget; when it raises :class:`SynthesisTimeout` the caller can
    simply call :meth:`run` again later and the session continues where
    it stopped, skipping all duplicated work.

    ``max_iterations`` caps the *total* live iterations across the
    session's lifetime — the same ceiling a cold re-run enforces per
    attempt, so a warm continuation can never converge on an iteration a
    cold schedule would not also have reached.

    ``replay`` seeds the run with counterexamples recorded by an earlier
    (interrupted) attempt at the *same* budget.  Replay is faithful: each
    replayed counterexample is preceded by the same ``solver.check`` call
    the original iteration made, so the CDCL solver passes through the
    identical state sequence and the resumed run converges to the same
    program an uninterrupted run would — while skipping the replayed
    iterations' candidate decoding and equivalence verification (the
    expensive half of a CEGIS round).  ``on_counterexample`` is invoked
    with each *newly* discovered counterexample's input, which is how the
    checkpoint layer records them.

    ``pool`` is the compile-wide :class:`TestPool` (a session given
    none gets a private, empty one): its first ``pool_base`` entries
    (all of it when None) are encoded as up-front constraints — no
    solve, no verification — and the seed tests this run generates are
    recorded back into it.  When the seeded prefix already carries
    directed seed tests, this run reuses them instead of regenerating
    its own (initial_tests depends on the spec, not the budget).
    ``pool_base`` exists for faithful crash-resume: a resumed budget
    must see exactly the pool prefix the interrupted run saw when it
    started, not entries recorded afterwards.
    """

    def __init__(
        self,
        skeleton: Skeleton,
        rng: random.Random,
        max_iterations: int = 40,
        directed_tests: bool = True,
        replay: Optional[Sequence[Bits]] = None,
        on_counterexample: Optional[Callable[[Bits], None]] = None,
        pool: Optional[TestPool] = None,
        pool_base: Optional[int] = None,
        certify: bool = False,
    ) -> None:
        self.skeleton = skeleton
        self.spec = skeleton.spec
        self.max_steps = max(skeleton.unroll_steps, 16)
        self.rng = rng
        self.max_iterations = max_iterations
        self.directed_tests = directed_tests
        self.on_counterexample = on_counterexample
        self.pool = pool if pool is not None else TestPool(self.spec)
        self.pool_base = pool_base
        self.certify = certify
        self._sp = SymbolicProgram(skeleton)
        # Certifying runs log a DRAT proof of every solver verdict; the
        # search itself is identical (logging only observes).
        self._solver = Solver(proof=certify)
        # Ordered packet-level inputs whose expected behaviour was
        # encoded as constraints — the witness tests of a certificate.
        self._witnesses: List[Bits] = []
        # The pool prefix is materialized now: the session must seed
        # exactly the prefix that existed when the attempt started, even
        # if the shared pool keeps growing while this budget is parked
        # between slices.
        self._pool_tests = self.pool.tests(self.max_steps, size=pool_base)
        self._replay = list(replay or ())
        # Resume cursors: each phase records how far it got, so a slice
        # that expires mid-phase continues from the same position.
        self._structural_done = False
        self._pool_pos = 0
        self._since_solve = 0
        self._seeds_done = False
        self._replay_pos = 0
        self._iterations = 0
        self._encoded_inputs: set = set()

    # ------------------------------------------------------------------
    def _encode_test(self, bits: Bits, expected: ParseResult) -> None:
        """Encode one test's expected behaviour as constraints, keeping
        the ordered witness record in certifying mode."""
        if self.certify:
            self._witnesses.append(bits)
        for constraint in self._sp.encode_test(bits, expected):
            self._solver.add(constraint)

    def _refuted(self) -> CegisOutcome:
        """A proved-UNSAT outcome, carrying the refutation when
        certifying (the solver logs no proof otherwise)."""
        return CegisOutcome(None, False, proof=self._solver.proof)

    # ------------------------------------------------------------------
    def run(
        self,
        max_seconds: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> CegisOutcome:
        """One attempt.  Returns the outcome (``feasible=False`` for a
        proved UNSAT); raises :class:`SynthesisTimeout` when the attempt's
        budget expires, leaving the session resumable.  The attempt's
        work lands on the ambient tracer once, as it happens, so
        attempts of one session add up without double counting."""
        spec = self.spec
        sp = self._sp
        solver = self._solver
        max_steps = self.max_steps
        tracer = get_tracer()
        started = time.monotonic()
        clauses_at_entry = solver.sat_solver.num_clauses_added

        def remaining() -> Optional[float]:
            limits = []
            if max_seconds is not None:
                limits.append(max_seconds - (time.monotonic() - started))
            if deadline is not None:
                limits.append(deadline - time.monotonic())
            if not limits:
                return None
            return min(limits)

        def solve_once(max_conflicts: Optional[int] = None) -> str:
            """One budgeted ``solver.check`` under a ``sat.solve`` span
            (shared by replayed and live iterations, so both stay
            comparable in the trace).  Only pool-replay warm-up solves
            cap ``max_conflicts``."""
            budget_s = remaining()
            if budget_s is not None and budget_s <= 0:
                raise SynthesisTimeout("CEGIS time budget exhausted")
            with tracer.span("sat.solve"):
                return solver.check(
                    max_seconds=budget_s, max_conflicts=max_conflicts
                )

        # Everything below adds clauses; the finally block snapshots the
        # solver's insertion count so every exit path (success, UNSAT,
        # timeout, fault) counts how many CNF clauses this attempt cost.
        try:
            if not self._structural_done:
                for constraint in sp.structural_constraints():
                    solver.add(constraint)
                self._structural_done = True

            # Up-front test constraints: the shared pool's prefix first
            # (each entry is a solve+verify round-trip this run skips),
            # then this budget's own directed seeds — unless the pool
            # prefix already carries seed tests, in which case
            # regenerating them would only duplicate near-identical
            # coverage at full encoding cost.
            while self._pool_pos < len(self._pool_tests):
                bits, expected, origin = self._pool_tests[self._pool_pos]
                if bits in self._encoded_inputs:
                    self._pool_pos += 1
                    continue
                if self._since_solve:
                    # Warm-up solve before this test: learnt clauses and
                    # saved phases from it make the test's constraints
                    # cheap to absorb.  A slice that expires inside it
                    # leaves _since_solve set, so the resumed attempt
                    # repeats the solve.  UNSAT here soundly
                    # retires the budget — pool tests are valid for the
                    # spec, so no correct program at this budget exists.
                    # A conflict-capped UNKNOWN just stops warming: the
                    # learnt clauses are kept and the live loop's
                    # uncapped solves settle the instance.
                    with tracer.span("cegis.pool_warmup"):
                        status = solve_once(
                            max_conflicts=POOL_WARMUP_MAX_CONFLICTS
                        )
                    if status == UNSAT:
                        return self._refuted()
                    self._since_solve = 0
                self._encoded_inputs.add(bits)
                self._encode_test(bits, expected)
                self._pool_pos += 1
                self._since_solve += 1
                tracer.count("tests.pool_hits")
                if origin != ORIGIN_SEED:
                    tracer.count("cex.reused")

            if not self._seeds_done:
                self._seeds_done = True
                if not self.pool.has_seeds(self.pool_base):
                    for bits, expected in initial_tests(
                        spec, self.rng, max_steps=max_steps,
                        directed=self.directed_tests,
                    ):
                        self.pool.add(bits, ORIGIN_SEED)
                        if bits in self._encoded_inputs:
                            continue
                        self._encoded_inputs.add(bits)
                        self._encode_test(bits, expected)

            # Checkpoint replay: re-apply previously discovered
            # counterexamples, preceding each with the solve its original
            # iteration made (keeping the CDCL state identical to the
            # interrupted run's) but skipping the decode + verification
            # work — that is where resume saves time.
            while self._replay_pos < len(self._replay):
                bits = self._replay[self._replay_pos]
                expected = simulate_spec(spec, bits, max_steps)
                if expected.outcome == OUTCOME_OVERRUN:
                    self._replay_pos += 1
                    continue
                with tracer.span("cegis.replay", index=self._replay_pos + 1):
                    status = solve_once()
                if status == UNSAT:
                    return self._refuted()
                if status == UNKNOWN:
                    raise SynthesisTimeout("SAT solver budget exhausted")
                self._encode_test(bits, expected)
                self._replay_pos += 1
                tracer.count("cegis.replayed")

            while self._iterations < self.max_iterations:
                self._iterations += 1
                tracer.count("cegis.iterations")
                with tracer.span("cegis.iteration", index=self._iterations):
                    status = solve_once()
                    if status == UNSAT:
                        return self._refuted()
                    if status == UNKNOWN:
                        raise SynthesisTimeout("SAT solver budget exhausted")
                    candidate = sp.decode(solver.model())
                    with tracer.span("verify"):
                        cex = verify_equivalent(
                            spec, candidate, max_steps=max_steps
                        )
                    if cex is None:
                        outcome = CegisOutcome(candidate, True)
                        if self.certify:
                            outcome.constraint_digest = (
                                solver.proof.input_digest()
                            )
                            outcome.witnesses = list(self._witnesses)
                        return outcome
                    tracer.count("cegis.counterexamples")
                    if self.on_counterexample is not None:
                        self.on_counterexample(cex.bits)
                expected = simulate_spec(spec, cex.bits, max_steps)
                if expected.outcome == OUTCOME_OVERRUN:
                    raise RuntimeError(
                        "specification overran its step bound on a "
                        "counterexample"
                    )
                self._encode_test(cex.bits, expected)
            raise SynthesisTimeout(
                f"CEGIS did not converge within {self.max_iterations} "
                "iterations"
            )
        finally:
            tracer.count(
                "sat.clauses_added",
                solver.sat_solver.num_clauses_added - clauses_at_entry,
            )
