"""z3py-style ``Solver`` facade over the term layer, bit-blaster and CDCL.

Supports incremental use: ``add`` asserts terms and ``check``/``model``
mirror the z3 calling convention closely enough that ParserHawk's CEGIS
loop reads like the paper's pseudo-code.  Assertions are permanent: CEGIS
only ever adds constraints between checks, so the facade has no scopes
and ``check`` takes no assumption literals.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..obs import get_tracer
from ..resilience import SolverResourceExhausted
from ..resilience.injection import fault_point
from .bitblast import BitBlaster
from .sat.solver import Budget, SatSolver
from .terms import BOOL, Term, collect_vars

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class Model:
    """A satisfying assignment; evaluate variables or whole terms."""

    def __init__(self, blaster: BitBlaster, assertions_vars: Iterable[Term]):
        self._blaster = blaster
        self._values: Dict[Term, int] = {}
        for var in assertions_vars:
            if var.sort == BOOL:
                self._values[var] = self._blaster.model_bool(var)
            else:
                self._values[var] = self._blaster.model_bv(var)

    def __getitem__(self, var: Term):
        if var in self._values:
            return self._values[var]
        # Variable never asserted: default value.
        return False if var.sort == BOOL else 0

    def __contains__(self, var: Term) -> bool:
        return var in self._values

    def eval(self, term: Term):
        """Evaluate an arbitrary term under this model."""
        from .terms import evaluate

        env = dict(self._values)
        for var in collect_vars(term):
            if var not in env:
                env[var] = False if var.sort == BOOL else 0
        return evaluate(term, env)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{v.extra[0]}={val}" for v, val in sorted(
                self._values.items(), key=lambda kv: kv[0].extra[0]
            )
        )
        return f"Model({parts})"


class Solver:
    """Incremental SMT solver for the Bool+BitVec fragment.

    ``proof=True`` turns on DRAT logging in the underlying CDCL core
    (see :mod:`repro.smt.sat.proof`); the log is reachable via
    :attr:`proof` and covers every clause the bit-blaster emits, so an
    UNSAT verdict from :meth:`check` carries a checkable refutation of
    the blasted CNF.
    """

    def __init__(self, proof: bool = False) -> None:
        self._sat = SatSolver()
        if proof:
            self._sat.enable_proof()
        self._blaster = BitBlaster(self._sat)
        self._vars: set[Term] = set()
        # Terms whose sub-DAG was already scanned for variables.  Interned
        # terms make this sound, and it turns per-assert variable
        # collection incremental: CEGIS asserts thousands of constraints
        # over one shared candidate circuit, and only the first walk pays
        # for the shared structure.
        self._scanned: set[Term] = set()
        self._model: Optional[Model] = None
        self._gate_hits_seen = 0  # for per-check gate-cache deltas
        self._proof_logged_seen = 0  # for per-check proof-step deltas

    # ------------------------------------------------------------------
    def add(self, *terms: Term) -> None:
        """Assert one or more Bool terms."""
        for term in terms:
            if not isinstance(term, Term) or term.sort != BOOL:
                raise TypeError(f"Solver.add expects Bool terms, got {term!r}")
            collect_vars(term, self._vars, self._scanned)
            self._blaster.assert_term(term)

    def check(
        self,
        *,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> str:
        """Solve; returns "sat", "unsat", or "unknown" (budget exhausted)."""
        budget = None
        if max_conflicts is not None or max_seconds is not None:
            budget = Budget(max_conflicts=max_conflicts, max_seconds=max_seconds)
        fault_point("sat.solve")
        try:
            result = self._sat.solve(budget=budget)
        except (MemoryError, RecursionError) as exc:
            # Hard resource exhaustion (as opposed to a *planned* budget,
            # which reports "unknown"): surface as a typed CompileFault so
            # supervision layers can turn it into a per-arm failure.
            raise SolverResourceExhausted(
                f"SAT solver exhausted interpreter resources: "
                f"{type(exc).__name__}", site="sat.solve",
            ) from exc
        # Gate-cache hits accrue during add()/bit-blasting between checks;
        # attribute each stretch to the check that consumes it so the
        # per-check counts stay additive.
        hits = self._blaster.gate_cache_hits
        gate_hits = hits - self._gate_hits_seen
        self._gate_hits_seen = hits
        tracer = get_tracer()
        if tracer.enabled:
            delta = self._sat.last_solve_stats
            tracer.count("sat.solves")
            tracer.count("sat.conflicts", delta.get("conflicts", 0))
            tracer.count("sat.decisions", delta.get("decisions", 0))
            tracer.count("sat.propagations", delta.get("propagations", 0))
            tracer.count("sat.restarts", delta.get("restarts", 0))
            tracer.count("sat.learnt_clauses", delta.get("learned", 0))
            # Per-phase solver time and CNF-cache effectiveness: the
            # solver's own profile, readable from any span breakdown
            # without external tooling.
            tracer.count(
                "sat.propagate_seconds", delta.get("propagate_seconds", 0.0)
            )
            tracer.count(
                "sat.analyze_seconds", delta.get("analyze_seconds", 0.0)
            )
            tracer.count("sat.gate_cache_hits", gate_hits)
            if self._sat.proof is not None:
                logged = self._sat.proof.clauses_logged
                tracer.count(
                    "proof.clauses_logged", logged - self._proof_logged_seen
                )
                self._proof_logged_seen = logged
        if result is None:
            return UNKNOWN
        if result:
            self._model = Model(self._blaster, self._vars)
            return SAT
        self._model = None
        return UNSAT

    def model(self) -> Model:
        if self._model is None:
            raise RuntimeError("model() requires a prior sat check()")
        return self._model

    def stats(self) -> Dict[str, int]:
        return self._sat.stats()

    @property
    def proof(self):
        """The underlying DRAT :class:`ProofLog`, or None when disabled."""
        return self._sat.proof

    @property
    def sat_solver(self) -> SatSolver:
        return self._sat

    @property
    def blaster(self) -> BitBlaster:
        return self._blaster

