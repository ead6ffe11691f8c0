"""Compilation result and statistics records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..hw.device import DeviceProfile
from ..hw.impl import TcamProgram
from ..obs import Span

STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"     # no implementation within device limits
STATUS_TIMEOUT = "timeout"
STATUS_FAULT = "fault"               # abnormal failure (crash, pool break, …)


@dataclass
class CompileStats:
    """Where the compile time went.

    Read off the closed ``compile`` span (:meth:`from_span`):
    ``total_seconds`` is that span, ``synthesis_seconds`` and
    ``verification_seconds`` sum its ``sat.solve`` and ``verify`` spans,
    ``search_space_bits`` is the largest skeleton a ``budget`` span
    built, and every other field totals one counter
    (:data:`STATS_COUNTERS`).  ``budgets_tried`` counts *unique*
    ``(stage, entries)`` budgets; re-attempts of the same budget under a
    larger time slice are ``budget_retries``.
    """

    synthesis_seconds: float = 0.0
    verification_seconds: float = 0.0
    total_seconds: float = 0.0
    cegis_iterations: int = 0
    # Counterexamples re-applied from a checkpoint on resume (each is one
    # solver round without the decode/verify half of a live iteration).
    cegis_replayed: int = 0
    # Tests replayed from the shared TestPool as up-front constraints
    # (cross-budget reuse); each one is a CEGIS round-trip
    # (solve + equivalence verification) that never had to happen.
    pool_tests_reused: int = 0
    sat_conflicts: int = 0
    sat_decisions: int = 0
    sat_propagations: int = 0
    sat_restarts: int = 0
    sat_learnt_clauses: int = 0
    # CNF clauses the bit-blaster emitted into solvers (constant folding
    # reduces this without changing any SAT/UNSAT answer).
    sat_clauses_added: int = 0
    # Tseitin gates served from the bit-blaster's structural CNF cache
    # instead of being re-encoded (hash-consed bit-blasting).
    sat_gate_cache_hits: int = 0
    budgets_tried: int = 0
    budget_retries: int = 0
    # Retries served by a parked warm CegisSession (solver state, encoded
    # constraints and iteration position carried over) instead of a cold
    # re-run from scratch.
    warm_resumes: int = 0
    budgets_retired: int = 0
    counterexamples: int = 0
    search_space_bits: int = 0

    @classmethod
    def from_span(cls, span: Span) -> "CompileStats":
        """The stats of the compile whose ``compile`` span is ``span``."""
        totals = span.counter_totals()
        stats = cls(
            total_seconds=span.elapsed(),
            **{
                name: totals.get(counter, 0)
                for name, counter in STATS_COUNTERS.items()
            },
        )
        pending = list(span.children)
        while pending:
            node = pending.pop()
            pending.extend(node.children)
            if node.name == "sat.solve":
                stats.synthesis_seconds += node.elapsed()
            elif node.name == "verify":
                stats.verification_seconds += node.elapsed()
            elif node.name == "budget":
                stats.search_space_bits = max(
                    stats.search_space_bits,
                    node.attrs.get("search_space_bits", 0),
                )
        return stats


# CompileStats field <- the counter it totals over the compile span.
STATS_COUNTERS = {
    "cegis_iterations": "cegis.iterations",
    "cegis_replayed": "cegis.replayed",
    "pool_tests_reused": "tests.pool_hits",
    "sat_conflicts": "sat.conflicts",
    "sat_decisions": "sat.decisions",
    "sat_propagations": "sat.propagations",
    "sat_restarts": "sat.restarts",
    "sat_learnt_clauses": "sat.learnt_clauses",
    "sat_clauses_added": "sat.clauses_added",
    "sat_gate_cache_hits": "sat.gate_cache_hits",
    "budgets_tried": "budget.attempts",
    "budget_retries": "budget.retries",
    "warm_resumes": "budget.warm_resumes",
    "budgets_retired": "budget.retired",
    "counterexamples": "cegis.counterexamples",
}


@dataclass
class CompileResult:
    """The outcome of one ParserHawk compilation."""

    status: str
    device: DeviceProfile
    program: Optional[TcamProgram] = None
    stats: CompileStats = field(default_factory=CompileStats)
    message: str = ""
    options_summary: str = ""
    # Served from the persistent compile cache (repro.persist.cache)
    # instead of a fresh synthesis run.
    cached: bool = False
    # For resumable failures (timeout/fault with checkpointing enabled):
    # what continues this compile when passed back as checkpoint_dir —
    # a single compile names <dir>/checkpoint.json, a portfolio names
    # the root directory its arms checkpoint under.
    checkpoint_path: str = ""
    # Certifying compiles: where the equivalence certificate landed
    # (empty when certification was off or no cache_dir was configured).
    certificate_path: str = ""
    # Internal hand-off from the budget search to the certificate writer:
    # the winning attempt's constraint digest, witness tests and the
    # verification step bound.  Never serialized.
    _certify_payload: Optional[dict] = field(
        default=None, repr=False, compare=False
    )
    # Memoized check_constraints() output (portfolio winner validation);
    # keyed implicitly by the device of the *first* call — the portfolio
    # only ever validates against its one real device profile.
    _violations: Optional[List[str]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK and self.program is not None

    def constraint_violations(self, device: DeviceProfile) -> List[str]:
        """``program.check_constraints(device)``, computed at most once.

        The portfolio both races on winner validity and reports the
        violations of skipped winners; memoizing here keeps that a
        single full constraint check per result."""
        if self.program is None:
            return ["no program synthesized"]
        if self._violations is None:
            self._violations = self.program.check_constraints(device)
        return self._violations

    @property
    def num_entries(self) -> int:
        if not self.program:
            return -1
        return self.program.num_entries

    @property
    def num_stages(self) -> int:
        if not self.program:
            return -1
        return self.program.num_stages

    def summary_row(self) -> str:
        if not self.ok:
            return f"{self.status}: {self.message}"
        suffix = " (cached)" if self.cached else ""
        return (
            f"{self.num_entries} entries, {self.num_stages} stage(s), "
            f"{self.stats.total_seconds:.2f}s, "
            f"{self.stats.cegis_iterations} CEGIS iteration(s), "
            f"search space {self.stats.search_space_bits} bits{suffix}"
        )
