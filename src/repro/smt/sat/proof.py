"""DRAT-style proof logging for the CDCL core.

A :class:`ProofLog` records the clausal derivation a solve performs on
top of its input formula: every derived clause the solver commits to
(1-UIP learnt clauses, including units, and input clauses with
level-0-falsified literals stripped) is an *addition*, every learnt
clause that DB reduction discards is a *deletion*, and an
unsatisfiability verdict ends with the empty clause.  The log doubles as
a record of the original formula: ``inputs`` holds every clause handed
to ``add_clause`` verbatim, so a checker — or a certificate — can
reconstruct the CNF the proof refutes without trusting solver state.

Every addition the solver emits is RUP (reverse unit propagation) with
respect to the formula built from the inputs plus the prior additions
minus the prior deletions:

* a 1-UIP learnt clause (minimized or not) is RUP by construction;
* a clause with level-0-falsified literals stripped is RUP given the
  unit clauses that falsified them.

Additions are logged when the search derives them and deletions when
DB reduction drops them, so an addition always precedes the deletion
of its antecedents, as a DRAT checker requires.

Logging is off by default (``SatSolver.proof is None``) and every hook
in the hot path is a single ``is not None`` test, so the solve path is
untouched unless :meth:`SatSolver.enable_proof` was called.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Tuple

from .clause import to_dimacs

# A proof step is (is_deletion, packed-literal clause).
Step = Tuple[bool, List[int]]


class ProofLog:
    """In-memory DRAT log plus the input clause stream it refutes."""

    __slots__ = ("inputs", "steps", "additions", "deletions")

    def __init__(self) -> None:
        self.inputs: List[List[int]] = []
        self.steps: List[Step] = []
        self.additions = 0
        self.deletions = 0

    # -- recording ------------------------------------------------------
    def log_input(self, lits: Iterable[int]) -> None:
        self.inputs.append(list(lits))

    def add(self, lits: Iterable[int]) -> None:
        self.steps.append((False, list(lits)))
        self.additions += 1

    def add_empty(self) -> None:
        self.add(())

    def delete(self, lits: Iterable[int]) -> None:
        self.steps.append((True, list(lits)))
        self.deletions += 1

    @property
    def clauses_logged(self) -> int:
        return self.additions + self.deletions

    @property
    def has_refutation(self) -> bool:
        """True when the log ends in (contains) the empty clause."""
        for is_delete, lits in reversed(self.steps):
            if not is_delete and not lits:
                return True
        return False

    # -- rendering ------------------------------------------------------
    def to_drat(self) -> str:
        """Standard DRAT text: one clause per line, ``d`` for deletions."""
        lines = []
        for is_delete, lits in self.steps:
            body = " ".join(str(to_dimacs(l)) for l in lits)
            prefix = "d " if is_delete else ""
            lines.append(f"{prefix}{body} 0" if body else f"{prefix}0")
        return "\n".join(lines) + ("\n" if lines else "")

    def input_dimacs(self, num_vars: int = 0) -> str:
        """The recorded input formula as DIMACS CNF."""
        from .dimacs import write_dimacs

        for clause in self.inputs:
            for l in clause:
                if (l >> 1) + 1 > num_vars:
                    num_vars = (l >> 1) + 1
        return write_dimacs(num_vars, self.inputs)

    def input_digest(self) -> str:
        """SHA-256 over the canonical input clause stream.

        Order-sensitive on purpose: the digest identifies the exact
        constraint sequence a solve saw, which is what an equivalence
        certificate needs to pin down.
        """
        h = hashlib.sha256()
        for clause in self.inputs:
            h.update(",".join(str(l) for l in clause).encode("ascii"))
            h.update(b";")
        return h.hexdigest()
