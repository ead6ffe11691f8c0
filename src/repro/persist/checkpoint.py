"""Durable CEGIS / budget-search checkpoints.

A :class:`CheckpointManager` owns one checkpoint file
(``<dir>/checkpoint.json``) holding everything a killed compile needs to
restart cheaply:

* per-arm **counterexample sequences**, keyed by ``(arm, budget)`` — a
  budget's CEGIS run is deterministic (per-budget RNG, deterministic
  CDCL), so the recorded list is exactly the prefix of the iteration
  sequence an uninterrupted run would produce, and the resumed run
  *replays* it (solve → add, skipping candidate decode and the expensive
  equivalence verification) to land in the identical solver state before
  continuing live;
* per-arm **budget-search position**: budgets proved UNSAT (``retired``,
  skipped forever on resume) and the escalation schedule's current time
  slice;
* the per-arm **test pool** (see :mod:`repro.core.testpool`), in
  insertion order, plus each budget's ``pool_base`` — the pool size when
  that budget's run started.  A budget's solver state is a function of
  the pool prefix it seeded, so faithful replay needs the exact prefix
  reconstructed.

A portfolio keeps no file of its own: each arm checkpoints under
:func:`arm_checkpoint_dir`, and an arm that retired every budget
re-derives its infeasible verdict from its own ``retired`` list.

Durability contract: every write goes through
:mod:`repro.persist.atomic` (write-temp + fsync + rename, checksummed
envelope); a write failure is counted (``persist.write_failures``) and
after a few consecutive failures checkpointing turns itself off rather
than slow the compile down — persistence is best-effort, the compile
result is not allowed to depend on it.
"""

from __future__ import annotations

import time
import weakref
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..ir.bits import Bits
from ..obs import get_tracer
from ..resilience.retry import RetryPolicy
from .atomic import load_envelope, write_atomic

CHECKPOINT_KIND = "checkpoint"
# v2 added the per-arm test pool and per-budget pool_base.  A v1 file
# cannot be replayed faithfully by the incremental-synthesis engine (its
# recorded counterexamples assume pool prefixes it never stored), so the
# version gate treats it as absent (cold start) rather than migrating.
CHECKPOINT_VERSION = 2
CHECKPOINT_FILENAME = "checkpoint.json"

# Consecutive write failures after which a manager stops trying.  Only
# the give-up decision is reused from the retry machinery — flushes are
# never delayed (checkpointing must not slow the compile down), so the
# policy carries no backoff.
WRITE_RETRY_POLICY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)

BudgetKey = Tuple[Optional[int], int]        # (stage budget or None, entries)

# Managers with possibly-unflushed state, so a KeyboardInterrupt handler
# (see cli.main) can flush whatever compile was in flight.
_ACTIVE: "weakref.WeakSet[CheckpointManager]" = weakref.WeakSet()


def flush_active() -> int:
    """Force-flush every live manager; returns how many flushed."""
    flushed = 0
    for manager in list(_ACTIVE):
        if manager.flush(force=True):
            flushed += 1
    return flushed


def _budget_id(budget: BudgetKey) -> str:
    stage, entries = budget
    return f"{'-' if stage is None else stage}:{entries}"


class CheckpointManager:
    """One compile's durable state, bound to a ``compile_key``.

    An existing file is adopted *only* if its ``compile_key`` matches —
    a checkpoint for a different (spec, device, options) is never mixed
    in (counted as ``persist.key_mismatch``) and is overwritten by the
    first flush.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        compile_key: str,
        interval_seconds: float = 0.0,
    ) -> None:
        self.directory = Path(directory)
        self.path = self.directory / CHECKPOINT_FILENAME
        self.compile_key = compile_key
        self.interval_seconds = interval_seconds
        self.resumed = False
        self._dirty = False
        self._disabled = False
        self._write_state = WRITE_RETRY_POLICY.start(
            key=compile_key, sleep=None
        )
        self._last_flush = 0.0
        self.state: Dict[str, Any] = {"compile_key": compile_key, "arms": {}}
        self._load()
        # Materialize the file up front: a crash before the first
        # counterexample still leaves a resumable (if empty) checkpoint,
        # and failure results can name an existing path.
        self.flush(force=True)
        _ACTIVE.add(self)

    # -- loading -----------------------------------------------------------
    def _load(self) -> None:
        payload = load_envelope(
            self.path, CHECKPOINT_KIND, CHECKPOINT_VERSION
        )
        if payload is None:
            return
        if payload.get("compile_key") != self.compile_key:
            get_tracer().count("persist.key_mismatch")
            return
        self.state = payload
        self.state.setdefault("arms", {})
        self.resumed = True
        get_tracer().count("checkpoint.resumed")

    # -- arm / budget state ------------------------------------------------
    def _arm(self, arm_key: str) -> Dict[str, Any]:
        return self.state["arms"].setdefault(
            arm_key,
            {
                "slice_seconds": None,
                "retired": [],
                "budgets": {},
                "pool": [],
            },
        )

    def record_counterexample(
        self, arm_key: str, budget: BudgetKey, bits: Bits
    ) -> None:
        budget_doc = self._arm(arm_key)["budgets"].setdefault(
            _budget_id(budget), {"cex": []}
        )
        budget_doc["cex"].append([bits.uint(), len(bits)])
        self._dirty = True
        get_tracer().count("checkpoint.counterexamples")
        self.flush()

    def replay_for(self, arm_key: str, budget: BudgetKey) -> List[Bits]:
        arm = self.state["arms"].get(arm_key)
        if not arm:
            return []
        doc = arm["budgets"].get(_budget_id(budget))
        if not doc:
            return []
        return [Bits(value, length) for value, length in doc["cex"]]

    # -- test pool (repro.core.testpool) -----------------------------------
    def record_pool_entry(
        self, arm_key: str, value: int, length: int, origin: str
    ) -> None:
        """Append one pool entry (insertion order is part of the replay
        contract — budget runs seed from pool *prefixes*)."""
        self._arm(arm_key).setdefault("pool", []).append(
            [value, length, origin]
        )
        self._dirty = True
        get_tracer().count("checkpoint.pool_entries")
        self.flush()

    def pool_entries(self, arm_key: str) -> List[Tuple[int, int, str]]:
        arm = self.state["arms"].get(arm_key)
        if not arm:
            return []
        return [
            (value, length, origin)
            for value, length, origin in arm.get("pool", [])
        ]

    def begin_attempt(
        self, arm_key: str, budget: BudgetKey, base: int
    ) -> None:
        """Reset a budget's record for a fresh attempt.

        The checkpoint describes the budget's *latest* attempt: its
        ``pool_base`` (the full pool as of attempt start — earlier
        attempts' discoveries are in the pool, so a retry reuses them)
        and only the counterexamples that attempt discovers live.  A
        resumed run then replays exactly that attempt: seed the pool
        prefix, re-apply its recorded counterexamples."""
        self._arm(arm_key)["budgets"][_budget_id(budget)] = {
            "cex": [],
            "pool_base": base,
        }
        self._dirty = True

    def pool_base(self, arm_key: str, budget: BudgetKey) -> Optional[int]:
        arm = self.state["arms"].get(arm_key)
        if not arm:
            return None
        doc = arm["budgets"].get(_budget_id(budget))
        if not doc:
            return None
        return doc.get("pool_base")

    def record_retired(
        self,
        arm_key: str,
        budget: BudgetKey,
        proof_ref: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Mark a budget UNSAT.  ``proof_ref`` (certifying compiles) is
        the DRAT bundle manifest from
        :func:`repro.persist.certify.store_proof_bundle`, recorded under
        ``proof_refs`` so the retirement verdict is offline-checkable."""
        arm = self._arm(arm_key)
        entry = [budget[0], budget[1]]
        if entry not in arm["retired"]:
            arm["retired"].append(entry)
            self._dirty = True
        if proof_ref is not None:
            refs = arm.setdefault("proof_refs", {})
            refs[_budget_id(budget)] = proof_ref
            self._dirty = True
            self.flush()

    def proof_refs(self, arm_key: str) -> Dict[str, Dict[str, Any]]:
        """Recorded UNSAT proof-bundle references, keyed by budget id."""
        arm = self.state["arms"].get(arm_key)
        if not arm:
            return {}
        return dict(arm.get("proof_refs", {}))

    def retired_budgets(self, arm_key: str) -> Set[BudgetKey]:
        arm = self.state["arms"].get(arm_key)
        if not arm:
            return set()
        return {(stage, entries) for stage, entries in arm["retired"]}

    def record_slice(self, arm_key: str, slice_seconds: float) -> None:
        arm = self._arm(arm_key)
        if arm["slice_seconds"] != slice_seconds:
            arm["slice_seconds"] = slice_seconds
            self._dirty = True

    def resume_slice(self, arm_key: str) -> Optional[float]:
        arm = self.state["arms"].get(arm_key)
        if not arm:
            return None
        return arm["slice_seconds"]

    # -- flushing ----------------------------------------------------------
    def flush(self, force: bool = False) -> bool:
        """Write the state out if dirty (or forced); True when written.

        Failures degrade: counted, and checkpointing disables itself
        once ``WRITE_RETRY_POLICY`` is exhausted (consecutive errors; a
        good write in between resets the streak)."""
        if self._disabled:
            return False
        if not force:
            if not self._dirty:
                return False
            if (
                self.interval_seconds > 0
                and time.monotonic() - self._last_flush
                < self.interval_seconds
            ):
                return False
        try:
            write_atomic(
                self.path, CHECKPOINT_KIND, CHECKPOINT_VERSION, self.state
            )
        except Exception:
            tracer = get_tracer()
            tracer.count("persist.write_failures")
            if not self._write_state.record_failure():
                self._disabled = True
                tracer.count("checkpoint.disabled")
            return False
        self._write_state.record_success()
        self._dirty = False
        self._last_flush = time.monotonic()
        get_tracer().count("checkpoint.flushes")
        return True


def arm_checkpoint_dir(root: Union[str, Path], label: str) -> Path:
    """A stable per-portfolio-arm checkpoint directory under ``root``."""
    slug = "".join(
        ch if ch.isalnum() or ch in "-_" else "_" for ch in label
    )
    return Path(root) / "arms" / slug
