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
  that budget's latest attempt started.  A budget's solver state is a
  function of the pool prefix it seeded, so faithful replay needs the
  exact prefix reconstructed;
* per-arm **proof references** (certifying compiles): each retired
  budget's DRAT bundle under ``proofs/``, named by the same budget id
  that keys its reference.

One write rule: only a counterexample writes the file through — no
re-run regenerates it without a solve and a verification.  Pool entries
(snapshotted from each tracked live pool), attempt starts, retirements
and slices ride along with the next write; the compiler also writes at
each escalation round's end and at the compile's end.

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

import weakref
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from ..ir.bits import Bits
from ..obs import get_tracer
from ..resilience.retry import RetryPolicy
from .atomic import file_slug, load_envelope, write_atomic
from .certify import store_proof_bundle

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

# Live managers, so a KeyboardInterrupt handler (see cli.main) can flush
# whatever compile was in flight.
_ACTIVE: "weakref.WeakSet[CheckpointManager]" = weakref.WeakSet()


def flush_active() -> int:
    """Flush every live manager; returns how many wrote."""
    flushed = 0
    for manager in list(_ACTIVE):
        if manager.flush():
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
        self, directory: Union[str, Path], compile_key: str
    ) -> None:
        self.directory = Path(directory)
        self.path = self.directory / CHECKPOINT_FILENAME
        self.compile_key = compile_key
        self.resumed = False
        self._disabled = False
        self._write_state = WRITE_RETRY_POLICY.start(
            key=compile_key, sleep=None
        )
        # Live test pools, per arm, snapshotted into the state on write.
        self._pools: Dict[str, Any] = {}
        self.state: Dict[str, Any] = {"compile_key": compile_key, "arms": {}}
        self._load()
        # Materialize the file up front: a crash before the first
        # counterexample still leaves a resumable (if empty) checkpoint,
        # and failure results can name an existing path.
        self.flush()
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
        """Append a live counterexample and write the file through —
        carrying every record made since the last write."""
        budget_doc = self._arm(arm_key)["budgets"].setdefault(
            _budget_id(budget), {"cex": []}
        )
        budget_doc["cex"].append([bits.uint(), len(bits)])
        get_tracer().count("checkpoint.counterexamples")
        self.flush()

    def latest_attempt(
        self, arm_key: str, budget: BudgetKey
    ) -> Optional[Tuple[Optional[int], List[Bits]]]:
        """The budget's persisted latest attempt — its ``pool_base`` and
        counterexamples, which a resumed run seeds and replays — or
        None if none was recorded."""
        arm = self.state["arms"].get(arm_key)
        doc = arm["budgets"].get(_budget_id(budget)) if arm else None
        if doc is None:
            return None
        return (
            doc.get("pool_base"),
            [Bits(value, length) for value, length in doc["cex"]],
        )

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

    # -- test pool (repro.core.testpool) -----------------------------------
    def track_pool(self, arm_key: str, pool: Any) -> None:
        """Persist the append-only ``pool`` (a
        :class:`~repro.core.testpool.TestPool`) in insertion order with
        every write from now on: each write appends its new entries."""
        self._pools[arm_key] = pool

    def pool_entries(self, arm_key: str) -> List[Tuple[int, int, str]]:
        arm = self.state["arms"].get(arm_key)
        if not arm:
            return []
        return [
            (value, length, origin)
            for value, length, origin in arm.get("pool", [])
        ]

    def _snapshot_pools(self) -> None:
        for arm_key, pool in self._pools.items():
            recorded = self._arm(arm_key).setdefault("pool", [])
            for entry in pool.prefix()[len(recorded):]:
                recorded.append(
                    [entry.bits.uint(), len(entry.bits), entry.origin]
                )

    def record_retired(
        self, arm_key: str, budget: BudgetKey, proof: Any = None
    ) -> None:
        """Mark a budget UNSAT.  A ``proof`` (certifying compiles: the
        solver's DRAT :class:`~repro.smt.sat.proof.ProofLog`) that
        refutes the budget is stored as a bundle next to the checkpoint
        (:func:`repro.persist.certify.store_proof_bundle`) and its
        manifest recorded under ``proof_refs``, so the retirement verdict
        is offline-checkable."""
        arm = self._arm(arm_key)
        entry = [budget[0], budget[1]]
        if entry not in arm["retired"]:
            arm["retired"].append(entry)
        if proof is not None and proof.has_refutation:
            budget_id = _budget_id(budget)
            ref = store_proof_bundle(
                self.directory, self.compile_key, arm_key, budget_id, proof
            )
            if ref is not None:
                arm.setdefault("proof_refs", {})[budget_id] = ref

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
        self._arm(arm_key)["slice_seconds"] = slice_seconds

    def resume_slice(self, arm_key: str) -> Optional[float]:
        arm = self.state["arms"].get(arm_key)
        if not arm:
            return None
        return arm["slice_seconds"]

    # -- flushing ----------------------------------------------------------
    def flush(self) -> bool:
        """Write the state out, with every tracked pool's new entries;
        True when written.

        Failures degrade: counted, and checkpointing disables itself
        once ``WRITE_RETRY_POLICY`` is exhausted (consecutive errors; a
        good write in between resets the streak)."""
        if self._disabled:
            return False
        self._snapshot_pools()
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
        get_tracer().count("checkpoint.flushes")
        return True


def arm_checkpoint_dir(root: Union[str, Path], label: str) -> Path:
    """A stable per-portfolio-arm checkpoint directory under ``root``."""
    return Path(root) / "arms" / file_slug(label)
