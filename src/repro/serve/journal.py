"""The crash-safe, fencing-aware job journal.

One file per job (``<dir>/jobs/<job_id>.json``), each an atomic
checksummed envelope from :mod:`repro.persist.atomic` — so every state
transition durably replaces the previous one, a SIGKILL mid-write
leaves the old state, and a torn file is quarantined rather than
trusted.  The journal is the service's *only* source of truth across a
restart: :meth:`JobJournal.recover` rebuilds the accepted-but-unfinished
job set from disk and the service re-adopts it.

Durability contract (the "zero lost accepted work" property):

* an **accept** write (:meth:`record`, first write of a job in state
  ``queued``) must *succeed before the client is acked* — on failure the
  submission is rejected, so "accepted" and "journaled" are the same
  event;
* **transition** writes (queued→running→terminal) retry under
  :data:`TRANSITION_RETRY_POLICY` and then degrade: the in-memory job
  still completes and waiters are still notified, but the journal keeps
  the *older* state — which on restart re-runs the job, a safe (if
  wasteful) outcome for an idempotent content-addressed compile;
* every write passes the ``serve.journal`` fault-injection site so the
  degradation paths are testable without real disk failures.

Fencing contract (the fleet's "certificates, not trust" property —
see :mod:`repro.serve.lease`):

* every transition write runs as a compare-and-swap under a per-job
  :func:`~repro.persist.atomic.file_mutex`: the current document is
  re-read and the write is **rejected as a no-op** when it carries a
  fencing token *older* than the one on disk (a stale owner whose lease
  was stolen — :data:`WRITE_FENCED`, counted as
  ``serve.fencing_rejected``);
* a job that reached a terminal state never transitions again: a
  *conflicting* terminal write is fenced, an *identical* one is treated
  as already-durable (idempotent — two deterministic owners racing the
  same compile converge on one document);
* every successful **terminal** write appends one line to the
  append-only audit log ``<dir>/terminal.log`` (``job_id state token
  owner``, O_APPEND so concurrent writers never interleave) — the chaos
  soak replays it to prove no job ever received two conflicting
  terminal transitions.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from ..obs import get_tracer
from ..resilience.injection import fault_point
from ..resilience.retry import RetryPolicy
from ..persist.atomic import file_mutex, load_envelope, write_atomic
from .job import TERMINAL_STATES, Job

JOURNAL_KIND = "serve-job"
JOURNAL_VERSION = 1

# Transition writes retry briefly (transient disk hiccups) and then
# degrade; accept writes never retry — the client is told to.
TRANSITION_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.02, max_delay=0.2, jitter=0.25
)

# Transition outcomes.  Only WRITE_OK means the document landed.
WRITE_OK = "ok"
WRITE_DEGRADED = "degraded"          # disk failed; in-memory continues
WRITE_FENCED = "fenced"              # stale token / terminal conflict


class JournalWriteError(Exception):
    """An accept-path journal write failed; the submission must be
    rejected (the job was never durably accepted)."""


class JobJournal:
    """A directory of per-job atomic envelopes."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.jobs_dir = self.directory / "jobs"
        self.terminal_log = self.directory / "terminal.log"

    def path_for(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _mutex_for(self, job_id: str):
        return file_mutex(self.directory / "locks" / f"{job_id}.lock")

    # -- writes --------------------------------------------------------
    def record(self, job: Job) -> None:
        """Durably write ``job``'s current state (the accept path).

        Raises :class:`JournalWriteError` on failure — an un-journaled
        job must never be acked as accepted.  Idempotent across the
        spool's crash windows: a job already journaled terminal, or
        under a newer fencing token, is left untouched (re-processing an
        inbox file must never regress the journal).
        """
        try:
            with self._mutex_for(job.job_id) as locked:
                # The CAS check runs even when the mutex is contended
                # (its holder may be SIGSTOP'd mid-section): an unlocked
                # check merely narrows the race window less, while
                # skipping it would waive the fence entirely.
                del locked
                current = self.load(job.job_id)
                if current is not None and (
                    current.state in TERMINAL_STATES
                    or current.lease_token > job.lease_token
                ):
                    return               # already durable, never regress
                fault_point("serve.journal", label=f"accept:{job.job_id}")
                write_atomic(
                    self.path_for(job.job_id),
                    JOURNAL_KIND,
                    JOURNAL_VERSION,
                    job.to_doc(),
                )
        except Exception as exc:
            get_tracer().count("serve.journal_write_failures")
            raise JournalWriteError(str(exc)) from exc
        get_tracer().count("serve.journal_writes")

    def transition(self, job: Job) -> str:
        """Fenced, best-effort durable state transition.

        Returns :data:`WRITE_OK` when journaled, :data:`WRITE_FENCED`
        when the write was rejected as stale (the caller's lease token
        is older than the journal's, or the job is already terminal),
        and :data:`WRITE_DEGRADED` when the disk failed past the retry
        budget (counted as ``serve.journal_degraded``; the service keeps
        going on its in-memory state).
        """
        tracer = get_tracer()
        with self._mutex_for(job.job_id) as locked:
            # As in record(): fence-check even on a contended mutex.
            del locked
            current = self.load(job.job_id)
            if current is not None:
                if current.lease_token > job.lease_token:
                    tracer.count("serve.fencing_rejected")
                    return WRITE_FENCED
                if current.state in TERMINAL_STATES:
                    if current.state == job.state:
                        return WRITE_OK      # idempotent re-write
                    tracer.count("serve.fencing_rejected")
                    tracer.count("serve.terminal_conflicts_blocked")
                    return WRITE_FENCED
            state = TRANSITION_RETRY_POLICY.start(key=job.job_id)
            while True:
                try:
                    fault_point(
                        "serve.journal", label=f"{job.state}:{job.job_id}"
                    )
                    write_atomic(
                        self.path_for(job.job_id),
                        JOURNAL_KIND,
                        JOURNAL_VERSION,
                        job.to_doc(),
                    )
                except Exception:
                    tracer.count("serve.journal_write_failures")
                    if not state.record_failure():
                        tracer.count("serve.journal_degraded")
                        return WRITE_DEGRADED
                    state.backoff()
                    continue
                tracer.count("serve.journal_writes")
                if job.state in TERMINAL_STATES:
                    self._audit_terminal(job)
                return WRITE_OK

    def _audit_terminal(self, job: Job) -> None:
        """Append one line to the terminal audit log (best-effort; the
        log is evidence, never load-bearing)."""
        line = (
            f"{job.job_id} {job.state} {job.lease_token} "
            f"{job.lease_owner or '-'}\n"
        )
        try:
            fd = os.open(
                str(self.terminal_log),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            try:
                os.write(fd, line.encode("utf-8"))
            finally:
                os.close(fd)
        except OSError:
            get_tracer().count("serve.audit_write_failures")

    # -- reads ---------------------------------------------------------
    def load(self, job_id: str) -> Optional[Job]:
        payload = load_envelope(
            self.path_for(job_id), JOURNAL_KIND, JOURNAL_VERSION
        )
        if payload is None:
            return None
        try:
            return Job.from_doc(payload)
        except Exception:
            get_tracer().count("serve.journal_malformed")
            return None

    def __iter__(self) -> Iterator[Job]:
        if not self.jobs_dir.is_dir():
            return
        for path in sorted(self.jobs_dir.iterdir()):
            if path.suffix != ".json" or ".corrupt" in path.name:
                continue
            payload = load_envelope(path, JOURNAL_KIND, JOURNAL_VERSION)
            if payload is None:
                continue
            try:
                yield Job.from_doc(payload)
            except Exception:
                get_tracer().count("serve.journal_malformed")

    def quarantined_count(self) -> int:
        """How many journal files have been quarantined as corrupt (a
        fleet health gauge)."""
        if not self.jobs_dir.is_dir():
            return 0
        return sum(
            1 for p in self.jobs_dir.iterdir() if ".corrupt" in p.name
        )

    def terminal_log_entries(self) -> List[Tuple[str, str, int, str]]:
        """Parse the audit log into (job_id, state, token, owner) rows
        (unparseable lines — e.g. torn by a crash mid-append — are
        skipped; each valid line was written atomically via O_APPEND)."""
        try:
            text = self.terminal_log.read_text()
        except OSError:
            return []
        rows: List[Tuple[str, str, int, str]] = []
        for line in text.splitlines():
            parts = line.split()
            if len(parts) != 4:
                continue
            try:
                rows.append((parts[0], parts[1], int(parts[2]), parts[3]))
            except ValueError:
                continue
        return rows

    def recover(self) -> List[Job]:
        """Accepted-but-unfinished jobs, submission order (the restart
        re-adoption set).  Jobs found in state ``running`` were live
        when the previous server died; their per-key checkpoints make
        re-running them cheap, because a compile always resumes a
        matching checkpoint."""
        pending = [job for job in self if job.state not in TERMINAL_STATES]
        pending.sort(key=lambda j: (j.submitted_epoch, j.job_id))
        if pending:
            get_tracer().count("serve.jobs_recovered", len(pending))
        return pending


__all__ = [
    "JOURNAL_KIND",
    "JOURNAL_VERSION",
    "JobJournal",
    "JournalWriteError",
    "TRANSITION_RETRY_POLICY",
    "WRITE_DEGRADED",
    "WRITE_FENCED",
    "WRITE_OK",
]
