"""Job reclamation: dead owners' work is stolen, not lost.

Every fleet worker runs the reaper opportunistically (the spool loop
calls :meth:`Reaper.run_once` between inbox drains).  A sweep walks the
shared journal for accepted-but-unfinished jobs and, for each one this
process doesn't already own, checks the job's lease:

* **held and live** — another worker is on it; skip;
* **absent / released / expired / our own previous incarnation's** —
  steal it (:meth:`~repro.serve.lease.LeaseManager.acquire`, which
  increments the fencing token under the per-job mutex, so exactly one
  contending reaper wins) and hand the job to the adopt callback.

The adopt callback (``CompileService.adopt``) re-admits the job the way
a restarted server re-admits its journal: it re-journals the job under
the **new** token immediately — from that write on, anything the old
owner tries is fenced — and either finishes it from the cache or
enqueues it.  The re-run compiles with the job's per-key checkpoint
directory, so the recorded CEGIS progress replays instead of restarting
cold: reclaimed work continues, it doesn't start over.

``min_token`` passed to acquire is ``journal token + 1``: even if the
lease file itself was lost (quarantined, or the job predates the
fleet), fencing still advances strictly.
"""

from __future__ import annotations

from typing import Callable, Container

from ..obs import get_tracer
from .job import TERMINAL_STATES, Job
from .journal import JobJournal
from .lease import Lease, LeaseManager


class Reaper:
    """Scan-and-steal over one (journal, lease table) pair."""

    def __init__(
        self,
        journal: JobJournal,
        leases: LeaseManager,
        adopt: Callable[[Job, Lease], None],
    ) -> None:
        self.journal = journal
        self.leases = leases
        self.adopt = adopt

    def run_once(self, skip: Container[str] = ()) -> int:
        """One sweep; returns how many jobs were reclaimed.

        ``skip`` is the set of job ids the caller already tracks
        locally (its own live work must not be stolen from itself).
        """
        tracer = get_tracer()
        reclaimed = 0
        for job in self.journal:
            if job.state in TERMINAL_STATES or job.job_id in skip:
                continue
            lease = self.leases.peek(job.job_id)
            if not self.leases.stealable(lease):
                continue
            taken = self.leases.acquire(
                job.job_id, min_token=job.lease_token + 1
            )
            if taken is None:
                continue               # lost the steal race; next sweep
            job.reclaims += 1
            tracer.count("serve.jobs_reclaimed")
            self.adopt(job, taken)
            reclaimed += 1
        return reclaimed


__all__ = ["Reaper"]
