"""The compile service: admission, coalescing, retry, recovery.

:class:`CompileService` turns :class:`~repro.core.compiler.ParserHawkCompiler`
into a robust multi-tenant job runner.  One instance owns a service
directory::

    <root>/journal/jobs/*.json    the crash-safe job journal
    <root>/cache/                 the shared compile cache
    <root>/ckpt/<key16>/          per-compile-key CEGIS checkpoints

and a pool of worker *threads* (the compiler already fans out its own
portfolio subprocesses; service workers spend their time waiting on
them, so threads are the right grain and the journal/cache/checkpoint
state stays in one process).

Robustness properties, and where they live:

* **backpressure** — :class:`~repro.serve.admission.AdmissionQueue`
  bounds queued+running primaries and per-tenant live jobs; rejected
  submissions carry ``retry_after``;
* **coalescing** — identical ``compile_key``\\ s share one in-flight
  compile; waiters are journaled with ``coalesced_into`` and copy the
  primary's terminal state (counted as ``serve.coalesced``);
* **classified retry** — transient faults (worker crash, broken pool,
  solver resource exhaustion — :func:`repro.resilience.retry.transient_fault`,
  plus ``STATUS_FAULT`` results) re-run under the service
  :class:`~repro.resilience.retry.RetryPolicy` with deterministic
  jittered backoff; infeasible/invalid/timeout outcomes never retry;
* **circuit breaker** — repeatedly-faulting ``(tenant, compile_key)``
  pairs are rejected for a cooldown
  (:class:`~repro.serve.breaker.CircuitBreaker`);
* **deadline propagation** — a job deadline caps the compiler's
  ``total_max_seconds`` on every attempt; an already-expired deadline
  terminates the job without launching;
* **graceful degradation** — cache hits answer at submit time without
  burning a compile slot; after exhausted retries the cache is
  consulted once more (another process may have finished the same key)
  and a hit is served marked ``degraded`` (``serve.stale_served``);
* **crash safety** — every accepted job is journaled before its ack;
  :meth:`recover` re-adopts non-terminal jobs on restart, and each
  attempt compiles with its key's checkpoint directory, so a re-run
  resumes the recorded CEGIS progress;
* **fleet mode** (``owner_id`` set) — N service processes share one
  root, coordinated by per-job leases (:mod:`repro.serve.lease`): every
  locally-owned job's lease is heartbeaten by a dedicated thread, every
  journal write carries the lease's fencing token (stale owners are
  fenced into no-ops), :meth:`reap` steals expired leases and resumes
  the jobs from their checkpoints, and a graceful :meth:`shutdown`
  releases held leases so the rest of the fleet reclaims unfinished
  work immediately instead of waiting out the TTL.

Threading note: :class:`~repro.obs.Tracer` span trees are **not**
thread-safe, so every worker attempt and every submit runs under its
own private tracer whose counters are merged into the service-owned
:class:`~repro.obs.CounterRegistry` afterwards.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Union

from ..core.compiler import ParserHawkCompiler
from ..core.result import (
    STATUS_FAULT,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_TIMEOUT,
)
from ..hw.device import DeviceProfile
from ..obs import CounterRegistry, Tracer, use_tracer
from ..persist.cache import CompileCache
from ..persist.serialize import result_to_doc
from ..resilience.injection import fault_point
from ..resilience.retry import RetryPolicy, transient_fault
from .admission import AdmissionQueue, BreakerOpen, Rejected
from .breaker import CircuitBreaker
from .job import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    Job,
    make_job,
)
from .journal import (
    JobJournal,
    JournalWriteError,
    WRITE_FENCED,
    WRITE_OK,
)
from .lease import DEFAULT_TTL, Lease, LeaseManager
from .reaper import Reaper

# Service-level retry policy for transient attempt failures.  Short
# base delay: the per-key checkpoint makes a re-run cheap, and the
# deterministic jitter de-synchronizes concurrent retriers.
SERVICE_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.05, multiplier=2.0, max_delay=2.0,
    jitter=0.25, seed=0,
)


class CompileService:
    """Admission-controlled, journaled compile-as-a-service."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        workers: int = 2,
        capacity: int = 32,
        per_tenant: int = 8,
        retry_policy: RetryPolicy = SERVICE_RETRY_POLICY,
        breaker: Optional[CircuitBreaker] = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
        owner_id: Optional[str] = None,
        lease_ttl: float = DEFAULT_TTL,
    ) -> None:
        self.root = Path(root)
        self.journal = JobJournal(self.root / "journal")
        self.owner_id = owner_id
        self.leases: Optional[LeaseManager] = (
            LeaseManager(self.root / "leases", owner_id, ttl=lease_ttl)
            if owner_id
            else None
        )
        self._reaper: Optional[Reaper] = (
            Reaper(self.journal, self.leases, self.adopt)
            if self.leases is not None
            else None
        )
        self.cache = CompileCache(self.root / "cache")
        self.admission = AdmissionQueue(
            capacity=capacity, per_tenant=per_tenant, workers=workers
        )
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=breaker_threshold,
            cooldown_seconds=breaker_cooldown,
        )
        self.retry_policy = retry_policy
        self.registry = CounterRegistry()
        self._sleep = sleep
        self._num_workers = max(1, workers)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: Deque[str] = deque()
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, str] = {}      # compile_key -> primary id
        self._waiters: Dict[str, List[str]] = {} # primary id -> waiter ids
        self._events: Dict[str, threading.Event] = {}
        self._threads: List[threading.Thread] = []
        self._stopping = False
        # Fleet bookkeeping: leases we hold, and jobs whose lease we
        # lost mid-flight (their writes are fenced; workers abandon
        # them instead of finishing).
        self._held: Dict[str, Lease] = {}
        self._abandoned: set = set()
        self._hb_thread: Optional[threading.Thread] = None
        self._hb_stop = threading.Event()

    # -- counter plumbing ----------------------------------------------
    @contextmanager
    def _capture(self, name: str):
        """Run a block under a private tracer; merge its counters into
        the service registry (span trees are per-thread, counters are
        the shared truth)."""
        tracer = Tracer(name)
        try:
            with use_tracer(tracer):
                yield tracer
        finally:
            self.registry.merge(tracer.registry.snapshot())

    def _count(self, name: str, delta: Union[int, float] = 1) -> None:
        self.registry.add(name, delta)

    # -- directories ---------------------------------------------------
    def checkpoint_dir_for(self, compile_key: str) -> Path:
        return self.root / "ckpt" / compile_key[:16]

    # -- lifecycle -----------------------------------------------------
    def start(self) -> int:
        """Recover journaled work and start the worker pool.  Returns
        how many jobs were re-adopted.

        Single-node mode replays the whole journal (:meth:`recover`);
        fleet mode instead runs one reaper sweep — only jobs whose
        lease this instance can legitimately take are adopted, the rest
        belong to live peers — and starts the heartbeat thread.
        """
        with self._lock:
            self._stopping = False
        if self.leases is None:
            adopted = self.recover()
        else:
            adopted = self.reap()
            self._hb_stop = threading.Event()
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"serve-heartbeat-{self.owner_id}",
                daemon=True,
            )
            self._hb_thread.start()
        for index in range(self._num_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return adopted

    def shutdown(self, wait: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting work and (optionally) join the workers.
        Jobs still queued stay journaled and are re-adopted by the next
        :meth:`start` — shutdown never loses accepted work.

        In fleet mode a waited shutdown is a *graceful drain*: once the
        workers have finished (or the timeout passed), every still-held
        lease is released so peers reclaim the unfinished jobs
        immediately instead of waiting out the heartbeat TTL.
        """
        with self._wakeup:
            self._stopping = True
            self._wakeup.notify_all()
        if wait:
            deadline = time.monotonic() + timeout
            for thread in self._threads:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                thread.join(remaining)
        self._threads = []
        if self.leases is not None:
            self._hb_stop.set()
            if self._hb_thread is not None:
                self._hb_thread.join(timeout=5.0)
                self._hb_thread = None
            if wait:
                with self._lock:
                    held = list(self._held.values())
                    self._held.clear()
                for lease in held:
                    if self.leases.release(lease):
                        self._count("serve.leases_handed_back")

    # -- fleet: heartbeats, reclamation, abandonment -------------------
    def _heartbeat_loop(self) -> None:
        interval = max(0.05, self.leases.ttl / 3.0)
        while not self._hb_stop.wait(interval):
            with self._lock:
                held = list(self._held.values())
            for lease in held:
                if self._hb_stop.is_set():
                    return
                with self._capture("serve.heartbeat"):
                    ok = self.leases.heartbeat(lease)
                if not ok:
                    self._on_lease_lost(lease.job_id)

    def reap(self) -> int:
        """One reclamation sweep over the shared journal: steal every
        expired/released lease and adopt its job.  Returns how many
        jobs were reclaimed.  No-op in single-node mode."""
        if self._reaper is None:
            return 0
        with self._capture("serve.reap"):
            with self._lock:
                skip = set(self._jobs) | set(self._held)
            return self._reaper.run_once(skip=skip)

    def adopt(self, job: Job, lease: Lease) -> None:
        """Take over a reclaimed job under a freshly-stolen lease.

        Re-admits it like restart-recovered work (:meth:`_readopt_locked`)
        under the new fencing token: the re-admission's journal write
        lands that token, and from then on the previous owner's writes
        are rejected.
        """
        with self._capture("serve.adopt"), self._lock:
            if job.job_id in self._jobs:
                self.leases.release(lease)
                return
            job.lease_owner = lease.owner_id
            job.lease_token = lease.token
            self._readopt_locked(job, lease)

    def _on_lease_lost(self, job_id: str) -> None:
        """Our lease was stolen (we were paused/slow past the TTL).
        The job now belongs to someone else: stop working on it.  A
        queued job detaches immediately; a running one is flagged and
        its worker abandons it at the next loop boundary (any write it
        still attempts is fenced by the journal)."""
        with self._lock:
            self._held.pop(job_id, None)
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return
            self._abandoned.add(job_id)
            queued = job_id in self._queue
            if queued:
                self._queue.remove(job_id)
        if queued:
            self._abandon(job)

    def _is_abandoned(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._abandoned

    def _abandon(self, job: Job) -> None:
        """Drop a job whose lease we lost: detach it locally (promoting
        a coalesced waiter to primary if one exists — *our* waiters are
        still ours), release its slots, and let clients follow the new
        owner through the journal."""
        self._count("serve.jobs_abandoned")
        with self._lock:
            self._abandoned.discard(job.job_id)
            self._held.pop(job.job_id, None)
            was_primary = job.coalesced_into is None
            promoted = self._detach_locked(job)
            # The primary slot either transfers to the promoted waiter
            # or is released; a waiter only ever held a tenant slot.
            self.admission.release(
                job.tenant, primary=was_primary and not promoted
            )
            self._jobs.pop(job.job_id, None)
            event = self._events.pop(job.job_id, None)
        if event is not None:
            event.set()                   # waiters re-poll the journal

    def _detach_locked(self, job: Job) -> bool:
        """Unlink ``job`` from the coalescing tables (under the service
        lock).  Returns True when a waiter inherited its primary slot."""
        if job.coalesced_into is not None:
            siblings = self._waiters.get(job.coalesced_into, [])
            if job.job_id in siblings:
                siblings.remove(job.job_id)
            return False
        waiters = self._waiters.pop(job.job_id, [])
        if self._inflight.get(job.compile_key) == job.job_id:
            del self._inflight[job.compile_key]
        waiters = [w for w in waiters if w in self._jobs]
        if not waiters:
            return False
        promoted, rest = waiters[0], waiters[1:]
        promoted_job = self._jobs[promoted]
        promoted_job.coalesced_into = None
        self._inflight[job.compile_key] = promoted
        self._waiters[promoted] = rest
        for waiter_id in rest:
            self._jobs[waiter_id].coalesced_into = promoted
        self._queue.append(promoted)
        self._count("serve.waiters_promoted")
        self._wakeup.notify()
        return True

    def _release_lease(self, job_id: str) -> None:
        if self.leases is None:
            return
        with self._lock:
            lease = self._held.pop(job_id, None)
        if lease is not None:
            self.leases.release(lease)

    def recover(self) -> int:
        """Re-adopt every accepted-but-unfinished job from the journal.

        Jobs come back in submission order, so per ``compile_key`` the
        oldest becomes (or stays) the primary and the rest re-coalesce
        behind it (:meth:`_readopt_locked`).
        """
        with self._capture("serve.recover"), self._lock:
            pending = self.journal.recover()
            for job in pending:
                if job.job_id not in self._jobs:
                    self._readopt_locked(job)
        return len(pending)

    def _readopt_locked(self, job: Job, lease: Optional[Lease] = None) -> None:
        """Re-admit an already-accepted job (restart or reclaim), under
        the service lock.

        An answer already in the cache finishes the job on the spot
        (``serve.reclaim_cache_hits``), with no compile.  Otherwise the
        job is enqueued past admission's checks — it was accepted before,
        so capacity cannot bounce it now — and the journal write records
        its new state, and under a stolen ``lease`` its new token.
        """
        job.coalesced_into = None
        doc = self._cached_doc(job)
        if doc is None:
            job.state = JOB_QUEUED
            self._enqueue_locked(
                job, self.journal.transition, lease, force=True
            )
        else:
            self._done_from_cache_locked(
                job, doc, self.journal.transition, lease
            )
            self._count("serve.reclaim_cache_hits")

    # -- submission ----------------------------------------------------
    def submit(
        self,
        spec_source: str,
        device: DeviceProfile,
        *,
        tenant: str = "default",
        spec_start: str = "start",
        options: Optional[Dict[str, Any]] = None,
        deadline_seconds: Optional[float] = None,
        job_id: Optional[str] = None,
        lease: Optional[Lease] = None,
    ) -> Job:
        """Admit one compile request; returns the journaled :class:`Job`.

        Raises ``ValueError`` for an invalid request (bad spec or
        unknown option override — permanent, never queued) and
        :class:`~repro.serve.admission.Rejected` for backpressure,
        quota, breaker and journal-unavailable refusals (all carry
        ``retry_after``).

        In fleet mode the job's lease is acquired before any slot is
        claimed (callers that already claimed one — the spool's inbox
        drain — pass it as ``lease``).  A refused admission releases
        the lease again, so a rejected request never stays owned.
        """
        with self._capture("serve.submit"):
            # Validation happens before any slot is claimed.
            job = make_job(
                spec_source,
                device,
                tenant=tenant,
                spec_start=spec_start,
                options=options,
                deadline_seconds=deadline_seconds,
                job_id=job_id,
            )
            fault_point("serve.enqueue", label=job.compile_key)
            return self._admit(job, lease=lease)

    def _admit(self, job: Job, lease: Optional[Lease] = None) -> Job:
        key = (job.tenant, job.compile_key)
        if self.leases is not None:
            if lease is None:
                lease = self.leases.acquire(job.job_id)
                if lease is None:
                    raise Rejected(
                        f"job {job.job_id} is owned by another server",
                        retry_after=self.leases.ttl,
                    )
            job.lease_owner = lease.owner_id
            job.lease_token = lease.token
        try:
            return self._admit_leased(job, key, lease)
        except BaseException:
            if lease is not None and self.leases is not None:
                self.leases.release(lease)
            raise

    def _admit_leased(
        self, job: Job, key: Any, lease: Optional[Lease]
    ) -> Job:
        with self._lock:
            if not self.breaker.allow(key):
                raise BreakerOpen(
                    f"breaker open for compile key {job.compile_key[:16]}…",
                    retry_after=max(1.0, self.breaker.retry_after(key)),
                )
            # Cache fast-path: an already-known answer is terminal at
            # admission and never consumes a compile slot.
            doc = self._cached_doc(job)
            try:
                if doc is not None:     # accepted *and* terminal
                    self._done_from_cache_locked(
                        job, doc, self.journal.record, lease
                    )
                else:                   # accepted => durable
                    self._enqueue_locked(job, self.journal.record, lease)
            except JournalWriteError as exc:
                # A journal outage is a *transient* rejection, never a
                # permanent one — the client must retry.
                raise Rejected(
                    f"journal unavailable: {exc}",
                    retry_after=self.admission.retry_after(),
                ) from exc
            if doc is not None:
                self.breaker.record_success(key)   # a served answer
                self._count("serve.cache_hits")
            elif job.coalesced_into is None:
                self._count("serve.accepted")
        return job

    def _enqueue_locked(
        self,
        job: Job,
        write: Callable[[Job], Any],
        lease: Optional[Lease],
        *,
        force: bool = False,
    ) -> None:
        """Claim ``job``'s admission slots, journal it with ``write``,
        and link it in, holding ``lease``, under the service lock: the
        first live job of a ``compile_key`` becomes its primary and is
        queued, later ones coalesce behind it.  A refused admission
        raises before anything is written; a failed write returns the
        slots and links nothing.
        """
        primary_id = self._inflight.get(job.compile_key)
        primary = primary_id is None
        self.admission.admit(job.tenant, primary=primary, force=force)
        job.coalesced_into = primary_id
        try:
            write(job)
        except BaseException:
            self.admission.release(job.tenant, primary=primary)
            raise
        self._jobs[job.job_id] = job
        self._events[job.job_id] = threading.Event()
        if lease is not None:
            self._held[job.job_id] = lease
        if primary:
            self._inflight[job.compile_key] = job.job_id
            self._queue.append(job.job_id)
            self._wakeup.notify()
        else:
            self._waiters.setdefault(primary_id, []).append(job.job_id)
            self._count("serve.coalesced")

    def _done_from_cache_locked(
        self,
        job: Job,
        doc: Dict[str, Any],
        write: Callable[[Job], Any],
        lease: Optional[Lease],
    ) -> None:
        """Complete ``job`` with the cached answer ``doc`` at
        (re-)admission, under the service lock: ``write`` journals it
        terminal, and it claims no slot and keeps no lease.  Only a
        write that did not land keeps it tracked in memory."""
        job.state = JOB_DONE
        job.result_doc = doc
        job.finished_epoch = time.time()
        if write(job) not in (None, WRITE_OK):
            self._jobs[job.job_id] = job
            self._events[job.job_id] = threading.Event()
            self._events[job.job_id].set()
        if lease is not None:
            self.leases.release(lease)             # terminal: nothing to own

    def _cached_doc(self, job: Job) -> Optional[Dict[str, Any]]:
        """The cached answer for ``job``'s compile key as a result
        document, or None on a miss.  A pure query: the caller decides
        how the job completes."""
        result = self.cache.lookup(job.compile_key, job.build_device())
        return None if result is None else result_to_doc(result)

    # -- introspection -------------------------------------------------
    def status(self, job_id: str) -> Optional[Job]:
        """A live job's in-memory state; the journal answers for jobs
        this service does not track, finished ones included."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is not None:
            return job
        return self.journal.load(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Optional[Job]:
        """Block until ``job_id`` is terminal (or timeout); returns it."""
        with self._lock:
            event = self._events.get(job_id)
        if event is not None:
            event.wait(timeout)
        return self.status(job_id)

    def metrics(self) -> Dict[str, Any]:
        with self._lock:
            gauges = {
                "queue_depth": len(self._queue),
                "inflight_keys": len(self._inflight),
                "jobs_tracked": len(self._jobs),
                "admission_queue_depth": self.admission.primaries,
                "estimated_compile_seconds": round(
                    self.admission.estimated_seconds(), 3
                ),
                "leases_held": len(self._held),
            }
        gauges["journal_quarantined"] = self.journal.quarantined_count()
        if self.leases is not None:
            gauges["leases_live"] = self.leases.live_count()
        doc: Dict[str, Any] = {
            "counters": self.registry.snapshot(),
            "gauges": gauges,
        }
        if self.owner_id is not None:
            doc["owner_id"] = self.owner_id
        return doc

    # -- the worker ----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._stopping:
                    self._wakeup.wait(0.2)
                if self._stopping:
                    return
                job_id = self._queue.popleft()
                job = self._jobs.get(job_id)
                if job is None:            # abandoned while queued
                    continue
                queued_for = time.time() - job.submitted_epoch
            self._count("serve.queue_seconds", max(0.0, queued_for))
            with self._capture(f"serve.job.{job_id}"):
                try:
                    self._run_job(job)
                except Exception as exc:   # defense: a worker never dies
                    self._count("serve.worker_errors")
                    self._finish(
                        job,
                        JOB_FAILED,
                        failure_kind="fault",
                        message=f"worker error: {exc}",
                    )

    def _run_job(self, job: Job) -> None:
        started = time.time()
        while True:
            if self._is_abandoned(job.job_id):
                self._abandon(job)
                return
            remaining = job.remaining_seconds()
            if remaining is not None and remaining <= 0:
                self._count("serve.deadline_exceeded")
                self._finish(
                    job,
                    JOB_FAILED,
                    failure_kind="timeout",
                    message="deadline expired before the compile ran",
                )
                return
            job.state = JOB_RUNNING
            job.started_epoch = job.started_epoch or started
            job.attempts += 1
            if self.journal.transition(job) == WRITE_FENCED:
                # The journal already carries a newer owner's token:
                # our lease was stolen before we even started.
                self._abandon(job)
                return
            self._count("serve.attempts")
            try:
                result = self._attempt(job, remaining)
            except Exception as exc:
                if transient_fault(exc) and self._retry(job, exc):
                    continue
                self._record_outcome(job, success=False)
                self._finish(
                    job,
                    JOB_FAILED,
                    failure_kind="fault",
                    message=f"{type(exc).__name__}: {exc}",
                )
                return
            if result.status == STATUS_OK:
                self._record_outcome(job, success=True)
                job.result_doc = result_to_doc(result)
                self._finish(job, JOB_DONE)
                return
            if result.status == STATUS_INFEASIBLE:
                # A clean verdict: the spec cannot fit the device.
                self._record_outcome(job, success=True)
                job.result_doc = result_to_doc(result)
                self._finish(
                    job,
                    JOB_FAILED,
                    failure_kind="infeasible",
                    message=result.message,
                )
                return
            if result.status == STATUS_TIMEOUT:
                self._record_outcome(job, success=False)
                job.result_doc = result_to_doc(result)
                self._finish(
                    job,
                    JOB_FAILED,
                    failure_kind="timeout",
                    message=result.message,
                )
                return
            # STATUS_FAULT: the compiler absorbed a transient failure
            # (its checkpoint makes the re-run cheap).
            assert result.status == STATUS_FAULT, result.status
            if self._retry(job, None):
                continue
            self._record_outcome(job, success=False)
            if not job.terminal:        # else _degrade served the cache
                job.result_doc = result_to_doc(result)
                self._finish(
                    job, JOB_FAILED, failure_kind="fault",
                    message=result.message,
                )
            return

    def _attempt(self, job: Job, remaining: Optional[float]):
        """One compile attempt with deadline propagation + checkpointing."""
        fault_point("serve.worker", label=job.compile_key)
        overrides: Dict[str, Any] = {
            "cache_dir": str(self.cache.directory),
            "checkpoint_dir": str(self.checkpoint_dir_for(job.compile_key)),
        }
        requested = job.options.get("total_max_seconds")
        if remaining is not None:
            overrides["total_max_seconds"] = (
                min(requested, remaining)
                if requested is not None
                else remaining
            )
        options = job.build_options(**overrides)
        compiler = ParserHawkCompiler(options)
        self._count("serve.compile_launched")
        return compiler.compile(job.build_spec(), job.build_device())

    def _retry(self, job: Job, exc: Optional[BaseException]) -> bool:
        """Decide (and pace) a transient-failure retry; True = go again.
        Once retries are exhausted, :meth:`_degrade` may complete the
        job from the cache before this returns False."""
        self._count("serve.transient_failures")
        if job.attempts >= self.retry_policy.max_attempts:
            self._count("serve.retries_exhausted")
            self._degrade(job)
            return False
        remaining = job.remaining_seconds()
        delay = self.retry_policy.delay(job.attempts, key=job.job_id)
        if remaining is not None and delay >= remaining:
            self._count("serve.deadline_exceeded")
            return False
        job.state = JOB_QUEUED
        self.journal.transition(job)
        self._count("serve.retries")
        self._sleep(delay)
        return True

    def _degrade(self, job: Job) -> None:
        """Last-resort cache consult after exhausted retries (another
        process may have completed the same key): a hit completes the
        job ``done`` and marked ``degraded``."""
        with self._lock:
            doc = self._cached_doc(job)
        if doc is None:
            return
        job.result_doc = doc
        job.degraded = True
        self._count("serve.stale_served")
        self._finish(job, JOB_DONE)

    def _record_outcome(self, job: Job, *, success: bool) -> None:
        key = (job.tenant, job.compile_key)
        with self._lock:
            if success:
                self.breaker.record_success(key)
            else:
                self.breaker.record_failure(key)

    # -- completion ----------------------------------------------------
    def _finish(
        self,
        job: Job,
        state: str,
        *,
        failure_kind: str = "",
        message: str = "",
    ) -> None:
        if job.terminal:
            return
        job.state = state
        job.failure_kind = failure_kind
        if message:
            job.message = message
        job.finished_epoch = time.time()
        written = self.journal.transition(job)
        if written == WRITE_FENCED:
            # A newer owner journaled first (stolen lease, or a
            # conflicting terminal).  Our outcome is void: drop the job
            # locally and let clients follow the journal's owner.  The
            # deterministic compile means any *result* we raced on is
            # identical anyway — only the bookkeeping was stale.
            self._count("serve.stale_finishes")
            self._abandon(job)
            return
        self._release_lease(job.job_id)
        self._count(f"serve.jobs_{state}")
        with self._lock:
            waiters = self._waiters.pop(job.job_id, [])
            if self._inflight.get(job.compile_key) == job.job_id:
                del self._inflight[job.compile_key]
            self.admission.release(job.tenant, primary=True)
            if job.started_epoch and job.finished_epoch:
                self.admission.observe_duration(
                    job.finished_epoch - job.started_epoch
                )
            event = self._settle_locked(job.job_id, written)
            waiter_jobs = [self._jobs[w] for w in waiters if w in self._jobs]
        if event is not None:
            event.set()
        for waiter in waiter_jobs:
            waiter.state = job.state
            waiter.failure_kind = job.failure_kind
            waiter.message = job.message
            waiter.result_doc = job.result_doc
            waiter.degraded = job.degraded
            waiter.finished_epoch = job.finished_epoch
            written = self.journal.transition(waiter)
            if written == WRITE_FENCED:
                self._count("serve.stale_finishes")
            self._release_lease(waiter.job_id)
            self._count(f"serve.jobs_{waiter.state}")
            with self._lock:
                self.admission.release(waiter.tenant, primary=False)
                waiter_event = self._settle_locked(waiter.job_id, written)
            if waiter_event is not None:
                waiter_event.set()

    def _settle_locked(
        self, job_id: str, written: str
    ) -> Optional[threading.Event]:
        """A terminal job's completion event, under the service lock.
        Once its terminal write has landed the job leaves the in-memory
        tables and the journal answers for it; a degraded write keeps
        it, since the journal still holds an older state."""
        if written == WRITE_OK:
            self._jobs.pop(job_id, None)
            return self._events.pop(job_id, None)
        return self._events.get(job_id)


__all__ = ["CompileService", "SERVICE_RETRY_POLICY"]
