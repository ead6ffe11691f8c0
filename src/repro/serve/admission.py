"""Admission control: bounded queue depth and per-tenant quotas.

The service never buffers unbounded work.  :class:`AdmissionQueue` is
pure bookkeeping (the service serializes calls under its own lock):

* **capacity** bounds the number of *primary* jobs queued or running —
  coalesced waiters piggyback on a primary and consume no compile
  slot, so they don't count against capacity;
* **per-tenant quota** bounds every live job a tenant owns, coalesced
  waiters included — one tenant spamming an identical spec cannot
  starve others of admission;
* a rejected submission carries an honest ``retry_after`` estimate:
  an EWMA of recent compile durations scaled by queue depth over
  worker count.  Clients are told *when* to come back, not just "no".

Rejections raise :class:`QueueFull` / :class:`QuotaExceeded` (both
:class:`Rejected`); the breaker's :class:`BreakerOpen` lives here too so
callers can catch one exception family.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

# Fallback duration estimate before any compile has finished, and the
# floor on every retry-after hint (sub-second polling is abuse).
_DEFAULT_ESTIMATE_SECONDS = 5.0
_MIN_RETRY_AFTER = 1.0
_EWMA_ALPHA = 0.3


class Rejected(Exception):
    """A submission the service refused to accept.

    ``retry_after`` is the service's estimate (seconds) of when a
    retry is likely to be admitted.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class QueueFull(Rejected):
    """The bounded queue is at capacity (backpressure)."""


class QuotaExceeded(Rejected):
    """The tenant already holds its maximum number of live jobs."""


class BreakerOpen(Rejected):
    """The (tenant, compile_key) circuit breaker is open."""


class AdmissionQueue:
    """Counting admission controller (no storage; not itself locked)."""

    def __init__(
        self,
        capacity: int = 32,
        per_tenant: int = 8,
        workers: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if per_tenant < 1:
            raise ValueError("per_tenant must be >= 1")
        self.capacity = capacity
        self.per_tenant = per_tenant
        self.workers = max(1, workers)
        self.clock = clock
        self.primaries = 0                      # queued + running primaries
        self.tenant_live: Dict[str, int] = {}   # all live jobs per tenant
        self._ewma_seconds = _DEFAULT_ESTIMATE_SECONDS

    # ------------------------------------------------------------------
    def admit(
        self, tenant: str, *, primary: bool = True, force: bool = False
    ) -> None:
        """Claim a slot for one job, or raise :class:`Rejected`.

        ``force`` claims it past the quota and capacity checks: for work
        accepted before a restart or a lease steal, which the journal
        already promised to finish and capacity must not bounce now."""
        if not force and self.tenant_live.get(tenant, 0) >= self.per_tenant:
            raise QuotaExceeded(
                f"tenant {tenant!r} has {self.tenant_live[tenant]} live "
                f"job(s), quota is {self.per_tenant}",
                retry_after=self.retry_after(),
            )
        if not force and primary and self.primaries >= self.capacity:
            raise QueueFull(
                f"queue at capacity ({self.capacity} primary job(s))",
                retry_after=self.retry_after(),
            )
        self.tenant_live[tenant] = self.tenant_live.get(tenant, 0) + 1
        if primary:
            self.primaries += 1

    def release(self, tenant: str, *, primary: bool = True) -> None:
        """Return a slot when a job reaches a terminal state."""
        live = self.tenant_live.get(tenant, 0)
        if live <= 1:
            self.tenant_live.pop(tenant, None)
        else:
            self.tenant_live[tenant] = live - 1
        if primary:
            self.primaries = max(0, self.primaries - 1)

    # ------------------------------------------------------------------
    def observe_duration(self, seconds: float) -> None:
        """Feed one finished compile's wall time into the EWMA."""
        if seconds < 0:
            return
        self._ewma_seconds = (
            _EWMA_ALPHA * seconds + (1 - _EWMA_ALPHA) * self._ewma_seconds
        )

    def estimated_seconds(self) -> float:
        return self._ewma_seconds

    def retry_after(self) -> float:
        """Seconds until a slot plausibly frees: one queue-drain's worth
        of EWMA compile time spread over the workers."""
        depth = max(1, self.primaries)
        return max(
            _MIN_RETRY_AFTER,
            self._ewma_seconds * depth / self.workers,
        )


__all__ = [
    "AdmissionQueue",
    "BreakerOpen",
    "QueueFull",
    "QuotaExceeded",
    "Rejected",
]
