"""Job records: the unit of work the compile service journals.

A :class:`Job` carries everything needed to (re-)run one compilation
with no in-memory context — the spec *source* (re-parsed, never
pickled), the device document, a whitelisted set of option overrides,
and the service bookkeeping (tenant, state, timestamps, attempt count,
result document).  That self-containedness is the crash-safety story:
a SIGKILL'd server rebuilds its entire world from the journaled job
documents alone.

State machine::

    queued ──> running ──> done            (STATUS_OK result)
       │          │  └───> failed          (infeasible / timeout /
       │          │                         retries exhausted)
       │          └──────> queued          (transient fault, retrying)
       └─(coalesced jobs hold state "queued" with ``coalesced_into``
          set until their primary completes, then copy its terminal
          state and result)

``done`` and ``failed`` are the only terminal states; every accepted
job must reach one of them ("zero lost work").
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from ..core.options import CompileOptions
from ..hw.device import DeviceProfile
from ..ir.spec import ParserSpec, parse_spec
from ..persist.fingerprint import compile_key

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

TERMINAL_STATES = frozenset({JOB_DONE, JOB_FAILED})

# CompileOptions fields a submission may override.  Everything else —
# notably the persistence configuration — is owned by the service.
OPTION_OVERRIDES = frozenset(
    {
        "seed",
        "certify",
        "directed_seed_tests",
        "max_extra_entries",
        "budget_time_slice",
        "max_time_slice",
        "total_max_seconds",
    }
)


_id_lock = threading.Lock()
_last_id_ms = 0


def new_job_id() -> str:
    """A collision-resistant job id, time-ordered for readable listings.

    The millisecond prefix strictly increases within a process, so ids
    made in the same millisecond still sort in creation order — the
    spool drains its inbox in id order and promises oldest first."""
    global _last_id_ms
    with _id_lock:
        _last_id_ms = max(int(time.time() * 1000), _last_id_ms + 1)
        stamp = _last_id_ms
    return f"{stamp:013x}-{os.urandom(4).hex()}"


@dataclass
class Job:
    """One journaled compile request."""

    job_id: str
    tenant: str
    compile_key: str
    spec_source: str
    spec_start: str
    device: Dict[str, Any]               # asdict(DeviceProfile)
    options: Dict[str, Any] = field(default_factory=dict)  # overrides
    state: str = JOB_QUEUED
    # Wall-clock epoch seconds; deadline_epoch None = no deadline.
    submitted_epoch: float = 0.0
    started_epoch: Optional[float] = None
    finished_epoch: Optional[float] = None
    deadline_epoch: Optional[float] = None
    attempts: int = 0
    # Coalescing: non-primary jobs point at the job doing the work.
    coalesced_into: Optional[str] = None
    # Terminal payload: a repro.persist.serialize result document plus
    # the failure classification ("infeasible" | "timeout" | "fault" |
    # "invalid" | "" for done).
    result_doc: Optional[Dict[str, Any]] = None
    failure_kind: str = ""
    message: str = ""
    # Degradation marker: the result was served from a cache/journal
    # entry while the breaker was open or the queue was saturated.
    degraded: bool = False
    # Fleet ownership (see repro.serve.lease): which server instance
    # currently holds the job's lease, and under which fencing token.
    # Every journal transition carries the token; the journal rejects
    # writes whose token is older than the last one it recorded, so a
    # stale owner's writes become no-ops.  Token 0 = never leased
    # (single-node mode), and trivially passes every fence.
    lease_owner: str = ""
    lease_token: int = 0
    # How many times the job changed hands via lease reclamation.
    reclaims: int = 0

    # ------------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def remaining_seconds(self, now_epoch: Optional[float] = None) -> Optional[float]:
        """Wall seconds left before this job's deadline; None = unbounded."""
        if self.deadline_epoch is None:
            return None
        now = time.time() if now_epoch is None else now_epoch
        return self.deadline_epoch - now

    # ------------------------------------------------------------------
    def build_spec(self) -> ParserSpec:
        return parse_spec(self.spec_source, start=self.spec_start)

    def build_device(self) -> DeviceProfile:
        return DeviceProfile(**self.device)

    def build_options(self, **service_overrides: Any) -> CompileOptions:
        """The CompileOptions for one attempt: whitelisted job overrides
        first, then the service's own (persistence dirs, deadline)."""
        fields = {
            k: v for k, v in self.options.items() if k in OPTION_OVERRIDES
        }
        fields.update(service_overrides)
        return CompileOptions(**fields)

    # ------------------------------------------------------------------
    def to_doc(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "Job":
        known = {
            k: v for k, v in doc.items() if k in cls.__dataclass_fields__
        }
        return cls(**known)


def make_job(
    spec_source: str,
    device: DeviceProfile,
    *,
    tenant: str = "default",
    spec_start: str = "start",
    options: Optional[Dict[str, Any]] = None,
    deadline_seconds: Optional[float] = None,
    job_id: Optional[str] = None,
) -> Job:
    """Validate a submission and build its :class:`Job`.

    Raises ``ValueError`` for an unparseable spec or unknown option
    override — invalid requests are *permanent* failures and must be
    rejected at admission, never queued (they would fail identically on
    every retry).
    """
    options = dict(options or {})
    unknown = set(options) - OPTION_OVERRIDES
    if unknown:
        raise ValueError(
            f"unknown option override(s): {', '.join(sorted(unknown))}"
        )
    spec = parse_spec(spec_source, start=spec_start)  # raises on bad spec
    key = compile_key(spec, device, CompileOptions(**options))
    now = time.time()
    return Job(
        job_id=job_id or new_job_id(),
        tenant=tenant,
        compile_key=key,
        spec_source=spec_source,
        spec_start=spec_start,
        device=asdict(device),
        options=options,
        state=JOB_QUEUED,
        submitted_epoch=now,
        deadline_epoch=(
            now + deadline_seconds if deadline_seconds is not None else None
        ),
    )


__all__ = [
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "Job",
    "OPTION_OVERRIDES",
    "TERMINAL_STATES",
    "make_job",
    "new_job_id",
]
