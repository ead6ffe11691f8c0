"""CompileService end-to-end: coalescing, retry, breaker, deadline,
recovery, degradation.

Compiles here use the two-state spec (sub-second), and every fault is
injected deterministically — no real crashes, no statistical slop.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.compiler import compile_spec
from repro.core.options import CompileOptions
from repro.ir import parse_spec
from repro.persist.serialize import result_to_doc
from repro.resilience import WorkerCrash, injection
from repro.resilience.retry import RetryPolicy
from repro.serve import (
    BreakerOpen,
    CircuitBreaker,
    CompileService,
    JOB_DONE,
    JOB_FAILED,
    JobJournal,
    QueueFull,
    QuotaExceeded,
    Rejected,
)
from repro.resilience import PoolBroken

# No sleeping between retries: tests drive the schedule, not the clock.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)

WAIT = 120.0


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("retry_policy", FAST_RETRY)
    kwargs.setdefault("sleep", lambda _s: None)
    return CompileService(tmp_path / "svc", **kwargs)


class TestHappyPath:
    def test_result_identical_to_direct_compile(
        self, tmp_path, spec_source, device
    ):
        svc = make_service(tmp_path)
        svc.start()
        try:
            job = svc.submit(spec_source, device)
            done = svc.wait(job.job_id, timeout=WAIT)
        finally:
            svc.shutdown()
        assert done.state == JOB_DONE
        direct = compile_spec(parse_spec(spec_source), device)
        direct_doc = result_to_doc(direct)
        assert done.result_doc["program"] == direct_doc["program"]
        assert done.result_doc["status"] == direct_doc["status"]

    def test_coalescing_one_compile_many_answers(
        self, tmp_path, spec_source, device
    ):
        svc = make_service(tmp_path, workers=1)
        # Submit before starting workers so every duplicate coalesces
        # deterministically behind the queued primary.
        jobs = [
            svc.submit(spec_source, device, tenant=f"t{i}")
            for i in range(4)
        ]
        svc.start()
        try:
            finished = [svc.wait(j.job_id, timeout=WAIT) for j in jobs]
        finally:
            svc.shutdown()
        assert all(j.state == JOB_DONE for j in finished)
        docs = [j.result_doc["program"] for j in finished]
        assert all(doc == docs[0] for doc in docs)
        counters = svc.registry.snapshot()
        assert counters["serve.compile_launched"] == 1
        assert counters["serve.coalesced"] == 3
        assert [j.coalesced_into for j in finished] == [
            None, jobs[0].job_id, jobs[0].job_id, jobs[0].job_id,
        ]

    def test_cache_fast_path_terminal_at_submit(
        self, tmp_path, spec_source, device
    ):
        svc = make_service(tmp_path)
        svc.start()
        try:
            first = svc.submit(spec_source, device)
            svc.wait(first.job_id, timeout=WAIT)
            again = svc.submit(spec_source, device)
        finally:
            svc.shutdown()
        assert again.state == JOB_DONE                # before any worker
        assert svc.registry.get("serve.cache_hits") == 1
        assert (
            again.result_doc["program"]
            == svc.status(first.job_id).result_doc["program"]
        )


class TestFinishedJobs:
    def test_journal_answers_for_finished_jobs(
        self, tmp_path, spec_source, device
    ):
        # One compile, then 200 submissions the cache answers at
        # admission: none of them stays in memory, and the journal
        # answers status() and wait() for all of them.
        svc = make_service(tmp_path, workers=1)
        svc.start()
        try:
            first = svc.submit(spec_source, device)
            svc.wait(first.job_id, timeout=WAIT)
            jobs = [first] + [
                svc.submit(spec_source, device) for _ in range(200)
            ]
            gauges = svc.metrics()["gauges"]
            for job in jobs:
                status = svc.status(job.job_id)
                assert status.state == JOB_DONE and status.result_doc
                waited = svc.wait(job.job_id, timeout=0)
                assert waited.terminal and waited.job_id == job.job_id
        finally:
            svc.shutdown()
        assert svc.registry.get("serve.cache_hits") == 200
        assert gauges["jobs_tracked"] == 0
        assert not svc._events

    def test_concurrent_clients_see_every_finish(
        self, tmp_path, spec_source, other_spec_source, device
    ):
        # More workers and clients than cores, with a short switch
        # interval: each wait() must return its job terminal whether it
        # caught the in-memory event or came after the job had moved to
        # the journal, and no finished job may stay tracked.
        svc = make_service(tmp_path, workers=4)
        sources = [spec_source, other_spec_source]
        states, errors = [], []

        def client(index):
            try:
                for round_ in range(5):
                    job = svc.submit(
                        sources[(index + round_) % 2], device,
                        tenant=f"t{index}",
                    )
                    states.append(svc.wait(job.job_id, timeout=WAIT).state)
            except Exception as exc:      # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        svc.start()
        try:
            clients = [
                threading.Thread(target=client, args=(i,)) for i in range(8)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=WAIT)
            assert not any(thread.is_alive() for thread in clients)
        finally:
            sys.setswitchinterval(interval)
            svc.shutdown()
        assert errors == []
        assert states == [JOB_DONE] * 40
        assert svc.metrics()["gauges"]["jobs_tracked"] == 0


class TestRetry:
    def test_transient_faults_retried_to_success(
        self, tmp_path, spec_source, device
    ):
        injection.inject("serve.worker", WorkerCrash, times=2)
        svc = make_service(tmp_path, workers=1)
        svc.start()
        try:
            job = svc.submit(spec_source, device)
            done = svc.wait(job.job_id, timeout=WAIT)
        finally:
            svc.shutdown()
        assert done.state == JOB_DONE
        assert done.attempts == 3
        assert svc.registry.get("serve.retries") == 2

    def test_exhausted_retries_fail_with_fault_kind(
        self, tmp_path, spec_source, device
    ):
        injection.inject("serve.worker", WorkerCrash, times=None)
        svc = make_service(tmp_path, workers=1)
        svc.start()
        try:
            job = svc.submit(spec_source, device)
            done = svc.wait(job.job_id, timeout=WAIT)
        finally:
            svc.shutdown()
        assert done.state == JOB_FAILED
        assert done.failure_kind == "fault"
        assert done.attempts == FAST_RETRY.max_attempts
        assert svc.registry.get("serve.retries_exhausted") == 1

    def test_infeasible_never_retries(self, tmp_path, device):
        # Extracts more bits than the device TCAM can dispatch on.
        infeasible = """
        header big { a : 4; }
        parser P {
            state start {
                extract(big);
                transition select(big.a) {
                    0x0 : accept; 0x1 : accept; 0x2 : accept;
                    default : reject;
                }
            }
        }
        """
        tight = device.with_limits(tcam_limit=1)
        svc = make_service(
            tmp_path,
            breaker=CircuitBreaker(failure_threshold=1),
        )
        svc.start()
        try:
            job = svc.submit(infeasible, tight)
            done = svc.wait(job.job_id, timeout=WAIT)
            # A clean verdict: no retries burned, breaker NOT tripped.
            after = svc.submit(infeasible, tight)
            done2 = svc.wait(after.job_id, timeout=WAIT)
        finally:
            svc.shutdown()
        assert done.state == JOB_FAILED
        assert done.failure_kind == "infeasible"
        assert done.attempts == 1
        assert done2.state == JOB_FAILED

    def test_stale_cache_served_when_retries_exhausted(
        self, tmp_path, spec_source, device
    ):
        svc = make_service(tmp_path, workers=1)
        # Submit against an empty cache (so the fast path misses) ...
        job = svc.submit(spec_source, device)
        assert job.state != JOB_DONE
        # ... then a sibling process finishes the same compile key into
        # the shared cache while this job's attempts keep faulting.
        direct = compile_spec(
            parse_spec(spec_source),
            device,
            CompileOptions(cache_dir=str(svc.cache.directory)),
        )
        assert direct.ok
        injection.inject("serve.worker", WorkerCrash, times=None)
        svc.start()
        try:
            done = svc.wait(job.job_id, timeout=30.0)
        finally:
            svc.shutdown()
        assert done.state == JOB_DONE
        assert done.degraded
        # The stale answer completes the job's bookkeeping: it is
        # journaled, its slots are returned and it counts as done.
        journaled = svc.journal.load(job.job_id)
        assert journaled.state == JOB_DONE and journaled.degraded
        assert svc.admission.primaries == 0
        assert svc.admission.tenant_live == {}
        assert svc.registry.get("serve.jobs_done") == 1


class TestAdmission:
    def test_queue_full_rejects_with_retry_after(
        self, tmp_path, spec_source, other_spec_source, device
    ):
        svc = make_service(tmp_path, capacity=1)
        svc.submit(spec_source, device)               # fills the queue
        with pytest.raises(QueueFull) as exc:
            svc.submit(other_spec_source, device)
        assert exc.value.retry_after >= 1.0

    def test_tenant_quota_enforced(
        self, tmp_path, spec_source, other_spec_source, device
    ):
        svc = make_service(tmp_path, per_tenant=1)
        svc.submit(spec_source, device, tenant="t")
        with pytest.raises(QuotaExceeded):
            svc.submit(other_spec_source, device, tenant="t")
        svc.submit(other_spec_source, device, tenant="u")

    def test_invalid_spec_rejected_never_journaled(self, tmp_path, device):
        svc = make_service(tmp_path)
        with pytest.raises(Exception) as exc:
            svc.submit("parser oops {", device)
        assert not isinstance(exc.value, Rejected)    # permanent, no retry
        assert svc.journal.recover() == []

    def test_unknown_option_override_rejected(
        self, tmp_path, spec_source, device
    ):
        svc = make_service(tmp_path)
        with pytest.raises(ValueError, match="parallel_workers"):
            svc.submit(
                spec_source, device, options={"parallel_workers": 8}
            )

    def test_journal_failure_rejects_and_releases_slot(
        self, tmp_path, spec_source, device
    ):
        injection.inject("serve.journal", PoolBroken("no disk"))
        svc = make_service(tmp_path, capacity=1)
        with pytest.raises(Rejected):
            svc.submit(spec_source, device)
        # The failed admission must not leak its slot.
        job = svc.submit(spec_source, device)
        assert svc.journal.load(job.job_id) is not None

    def test_journal_failure_on_cache_hit_is_transient_too(
        self, tmp_path, spec_source, device
    ):
        """The cache fast-path must reject a journal outage exactly
        like the queue path: as a retryable `Rejected`, never as a
        generic error the spool would ack as *permanent* (found by the
        chaos soak — a stranded request no client ever retried)."""
        svc = make_service(tmp_path)
        svc.start()
        try:
            first = svc.submit(spec_source, device)
            svc.wait(first.job_id, timeout=WAIT)
            injection.inject("serve.journal", PoolBroken("no disk"))
            with pytest.raises(Rejected, match="journal unavailable"):
                svc.submit(spec_source, device)    # cache-hit admission
            # The outage clears; the same submission now succeeds.
            again = svc.submit(spec_source, device)
            assert again.state == JOB_DONE
        finally:
            svc.shutdown()


class TestBreaker:
    def test_opens_after_failures_and_recovers_after_cooldown(
        self, tmp_path, spec_source, device
    ):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1,
            cooldown_seconds=60.0,
            clock=lambda: clock[0],
        )
        injection.inject("serve.worker", WorkerCrash, times=None)
        svc = make_service(tmp_path, workers=1, breaker=breaker)
        svc.start()
        try:
            job = svc.submit(spec_source, device, tenant="t")
            done = svc.wait(job.job_id, timeout=WAIT)
            assert done.state == JOB_FAILED
            with pytest.raises(BreakerOpen) as exc:
                svc.submit(spec_source, device, tenant="t")
            assert exc.value.retry_after > 0
            # Other tenants / other keys are unaffected.
            other = svc.submit(spec_source, device, tenant="u")
            svc.wait(other.job_id, timeout=WAIT)
            # After the cooldown the probe goes through, and — faults
            # cleared — closes the breaker.
            injection.clear()
            clock[0] += 60.0
            probe = svc.submit(spec_source, device, tenant="t")
            probed = svc.wait(probe.job_id, timeout=WAIT)
        finally:
            svc.shutdown()
        assert probed.state == JOB_DONE
        assert svc.registry.get("serve.breaker_opened") >= 1
        assert svc.registry.get("serve.breaker_closed") == 1


class TestDeadline:
    def test_expired_deadline_never_launches_a_compile(
        self, tmp_path, spec_source, device
    ):
        svc = make_service(tmp_path, workers=1)
        job = svc.submit(
            spec_source, device, deadline_seconds=-1.0
        )
        svc.start()
        try:
            done = svc.wait(job.job_id, timeout=WAIT)
        finally:
            svc.shutdown()
        assert done.state == JOB_FAILED
        assert done.failure_kind == "timeout"
        assert svc.registry.get("serve.compile_launched", 0) == 0
        assert svc.registry.get("serve.deadline_exceeded") == 1

    def test_deadline_caps_compiler_budget(
        self, tmp_path, spec_source, device
    ):
        captured = {}
        svc = make_service(tmp_path, workers=1)
        original = svc._attempt

        def spy(job, remaining):
            captured["remaining"] = remaining
            return original(job, remaining)

        svc._attempt = spy
        svc.start()
        try:
            job = svc.submit(
                spec_source,
                device,
                deadline_seconds=50.0,
                options={"total_max_seconds": 500.0},
            )
            done = svc.wait(job.job_id, timeout=WAIT)
        finally:
            svc.shutdown()
        assert done.state == JOB_DONE
        # The end-to-end deadline (50s), not the per-attempt override
        # (500s), bounds the compile.
        assert 0 < captured["remaining"] <= 50.0


class TestRecovery:
    def test_restart_readopts_and_finishes_everything(
        self, tmp_path, spec_source, other_spec_source, device
    ):
        # Server 1 accepts three jobs (two sharing a key) and "crashes"
        # before its workers ever start.
        first = make_service(tmp_path)
        a = first.submit(spec_source, device, tenant="t1")
        b = first.submit(spec_source, device, tenant="t2")   # coalesces
        c = first.submit(other_spec_source, device, tenant="t3")
        assert b.coalesced_into == a.job_id
        del first                                    # no shutdown: SIGKILL

        second = make_service(tmp_path)
        adopted = second.start()
        assert adopted == 3
        try:
            finished = [
                second.wait(j.job_id, timeout=WAIT) for j in (a, b, c)
            ]
        finally:
            second.shutdown()
        assert all(j.state == JOB_DONE for j in finished)
        # Zero lost accepted work: every journaled job is terminal.
        journal = JobJournal(tmp_path / "svc" / "journal")
        assert journal.recover() == []
        assert all(job.terminal for job in journal)
        # The coalesced pair still shared one compile after recovery.
        assert second.registry.get("serve.compile_launched") == 2

    def test_restart_finishes_a_cached_job_without_compiling(
        self, tmp_path, spec_source, device
    ):
        first = make_service(tmp_path)
        job = first.submit(spec_source, device)
        del first                                    # no shutdown: SIGKILL
        # Before the restart, a direct compile stores the answer in the
        # service's cache.
        direct = compile_spec(
            parse_spec(spec_source),
            device,
            CompileOptions(cache_dir=str(tmp_path / "svc" / "cache")),
        )
        assert direct.ok

        second = make_service(tmp_path)
        assert second.start() == 1
        try:
            done = second.wait(job.job_id, timeout=WAIT)
        finally:
            second.shutdown()
        assert done.state == JOB_DONE
        journal = JobJournal(tmp_path / "svc" / "journal")
        assert journal.load(job.job_id).state == JOB_DONE
        assert second.registry.get("serve.compile_launched") == 0
        assert second.admission.primaries == 0
