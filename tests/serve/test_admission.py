"""AdmissionQueue: bounded capacity, tenant quotas, retry-after math."""

from __future__ import annotations

import pytest

from repro.serve import AdmissionQueue, QueueFull, QuotaExceeded


class TestCapacity:
    def test_primaries_bounded(self):
        q = AdmissionQueue(capacity=2, per_tenant=10)
        q.admit("a")
        q.admit("b")
        with pytest.raises(QueueFull) as exc:
            q.admit("c")
        assert exc.value.retry_after >= 1.0

    def test_coalesced_jobs_do_not_consume_capacity(self):
        q = AdmissionQueue(capacity=1, per_tenant=10)
        q.admit("a", primary=True)
        # Waiters piggyback on the in-flight primary.
        q.admit("a", primary=False)
        q.admit("b", primary=False)
        assert q.primaries == 1

    def test_release_frees_a_slot(self):
        q = AdmissionQueue(capacity=1, per_tenant=10)
        q.admit("a")
        with pytest.raises(QueueFull):
            q.admit("b")
        q.release("a")
        q.admit("b")                      # admitted now

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)
        with pytest.raises(ValueError):
            AdmissionQueue(per_tenant=0)


class TestQuota:
    def test_tenant_quota_counts_coalesced_jobs(self):
        q = AdmissionQueue(capacity=10, per_tenant=2)
        q.admit("t", primary=True)
        q.admit("t", primary=False)       # coalesced, still counts
        with pytest.raises(QuotaExceeded):
            q.admit("t", primary=False)
        # Other tenants are unaffected.
        q.admit("u", primary=True)

    def test_release_restores_quota(self):
        q = AdmissionQueue(capacity=10, per_tenant=1)
        q.admit("t")
        with pytest.raises(QuotaExceeded):
            q.admit("t", primary=False)
        q.release("t")
        q.admit("t")
        assert q.tenant_live == {"t": 1}


class TestForcedAdmission:
    def test_force_claims_past_capacity_and_quota(self):
        """Already-accepted work (restart, reclaim) is never bounced."""
        q = AdmissionQueue(capacity=1, per_tenant=1)
        q.admit("t")
        with pytest.raises(QueueFull):
            q.admit("u")
        with pytest.raises(QuotaExceeded):
            q.admit("t", primary=False)
        q.admit("t", force=True)
        q.admit("t", primary=False, force=True)
        assert q.primaries == 2
        assert q.tenant_live == {"t": 3}
        # Forced slots are returned like any other.
        q.release("t")
        q.release("t", primary=False)
        q.release("t")
        assert q.primaries == 0
        assert q.tenant_live == {}


class TestRetryAfter:
    def test_scales_with_depth_over_workers(self):
        q = AdmissionQueue(capacity=100, per_tenant=100, workers=2)
        q.observe_duration(10.0)
        for _ in range(4):
            q.admit("t")
        # 4 queued primaries, 2 workers: about two drain rounds.
        assert q.retry_after() == pytest.approx(
            q.estimated_seconds() * 4 / 2
        )

    def test_floor_of_one_second(self):
        q = AdmissionQueue(capacity=10, per_tenant=10, workers=4)
        for _ in range(50):
            q.observe_duration(0.001)
        assert q.retry_after() >= 1.0

    def test_ewma_tracks_observations(self):
        q = AdmissionQueue()
        before = q.estimated_seconds()
        for _ in range(20):
            q.observe_duration(1.0)
        after = q.estimated_seconds()
        assert abs(after - 1.0) < abs(before - 1.0)
        q.observe_duration(-5.0)          # ignored
        assert q.estimated_seconds() == after
