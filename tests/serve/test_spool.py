"""Filesystem spool protocol: acks, idempotent reprocessing, metrics."""

from __future__ import annotations

from repro.serve import CompileService, JOB_DONE, SpoolClient, SpoolServer
from repro.serve.spool import ACK_KIND, ACK_VERSION
from repro.persist.atomic import write_atomic
from repro.resilience.retry import RetryPolicy

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
WAIT = 120.0


def make_pair(tmp_path, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("retry_policy", FAST_RETRY)
    root = tmp_path / "svc"
    service = CompileService(root, **kwargs)
    return SpoolClient(root), SpoolServer(root, service), service


class TestRoundTrip:
    def test_submit_drain_ack_result(self, tmp_path, spec_source, device):
        client, server, service = make_pair(tmp_path)
        req = client.submit(spec_source, device, tenant="t")
        service.start()
        try:
            assert server.drain_inbox() == 1
            ack = client.ack(req)
            assert ack == {
                "req_id": req, "accepted": True, "job_id": req,
            }
            job = client.wait_job(req, timeout=WAIT)
        finally:
            service.shutdown()
        assert job.state == JOB_DONE
        assert job.result_doc["program"] is not None
        # The inbox file was consumed.
        assert list(client.inbox.iterdir()) == []

    def test_invalid_spec_acked_as_permanent_rejection(
        self, tmp_path, device
    ):
        client, server, service = make_pair(tmp_path)
        req = client.submit("parser oops {", device)
        assert server.drain_inbox() == 1
        ack = client.ack(req)
        assert ack["accepted"] is False
        assert ack["permanent"] is True
        assert client.job(req) is None          # never journaled

    def test_backpressure_ack_carries_retry_after(
        self, tmp_path, spec_source, other_spec_source, device
    ):
        client, server, service = make_pair(tmp_path, capacity=1)
        first = client.submit(spec_source, device)
        second = client.submit(other_spec_source, device)
        # Workers never started: the first fills the queue.
        assert server.drain_inbox() == 2
        assert client.ack(first)["accepted"] is True
        rejection = client.ack(second)
        assert rejection["accepted"] is False
        assert rejection["permanent"] is False
        assert rejection["retry_after"] >= 1.0

    def test_requests_drain_in_submission_order(self, tmp_path, device):
        # Ids made within one millisecond must still sort in creation
        # order, or a burst drains out of order.
        client, _server, _service = make_pair(tmp_path)
        reqs = [client.submit("parser p {", device) for _ in range(50)]
        assert sorted(p.stem for p in client.inbox.iterdir()) == reqs

    def test_metrics_round_trip(self, tmp_path, spec_source, device):
        client, server, service = make_pair(tmp_path)
        client.submit(spec_source, device)
        server.drain_inbox()
        server.write_metrics()
        metrics = client.metrics()
        assert metrics["counters"]["serve.accepted"] == 1
        assert metrics["gauges"]["queue_depth"] == 1

    def test_stop_request(self, tmp_path):
        client, server, _ = make_pair(tmp_path)
        assert not server.stop_requested()
        client.request_stop()
        assert server.stop_requested()


class TestCrashWindows:
    """Reprocessing an inbox file converges no matter where the
    previous server died."""

    def test_journaled_but_never_acked(self, tmp_path, spec_source, device):
        client, server, service = make_pair(tmp_path)
        req = client.submit(spec_source, device)
        # Crash window: the old server accepted (journal write) but died
        # before writing the ack.  Simulate by submitting directly.
        service.submit(spec_source, device, job_id=req)
        before = service.registry.get("serve.accepted")
        assert server.drain_inbox() == 1
        assert client.ack(req)["accepted"] is True
        # Not resubmitted: the journaled job was acked, not re-admitted.
        assert service.registry.get("serve.accepted") == before

    def test_acked_but_never_unlinked(self, tmp_path, spec_source, device):
        client, server, service = make_pair(tmp_path)
        req = client.submit(spec_source, device)
        write_atomic(
            server.acks / f"{req}.json", ACK_KIND, ACK_VERSION,
            {"req_id": req, "accepted": True, "job_id": req},
        )
        assert server.drain_inbox() == 1
        assert list(client.inbox.iterdir()) == []
        # Nothing was admitted behind the stale ack's back.
        assert service.registry.get("serve.accepted", 0) == 0

    def test_torn_request_consumed_not_trusted(
        self, tmp_path, spec_source, device
    ):
        client, server, service = make_pair(tmp_path)
        req = client.submit(spec_source, device)
        path = client.inbox / f"{req}.json"
        path.write_text(path.read_text()[:-25])
        assert server.drain_inbox() == 1
        assert client.ack(req) is None
        assert service.registry.get("serve.accepted", 0) == 0


class TestServerLoop:
    def test_run_serves_until_stop(self, tmp_path, spec_source, device):
        import threading

        client, server, service = make_pair(tmp_path)
        thread = threading.Thread(
            target=lambda: server.run(duration=60.0, poll=0.01),
            daemon=True,
        )
        thread.start()
        req = client.submit(spec_source, device)
        ack = client.wait_ack(req, timeout=WAIT)
        assert ack and ack["accepted"]
        job = client.wait_job(req, timeout=WAIT)
        assert job.state == JOB_DONE
        client.request_stop()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        # The final metrics snapshot landed on shutdown.
        assert client.metrics() is not None
