"""CheckpointManager state tracking, durability, and degradation."""

from __future__ import annotations

from repro.ir import Bits
from repro.obs import Tracer, use_tracer
from repro.persist import CheckpointManager, arm_checkpoint_dir, flush_active
from repro.persist.checkpoint import CHECKPOINT_FILENAME
from repro.resilience import injection
from repro.resilience.faults import CompileFault

KEY = "k" * 64
ARM = "fwd:0123456789abcdef"
BUDGET = (None, 5)
STAGED = (3, 7)


class TestStateRoundTrip:
    def test_file_materialized_up_front(self, tmp_path):
        manager = CheckpointManager(tmp_path, KEY)
        assert manager.path.exists()
        assert manager.path.name == CHECKPOINT_FILENAME

    def test_counterexamples_replay_in_order(self, tmp_path):
        manager = CheckpointManager(tmp_path, KEY)
        inputs = [Bits(0b101, 3), Bits(0, 1), Bits(0xFF, 8)]
        for bits in inputs:
            manager.record_counterexample(ARM, BUDGET, bits)
        resumed = CheckpointManager(tmp_path, KEY)
        assert resumed.resumed
        assert resumed.replay_for(ARM, BUDGET) == inputs
        # Budgets and arms are separate pools.
        assert resumed.replay_for(ARM, STAGED) == []
        assert resumed.replay_for("loop:other", BUDGET) == []

    def test_retired_budgets_and_slice(self, tmp_path):
        manager = CheckpointManager(tmp_path, KEY)
        manager.record_retired(ARM, BUDGET)
        manager.record_retired(ARM, STAGED)
        manager.record_retired(ARM, STAGED)       # idempotent
        manager.record_slice(ARM, 40.0)
        manager.flush(force=True)
        resumed = CheckpointManager(tmp_path, KEY)
        assert resumed.retired_budgets(ARM) == {BUDGET, STAGED}
        assert resumed.resume_slice(ARM) == 40.0
        assert resumed.retired_budgets("other") == set()
        assert resumed.resume_slice("other") is None


class TestResumeGuards:
    def test_key_mismatch_not_adopted(self, tmp_path):
        old = CheckpointManager(tmp_path, "a" * 64)
        old.record_counterexample(ARM, BUDGET, Bits(1, 1))
        tracer = Tracer()
        with use_tracer(tracer):
            other = CheckpointManager(tmp_path, "b" * 64)
        assert not other.resumed
        assert other.replay_for(ARM, BUDGET) == []
        assert tracer.registry.get("persist.key_mismatch") == 1

    def test_corrupt_checkpoint_means_cold_start(self, tmp_path):
        old = CheckpointManager(tmp_path, KEY)
        old.record_counterexample(ARM, BUDGET, Bits(1, 1))
        old.path.write_text(old.path.read_text()[:-40])
        resumed = CheckpointManager(tmp_path, KEY)
        assert not resumed.resumed
        assert resumed.replay_for(ARM, BUDGET) == []
        assert any(
            ".corrupt-" in p.name for p in tmp_path.iterdir()
        )


class TestDegradation:
    def test_interval_throttles_flushes(self, tmp_path):
        manager = CheckpointManager(
            tmp_path, KEY, interval_seconds=3600.0
        )
        assert not manager.flush()                 # not dirty
        manager.record_retired(ARM, BUDGET)
        assert not manager.flush()                 # throttled
        assert manager.flush(force=True)           # force bypasses

    def test_write_failures_self_disable(self, tmp_path):
        manager = CheckpointManager(tmp_path, KEY)
        injection.inject(
            "persist.write", CompileFault("disk full"), times=None
        )
        tracer = Tracer()
        with use_tracer(tracer):
            for _ in range(4):
                manager.record_counterexample(ARM, BUDGET, Bits(1, 1))
        injection.clear()
        assert tracer.registry.get("persist.write_failures") == 3
        assert tracer.registry.get("checkpoint.disabled") == 1
        # Once disabled it stays off — even with the disk healthy again.
        assert not manager.flush(force=True)

    def test_flush_active_flushes_live_managers(self, tmp_path):
        manager = CheckpointManager(tmp_path, KEY)
        manager.record_retired(ARM, BUDGET)        # dirty
        assert flush_active() >= 1
        resumed = CheckpointManager(tmp_path, KEY)
        assert resumed.retired_budgets(ARM) == {BUDGET}


def test_arm_checkpoint_dir_slug(tmp_path):
    path = arm_checkpoint_dir(tmp_path, "key<=8,loop-free")
    assert path.parent == tmp_path / "arms"
    assert path.name == "key__8_loop-free"
    # Distinct labels keep distinct directories.
    other = arm_checkpoint_dir(tmp_path, "key<=8,loop-aware")
    assert other != path


class TestPoolPersistence:
    """The shared TestPool is part of the durable state: entries persist
    in insertion order and each budget records the pool prefix its
    latest attempt started from."""

    def test_pool_entries_round_trip_in_order(self, tmp_path):
        manager = CheckpointManager(tmp_path, KEY)
        manager.record_pool_entry(ARM, 5, 3, "seed")
        manager.record_pool_entry(ARM, 0, 1, "cex")
        manager.record_pool_entry(ARM, 0xFF, 8, "shared")
        resumed = CheckpointManager(tmp_path, KEY)
        assert resumed.pool_entries(ARM) == [
            (5, 3, "seed"), (0, 1, "cex"), (0xFF, 8, "shared"),
        ]
        # Pools are per arm (per bit layout).
        assert resumed.pool_entries("loop:other") == []

    def test_begin_attempt_keeps_only_the_latest(self, tmp_path):
        manager = CheckpointManager(tmp_path, KEY)
        manager.record_counterexample(ARM, BUDGET, Bits(1, 2))
        # A retry starts a fresh attempt at a larger pool base: the old
        # attempt's live counterexamples are superseded (they are in the
        # pool by now), only the new attempt's are replayed.
        manager.begin_attempt(ARM, BUDGET, 4)
        manager.record_counterexample(ARM, BUDGET, Bits(3, 2))
        manager.flush(force=True)
        resumed = CheckpointManager(tmp_path, KEY)
        assert resumed.pool_base(ARM, BUDGET) == 4
        assert resumed.replay_for(ARM, BUDGET) == [Bits(3, 2)]
        assert resumed.pool_base(ARM, STAGED) is None
        assert resumed.pool_base("loop:other", BUDGET) is None

    def test_pool_base_recorded_without_attempt_reset(self, tmp_path):
        # Counterexamples an attempt discovers are appended to its
        # record; they never reset the pool base it started from.
        manager = CheckpointManager(tmp_path, KEY)
        manager.begin_attempt(ARM, BUDGET, 2)
        manager.record_counterexample(ARM, BUDGET, Bits(1, 2))
        manager.record_counterexample(ARM, BUDGET, Bits(3, 2))
        manager.flush(force=True)
        resumed = CheckpointManager(tmp_path, KEY)
        assert resumed.pool_base(ARM, BUDGET) == 2
        assert resumed.replay_for(ARM, BUDGET) == [Bits(1, 2), Bits(3, 2)]
