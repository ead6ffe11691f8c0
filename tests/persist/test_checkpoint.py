"""CheckpointManager state tracking, its write rule, durability, and
degradation."""

from __future__ import annotations

import json

from repro.benchgen import all_base_specs
from repro.core import CompileOptions, compile_spec
from repro.core.testpool import TestPool as Pool
from repro.hw.device import tofino_profile
from repro.ir import Bits, parse_spec
from repro.obs import Tracer, use_tracer
from repro.persist import (
    CheckpointManager,
    arm_checkpoint_dir,
    check_proof_bundle,
    flush_active,
)
from repro.persist.checkpoint import CHECKPOINT_FILENAME
from repro.resilience import injection
from repro.resilience.faults import CompileFault
from repro.smt.sat import SatSolver, lit

KEY = "k" * 64
ARM = "fwd:0123456789abcdef"
BUDGET = (None, 5)
STAGED = (3, 7)
# A spec for pools whose expectations are never computed.
TINY = """
header h { a : 4; }
parser P { state start { extract(h); transition accept; } }
"""


def _refutation():
    """A DRAT log refuting all four sign patterns of two variables."""
    solver = SatSolver()
    log = solver.enable_proof()
    solver.ensure_vars(2)
    for a in (True, False):
        for b in (True, False):
            solver.add_clause([lit(0, a), lit(1, b)])
    assert solver.solve() is False
    return log


class TestStateRoundTrip:
    def test_file_materialized_up_front(self, tmp_path):
        manager = CheckpointManager(tmp_path, KEY)
        assert manager.path.exists()
        assert manager.path.name == CHECKPOINT_FILENAME

    def test_counterexamples_replay_in_order(self, tmp_path):
        manager = CheckpointManager(tmp_path, KEY)
        inputs = [Bits(0b101, 3), Bits(0, 1), Bits(0xFF, 8)]
        manager.begin_attempt(ARM, BUDGET, 0)
        for bits in inputs:
            manager.record_counterexample(ARM, BUDGET, bits)
        resumed = CheckpointManager(tmp_path, KEY)
        assert resumed.resumed
        assert resumed.latest_attempt(ARM, BUDGET) == (0, inputs)
        # Budgets and arms are separate records.
        assert resumed.latest_attempt(ARM, STAGED) is None
        assert resumed.latest_attempt("loop:other", BUDGET) is None

    def test_retired_budgets_and_slice(self, tmp_path):
        manager = CheckpointManager(tmp_path, KEY)
        manager.record_retired(ARM, BUDGET)
        manager.record_retired(ARM, STAGED)
        manager.record_retired(ARM, STAGED)       # idempotent
        manager.record_slice(ARM, 40.0)
        manager.flush()
        resumed = CheckpointManager(tmp_path, KEY)
        assert resumed.retired_budgets(ARM) == {BUDGET, STAGED}
        assert resumed.resume_slice(ARM) == 40.0
        assert resumed.retired_budgets("other") == set()
        assert resumed.resume_slice("other") is None


class TestResumeGuards:
    def test_key_mismatch_not_adopted(self, tmp_path):
        old = CheckpointManager(tmp_path, "a" * 64)
        old.begin_attempt(ARM, BUDGET, 0)
        old.record_counterexample(ARM, BUDGET, Bits(1, 1))
        tracer = Tracer()
        with use_tracer(tracer):
            other = CheckpointManager(tmp_path, "b" * 64)
        assert not other.resumed
        assert other.latest_attempt(ARM, BUDGET) is None
        assert tracer.registry.get("persist.key_mismatch") == 1

    def test_corrupt_checkpoint_means_cold_start(self, tmp_path):
        old = CheckpointManager(tmp_path, KEY)
        old.begin_attempt(ARM, BUDGET, 0)
        old.record_counterexample(ARM, BUDGET, Bits(1, 1))
        old.path.write_text(old.path.read_text()[:-40])
        resumed = CheckpointManager(tmp_path, KEY)
        assert not resumed.resumed
        assert resumed.latest_attempt(ARM, BUDGET) is None
        assert any(
            ".corrupt-" in p.name for p in tmp_path.iterdir()
        )


class TestDegradation:
    def test_write_failures_self_disable(self, tmp_path):
        manager = CheckpointManager(tmp_path, KEY)
        manager.begin_attempt(ARM, BUDGET, 0)
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
        assert not manager.flush()

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
        pool = Pool(parse_spec(TINY))
        pool.add(Bits(5, 3), "seed")
        pool.add(Bits(0, 1), "cex")
        manager.track_pool(ARM, pool)
        manager.flush()
        # The pool is append-only: a later write adds only the new tail.
        pool.add(Bits(0xFF, 8), "shared")
        manager.flush()
        resumed = CheckpointManager(tmp_path, KEY)
        assert resumed.pool_entries(ARM) == [
            (5, 3, "seed"), (0, 1, "cex"), (0xFF, 8, "shared"),
        ]
        # Pools are per arm (per bit layout).
        assert resumed.pool_entries("loop:other") == []

    def test_begin_attempt_keeps_only_the_latest(self, tmp_path):
        manager = CheckpointManager(tmp_path, KEY)
        manager.begin_attempt(ARM, BUDGET, 0)
        manager.record_counterexample(ARM, BUDGET, Bits(1, 2))
        # A retry starts a fresh attempt at a larger pool base: the old
        # attempt's live counterexamples are superseded (they are in the
        # pool by now), only the new attempt's are replayed.
        manager.begin_attempt(ARM, BUDGET, 4)
        manager.record_counterexample(ARM, BUDGET, Bits(3, 2))
        resumed = CheckpointManager(tmp_path, KEY)
        assert resumed.latest_attempt(ARM, BUDGET) == (4, [Bits(3, 2)])
        assert resumed.latest_attempt(ARM, STAGED) is None
        assert resumed.latest_attempt("loop:other", BUDGET) is None

    def test_pool_base_recorded_without_attempt_reset(self, tmp_path):
        # Counterexamples an attempt discovers are appended to its
        # record; they never reset the pool base it started from.
        manager = CheckpointManager(tmp_path, KEY)
        manager.begin_attempt(ARM, BUDGET, 2)
        manager.record_counterexample(ARM, BUDGET, Bits(1, 2))
        manager.record_counterexample(ARM, BUDGET, Bits(3, 2))
        resumed = CheckpointManager(tmp_path, KEY)
        assert resumed.latest_attempt(ARM, BUDGET) == (
            2, [Bits(1, 2), Bits(3, 2)]
        )


class TestWriteRule:
    """Only a counterexample writes through; every other record rides
    along with the next write."""

    def test_only_a_counterexample_writes_through(self, tmp_path):
        manager = CheckpointManager(tmp_path, KEY)
        pool = Pool(parse_spec(TINY))
        manager.track_pool(ARM, pool)
        empty = manager.path.read_bytes()
        pool.add(Bits(5, 4), "seed")
        manager.begin_attempt(ARM, BUDGET, 1)
        manager.record_retired(ARM, STAGED, proof=_refutation())
        manager.record_slice(ARM, 40.0)
        assert manager.path.read_bytes() == empty
        pool.add(Bits(9, 4), "cex")
        manager.record_counterexample(ARM, BUDGET, Bits(9, 4))
        resumed = CheckpointManager(tmp_path, KEY)
        assert resumed.pool_entries(ARM) == [(5, 4, "seed"), (9, 4, "cex")]
        assert resumed.latest_attempt(ARM, BUDGET) == (1, [Bits(9, 4)])
        assert resumed.retired_budgets(ARM) == {STAGED}
        refs = resumed.proof_refs(ARM)
        assert list(refs) == ["3:7"]
        assert check_proof_bundle(tmp_path, refs["3:7"]) == (True, "")
        assert resumed.resume_slice(ARM) == 40.0

    def test_directed_compile_writes_twice(self, tmp_path, monkeypatch):
        # Directed seeds settle parse_icmp with no counterexample: the
        # constructor and the compile's end are its only writes, and the
        # last one carries the whole pool in pool order.
        pools = {}
        track = CheckpointManager.track_pool

        def spy(manager, arm_key, pool):
            pools[arm_key] = pool
            track(manager, arm_key, pool)

        monkeypatch.setattr(CheckpointManager, "track_pool", spy)
        ckpt = tmp_path / "ckpt"
        tracer = Tracer()
        with use_tracer(tracer):
            result = compile_spec(
                all_base_specs()["parse_icmp"],
                tofino_profile(),
                CompileOptions(checkpoint_dir=str(ckpt)),
            )
        assert result.ok
        assert tracer.registry.get("checkpoint.counterexamples") == 0
        assert tracer.registry.get("checkpoint.flushes") == 2
        arms = json.loads((ckpt / CHECKPOINT_FILENAME).read_text())[
            "payload"
        ]["arms"]
        assert pools and set(arms) == set(pools)
        for arm_key, pool in pools.items():
            assert len(pool) > 1
            assert arms[arm_key]["pool"] == [
                [e.bits.uint(), len(e.bits), e.origin] for e in pool.prefix()
            ]
