"""Crash-safety acceptance tests: a killed or faulted compile resumes
to the *identical* winner with strictly fewer live CEGIS iterations,
and damaged checkpoints degrade to a cold start (never a crash).

The determinism these tests pin comes from three properties:

* each budget's CEGIS run uses a derived per-budget RNG (independent of
  visitation history), and the CDCL solver is deterministic;
* resume *replays* recorded counterexamples, preceding each with the
  same ``solver.check`` the original iteration made, so the solver
  passes through the identical state sequence;
* replayed steps skip candidate decoding and equivalence verification,
  which is where the resumed run saves its work.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.benchgen import all_base_specs
from repro.core import CompileOptions, compile_spec
from repro.core.result import STATUS_FAULT
from repro.hw.device import tofino_profile
from repro.obs import Tracer, use_tracer
from repro.persist import program_fingerprint
from repro.resilience import injection
from repro.resilience.faults import CompileFault

REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


@pytest.fixture
def icmp_spec():
    return all_base_specs()["parse_icmp"]


@pytest.fixture
def full_device():
    return tofino_profile()


BASE = CompileOptions(directed_seed_tests=False, seed=3)


def _fault_after_solves(n):
    """A callable fault that lets n-1 solves through then raises."""
    calls = {"count": 0}

    def action():
        calls["count"] += 1
        if calls["count"] >= n:
            raise CompileFault("simulated crash")

    return action


class TestInProcessResume:
    def test_resume_reaches_identical_winner_with_fewer_iterations(
        self, tmp_path, icmp_spec, full_device
    ):
        cold = compile_spec(icmp_spec, full_device, BASE)
        assert cold.ok and cold.stats.cegis_iterations >= 3
        cold_fp = program_fingerprint(cold.program)

        ckpt = str(tmp_path / "ckpt")
        injection.inject("sat.solve", _fault_after_solves(4), times=None)
        try:
            crashed = compile_spec(
                icmp_spec, full_device, BASE.with_(checkpoint_dir=ckpt)
            )
        finally:
            injection.clear()
        assert crashed.status == STATUS_FAULT
        assert crashed.checkpoint_path.endswith("checkpoint.json")
        assert os.path.exists(crashed.checkpoint_path)

        tracer = Tracer()
        with use_tracer(tracer):
            resumed = compile_spec(
                icmp_spec,
                full_device,
                BASE.with_(checkpoint_dir=ckpt),
            )
        assert resumed.ok
        assert program_fingerprint(resumed.program) == cold_fp
        assert resumed.stats.cegis_replayed > 0
        assert (
            resumed.stats.cegis_iterations < cold.stats.cegis_iterations
        )
        assert (
            resumed.stats.cegis_iterations + resumed.stats.cegis_replayed
            == cold.stats.cegis_iterations
        )
        assert tracer.registry.get("checkpoint.resumed") == 1

    def test_timeout_result_names_checkpoint(
        self, tmp_path, icmp_spec, full_device
    ):
        ckpt = str(tmp_path / "ckpt")
        result = compile_spec(
            icmp_spec,
            full_device,
            BASE.with_(
                checkpoint_dir=ckpt,
                total_max_seconds=1e-9,   # expires immediately
            ),
        )
        assert result.status == "timeout"
        assert result.checkpoint_path.endswith("checkpoint.json")
        assert os.path.exists(result.checkpoint_path)

    def test_resume_skips_budgets_proved_unsat(self, tmp_path):
        """Retired budgets persist: the resumed run starts past them."""
        spec = all_base_specs()["parse_icmp"]
        device = tofino_profile(tcam_limit=64)
        ckpt = str(tmp_path / "ckpt")
        opts = BASE.with_(checkpoint_dir=ckpt)
        first = compile_spec(spec, device, opts)
        assert first.ok
        retired_first = first.stats.budgets_retired
        # A fresh search of the same problem resumes the checkpoint:
        # every budget the first run proved UNSAT is skipped outright.
        tracer = Tracer()
        with use_tracer(tracer):
            again = compile_spec(spec, device, opts)
        assert again.ok
        if retired_first:
            assert tracer.registry.get("checkpoint.budgets_skipped") >= 1
        assert again.stats.budgets_retired == 0


class TestDamagedCheckpoints:
    def _cold_fingerprint(self, icmp_spec, full_device):
        result = compile_spec(icmp_spec, full_device, BASE)
        return program_fingerprint(result.program)

    def test_torn_checkpoint_degrades_to_cold_start(
        self, tmp_path, icmp_spec, full_device
    ):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        path = ckpt / "checkpoint.json"
        path.write_text('{"magic": "parserhawk-persist", "kind": "che')
        result = compile_spec(
            icmp_spec,
            full_device,
            BASE.with_(checkpoint_dir=str(ckpt)),
        )
        assert result.ok
        assert result.stats.cegis_replayed == 0
        assert program_fingerprint(result.program) == (
            self._cold_fingerprint(icmp_spec, full_device)
        )
        assert any(".corrupt-" in p.name for p in ckpt.iterdir())

    def test_injected_read_fault_degrades_to_cold_start(
        self, tmp_path, icmp_spec, full_device
    ):
        ckpt = str(tmp_path / "ckpt")
        first = compile_spec(
            icmp_spec, full_device, BASE.with_(checkpoint_dir=ckpt)
        )
        assert first.ok
        injection.inject("persist.read", CompileFault("io error"))
        try:
            result = compile_spec(
                icmp_spec,
                full_device,
                BASE.with_(checkpoint_dir=ckpt),
            )
        finally:
            injection.clear()
        assert result.ok
        assert result.stats.cegis_replayed == 0

    def test_injected_write_faults_never_break_the_compile(
        self, tmp_path, icmp_spec, full_device
    ):
        injection.inject(
            "persist.write", CompileFault("disk full"), times=None
        )
        try:
            result = compile_spec(
                icmp_spec,
                full_device,
                BASE.with_(checkpoint_dir=str(tmp_path / "ckpt")),
            )
        finally:
            injection.clear()
        assert result.ok


class TestSigkillResume:
    """The real thing: SIGKILL a compiling process, resume in a fresh
    interpreter, same winner, strictly fewer live iterations."""

    def _run_child(self, ckpt, *flags, timeout=120):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        env["PYTHONHASHSEED"] = "0"
        out = subprocess.run(
            [
                sys.executable,
                os.path.join(
                    REPO, "tests", "persist", "_crash_child.py"
                ),
                ckpt, *flags,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_kill_mid_cegis_then_resume(self, tmp_path):
        cold = self._run_child("-")
        assert cold["status"] == "ok" and cold["iterations"] >= 3

        ckpt = str(tmp_path / "ckpt")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        env["PYTHONHASHSEED"] = "0"
        child = subprocess.Popen(
            [
                sys.executable,
                os.path.join(
                    REPO, "tests", "persist", "_crash_child.py"
                ),
                ckpt, "--slow",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            # Wait until the checkpoint records at least one
            # counterexample, then kill without ceremony.
            ckpt_file = os.path.join(ckpt, "checkpoint.json")
            deadline = time.monotonic() + 60
            recorded = 0
            while time.monotonic() < deadline:
                try:
                    doc = json.loads(open(ckpt_file).read())
                    recorded = sum(
                        len(b["cex"])
                        for arm in doc["payload"]["arms"].values()
                        for b in arm["budgets"].values()
                    )
                except (OSError, ValueError, KeyError):
                    recorded = 0
                if recorded >= 1:
                    break
                if child.poll() is not None:
                    pytest.fail(
                        "child finished before it could be killed; "
                        "increase the injected solve delay"
                    )
                time.sleep(0.05)
            assert recorded >= 1, "no counterexample checkpointed in time"
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL

        resumed = self._run_child(ckpt)
        assert resumed["status"] == "ok"
        assert resumed["fingerprint"] == cold["fingerprint"]
        assert resumed["replayed"] >= recorded
        assert resumed["iterations"] < cold["iterations"]
        assert (
            resumed["iterations"] + resumed["replayed"]
            == cold["iterations"]
        )


class TestResumeWithPool:
    # The destination-count lower bound claims two entries for `start`
    # but {1, 2} share no ternary cube, so the search retires an UNSAT
    # budget before succeeding — the second budget therefore *begins*
    # with a populated pool, which is the state a crash must preserve.
    TWO_BUDGET = """
    header h { a : 4; x : 2; }
    parser P {
        state start {
            extract(h.a);
            transition select(h.a) { 1 : s1; 2 : s1; default : accept; }
        }
        state s1 { extract(h.x); transition accept; }
    }
    """

    def test_resume_seeds_the_recorded_pool(self, tmp_path, full_device):
        """A resumed compile reconstructs the crashed run's TestPool,
        seeds the crashed budget's recorded prefix as up-front
        constraints — and still lands on the cold run's winner."""
        from repro.ir import parse_spec

        spec = parse_spec(self.TWO_BUDGET)
        cold = compile_spec(spec, full_device, BASE)
        assert cold.ok and cold.stats.budgets_retired >= 1
        ckpt = str(tmp_path / "ckpt")
        # Solve #4 lands inside the second (feasible) budget's run.
        injection.inject("sat.solve", _fault_after_solves(4), times=None)
        try:
            crashed = compile_spec(
                spec, full_device, BASE.with_(checkpoint_dir=ckpt)
            )
        finally:
            injection.clear()
        assert crashed.status == STATUS_FAULT
        # The pool and the attempt's pool base made it to disk.
        state = json.loads(open(crashed.checkpoint_path).read())["payload"]
        (arm,) = state["arms"].values()
        assert len(arm["pool"]) >= 1
        assert any(
            doc.get("pool_base") for doc in arm["budgets"].values()
        )

        tracer = Tracer()
        with use_tracer(tracer):
            resumed = compile_spec(
                spec, full_device, BASE.with_(checkpoint_dir=ckpt)
            )
        assert resumed.ok
        assert program_fingerprint(resumed.program) == (
            program_fingerprint(cold.program)
        )
        assert resumed.stats.pool_tests_reused >= 1
        assert tracer.registry.get("tests.pool_hits") >= 1
