"""Ctrl-C durability: SIGINT mid-CEGIS must flush a resumable checkpoint
and exit with the conventional 130 (the PR-3 contract in ``cli.main``).

The child runs the real CLI on a compile that finds no counterexample
before the signal.  Only a counterexample writes a checkpoint through —
pool entries and attempt starts ride along with the next write — so the
mid-run CEGIS state reaches disk *only* through ``flush_active()`` in
the KeyboardInterrupt handler: if the checkpoint holds any arm state,
the handler provably ran.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


@pytest.mark.skipif(
    not hasattr(signal, "SIGINT") or os.name == "nt",
    reason="POSIX signal delivery required",
)
def test_sigint_mid_cegis_flushes_resumable_checkpoint(tmp_path):
    from repro.benchgen import all_base_specs

    # large_tran_key needs dozens of solver calls, so the injected
    # per-solve delay opens a wide mid-CEGIS window for the signal.
    spec_path = tmp_path / "large_tran_key.ph"
    spec_path.write_text(all_base_specs()["large_tran_key"].to_source())
    ckpt = tmp_path / "ckpt"
    marker = tmp_path / "mid-cegis"

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["PYTHONHASHSEED"] = "0"
    child = subprocess.Popen(
        [
            sys.executable,
            os.path.join(REPO, "tests", "persist", "_sigint_child.py"),
            str(spec_path),
            str(ckpt),
            str(marker),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not marker.exists():
            if child.poll() is not None:
                out, err = child.communicate(timeout=10)
                pytest.fail(
                    "child finished before it could be interrupted: "
                    f"rc={child.returncode} stderr={err[-500:]}"
                )
            if time.monotonic() > deadline:
                pytest.fail("child never reached mid-CEGIS")
            time.sleep(0.02)
        child.send_signal(signal.SIGINT)
        _out, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)

    # The PR-3 contract: conventional SIGINT status + a re-run hint.
    assert child.returncode == 130, err
    assert "interrupted" in err
    assert "re-run the same command" in err

    # flush_active() provably ran: the only earlier write was the empty
    # constructor flush, yet the file now holds live per-arm state.
    doc = json.loads((ckpt / "checkpoint.json").read_text())
    arms = doc["payload"]["arms"]
    assert arms, "KeyboardInterrupt flush did not persist CEGIS state"
    recorded = sum(
        len(budget["cex"])
        for arm in arms.values()
        for budget in arm["budgets"].values()
    ) + sum(len(arm.get("pool", [])) for arm in arms.values())
    assert recorded >= 1

    # And the checkpoint is genuinely resumable: a fresh run adopting it
    # completes the compile.
    resumed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "compile",
            str(spec_path),
            "--checkpoint-dir",
            str(ckpt),
            "--seed",
            "3",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert resumed.returncode == 0, resumed.stderr
