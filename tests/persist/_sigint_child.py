"""Subprocess body for the Ctrl-C (SIGINT) durability test.

Runs the real CLI (``repro compile``) on a multi-solve benchmark with a
checkpoint directory.  Only a counterexample writes the checkpoint
through, and this compile finds none before its first round ends, so
the only checkpoint writes are the (empty) constructor flush and
whatever ``flush_active()`` persists from the KeyboardInterrupt handler
in ``cli.main``.  An injected per-solve delay touches a marker file from
the third solver call onward, giving the parent a wide window to
deliver SIGINT mid-CEGIS.

Run as:  python -m tests.persist._sigint_child <spec> <ckpt-dir> <marker>
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def main() -> int:
    spec_path, ckpt_dir, marker = sys.argv[1:4]

    from repro.cli import main as cli_main
    from repro.resilience import injection

    state = {"visits": 0}

    def slow_then_mark() -> None:
        state["visits"] += 1
        if state["visits"] >= 3:
            # By now the test pool lives only in memory (pool entries
            # ride along with the next write); hold the solver so the
            # parent can interrupt mid-CEGIS.
            Path(marker).touch()
            time.sleep(0.5)

    injection.inject("sat.solve", slow_then_mark, times=None)
    return cli_main(
        [
            "compile",
            spec_path,
            "--checkpoint-dir",
            ckpt_dir,
            "--seed",
            "3",
        ]
    )


if __name__ == "__main__":
    sys.exit(main())
