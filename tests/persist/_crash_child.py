"""Subprocess body for the kill-and-resume acceptance test.

Compiles the ICMP benchmark (undirected CEGIS seeds, so the run takes
several counterexample-driven iterations) and prints one JSON line with
the winner's program fingerprint and iteration counters.  ``--slow``
arms an injected per-solve delay so the parent has a comfortable window
to SIGKILL the process mid-CEGIS; the delay changes wall-clock only,
never the search itself.

A second run with the same checkpoint directory resumes the first.

Run as:  python -m tests.persist._crash_child <ckpt-dir|-> [--slow]
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    args = sys.argv[1:]
    ckpt_dir = args[0] if args and args[0] != "-" else None
    slow = "--slow" in args

    from repro.benchgen import all_base_specs
    from repro.core import CompileOptions, compile_spec
    from repro.hw.device import tofino_profile
    from repro.persist import program_fingerprint
    from repro.resilience import injection

    if slow:
        injection.inject(
            "sat.solve", lambda: time.sleep(0.35), times=None
        )

    spec = all_base_specs()["parse_icmp"]
    device = tofino_profile()
    options = CompileOptions(
        directed_seed_tests=False,
        seed=3,
        checkpoint_dir=ckpt_dir,
    )
    result = compile_spec(spec, device, options)
    print(json.dumps({
        "status": result.status,
        "fingerprint": (
            program_fingerprint(result.program) if result.ok else None
        ),
        "iterations": result.stats.cegis_iterations,
        "replayed": result.stats.cegis_replayed,
    }))
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
