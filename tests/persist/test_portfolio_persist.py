"""Portfolio-level persistence: every arm checkpoints under its own
``<root>/arms/<slug>/`` directory and resumes from that file alone, and
a resumable portfolio failure names the root directory."""

from __future__ import annotations

import os

from repro.core import CompileOptions
from repro.core.parallel import derive_subproblems, portfolio_compile
from repro.core.result import STATUS_INFEASIBLE, STATUS_TIMEOUT
from repro.hw.device import tofino_profile
from repro.ir import parse_spec
from repro.obs import Tracer, use_tracer
from repro.persist import arm_checkpoint_dir
from repro.persist.checkpoint import CHECKPOINT_FILENAME

# {1, 2} share a destination but no ternary cube, so start needs three
# entries while the destination-count lower bound claims two: with no
# entries allowed past the lower bound, every arm proves each of its
# budgets UNSAT.
NEEDS_THREE_ENTRIES = """
header h { a : 4; x : 2; }
parser P {
    state start {
        extract(h.a);
        transition select(h.a) { 1 : s1; 2 : s1; default : accept; }
    }
    state s1 { extract(h.x); transition accept; }
}
"""


def _options(**kw):
    return CompileOptions(directed_seed_tests=False, seed=3, **kw)


class TestPortfolioCheckpoint:
    def test_arms_checkpoint_in_own_dirs(self, tmp_path, spec, device):
        ckpt = tmp_path / "ckpt"
        options = _options(checkpoint_dir=str(ckpt))
        result = portfolio_compile(spec, device, options)
        assert result.ok
        assert os.listdir(ckpt) == ["arms"]
        arm_dirs = {
            arm_checkpoint_dir(ckpt, sub.label)
            for sub in derive_subproblems(spec, device, options)
        }
        written = {path.parent for path in ckpt.rglob("*.json")}
        # At least the winning arm checkpointed, each arm in its own slug.
        assert written and written <= arm_dirs
        assert all(
            (path / CHECKPOINT_FILENAME).exists() for path in written
        )

    def test_resume_rederives_infeasible_arms(self, tmp_path, device):
        spec = parse_spec(NEEDS_THREE_ENTRIES)
        options = _options(
            checkpoint_dir=str(tmp_path / "ckpt"), max_extra_entries=0
        )
        assert len(derive_subproblems(spec, device, options)) >= 2
        counters = []
        for _run in range(2):
            tracer = Tracer()
            with use_tracer(tracer):
                result = portfolio_compile(spec, device, options)
            assert result.status == STATUS_INFEASIBLE
            counters.append(tracer.registry)
        first, again = counters
        assert first.get("budget.retired") >= 2
        # The re-run skips every budget the first run retired, so no arm
        # attempts a budget or builds a skeleton.
        assert again.get("checkpoint.budgets_skipped") == first.get(
            "budget.retired"
        )
        assert again.get("budget.attempts") == 0

    def test_each_arm_writes_at_most_three_times(self, tmp_path):
        # Directed seeds refute every budget without a counterexample,
        # so an arm writes at its start, at its round's end and at most
        # once more: pool entries and retirements never write through.
        spec = parse_spec(NEEDS_THREE_ENTRIES)
        device = tofino_profile()
        options = CompileOptions(
            checkpoint_dir=str(tmp_path / "ckpt"), max_extra_entries=0
        )
        arms = derive_subproblems(spec, device, options)
        tracer = Tracer()
        with use_tracer(tracer):
            result = portfolio_compile(spec, device, options)
        assert result.status == STATUS_INFEASIBLE
        assert tracer.registry.get("budget.retired") >= len(arms)
        assert tracer.registry.get("checkpoint.flushes") <= 3 * len(arms)

    def test_portfolio_timeout_names_checkpoint(
        self, tmp_path, spec, device
    ):
        ckpt = tmp_path / "ckpt"
        result = portfolio_compile(
            spec,
            device,
            _options(checkpoint_dir=str(ckpt), total_max_seconds=1e-9),
        )
        assert result.status == STATUS_TIMEOUT
        # The root directory is what a re-run passes back.
        assert result.checkpoint_path == str(ckpt)
        assert os.path.isdir(result.checkpoint_path)
