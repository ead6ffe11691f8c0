"""Compilation options: the §6 optimization toggles and search budgets.

Each ``optN`` flag corresponds to one optimization from the paper; the
Table 5 ablation benches flip them individually.  Opt3 (pre-allocated
extraction) has no flag: the skeleton is built on it.  ``all_disabled``
is the "Orig" arm of Table 3 (naive encoding).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class CompileOptions:
    """Knobs for a :class:`~repro.core.compiler.ParserHawkCompiler` run."""

    # §6.1 spec-guided key construction: restrict impl transition-key bits
    # to those the specification itself keys on.
    opt1_spec_guided_keys: bool = True
    # §6.2 bit-width minimization: shrink fields irrelevant to control flow
    # to 1 bit during synthesis, restore afterwards.
    opt2_bitwidth_minimization: bool = True
    # §6.4 constant synthesis: one-hot candidate pools for TCAM value/mask
    # pairs instead of free symbolic bit-vectors.
    opt4_constant_synthesis: bool = True
    # §6.5 grouped transition-key allocation: treat each field slice used by
    # the spec as one indivisible key group.
    opt5_key_grouping: bool = True
    # §6.6 fixed-size treatment of varbit fields during synthesis.
    opt6_fixed_varbits: bool = True
    # §6.7.1 portfolio: on loop-capable targets, try the loop-free arm
    # before the loop-aware one for loop-free specs.
    opt7_parallelism: bool = True
    # Worker processes racing repro.core.parallel.portfolio_compile's
    # key-limit arms (1 = run them in-process, best priority first).
    # ParserHawkCompiler itself never reads it.
    parallel_workers: int = 1
    # Directed seed tests for CEGIS (our addition; the paper seeds with a
    # single random input/output pair, which the "Orig" arm reproduces).
    directed_seed_tests: bool = True

    # Whole-compile wall-clock budget.
    total_max_seconds: Optional[float] = None

    # Resource search.
    max_extra_entries: int = 8         # beyond the lower bound, per attempt
    # Iterative-deepening schedule over budgets (§6.7.2 portfolio,
    # sequential emulation): each budget gets a time slice per round,
    # and the slice grows by compiler.TIME_SLICE_GROWTH between rounds.
    budget_time_slice: float = 10.0
    max_time_slice: float = 900.0

    # Reproducibility.
    seed: int = 0

    # Persistence (see repro.persist).  ``checkpoint_dir`` enables durable
    # CEGIS/budget-search checkpoints, and a checkpoint already there
    # with a matching compile key is resumed.  ``cache_dir`` enables the
    # content-addressed compile cache.  None disables each.  These knobs
    # change where state lives, never which program a successful compile
    # produces, so fingerprint.NON_SEMANTIC_OPTIONS excludes them from
    # cache keys.
    checkpoint_dir: Optional[str] = None
    cache_dir: Optional[str] = None
    # Certifying mode: DRAT proof logging in every CEGIS solver, an
    # equivalence certificate written next to the cache entry on winner
    # paths (requires cache_dir), and proof-log references recorded in
    # the checkpoint manifest for UNSAT-gated outcomes (requires
    # checkpoint_dir).  Pure observation — the search, the winning
    # program, and cache keys are unchanged — so it is listed in
    # fingerprint.NON_SEMANTIC_OPTIONS.
    certify: bool = False

    def with_(self, **kwargs) -> "CompileOptions":
        return replace(self, **kwargs)

    @classmethod
    def all_disabled(cls, **overrides) -> "CompileOptions":
        """The naive-encoding "Orig" configuration of Table 3."""
        base = cls(
            opt1_spec_guided_keys=False,
            opt2_bitwidth_minimization=False,
            opt4_constant_synthesis=False,
            opt5_key_grouping=False,
            opt6_fixed_varbits=False,
            opt7_parallelism=False,
            directed_seed_tests=False,
        )
        return replace(base, **overrides)

    def enabled_summary(self) -> str:
        """The enabled optimizations in the paper's Opt1-Opt7 numbering.
        Opt3 (§6.3 pre-allocated extraction) is structural in the
        skeleton — one extraction unit per spec state — so it is always
        named."""
        bits = []
        for i, flag in enumerate(
            [
                self.opt1_spec_guided_keys,
                self.opt2_bitwidth_minimization,
                True,
                self.opt4_constant_synthesis,
                self.opt5_key_grouping,
                self.opt6_fixed_varbits,
                self.opt7_parallelism,
            ],
            start=1,
        ):
            if flag:
                bits.append(f"Opt{i}")
        return "+".join(bits)
