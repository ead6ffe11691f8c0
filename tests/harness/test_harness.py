"""Harness smoke tests: each table/figure runner produces rows with the
paper's qualitative shape (full sweeps live in benchmarks/)."""

from __future__ import annotations

import pytest

from repro.benchgen import benchmark_by_label
from repro.harness import (
    format_table3,
    format_table4,
    format_table5,
    run_fig4,
    run_fig5,
    run_retarget,
    run_row,
    run_table4,
    run_table5,
    summarize_speedups,
)
from repro.harness.reporting import (
    fmt_speedup,
    fmt_time,
    format_table,
    geometric_mean,
    speedup_of,
)


class TestReporting:
    def test_fmt_time(self):
        assert fmt_time(1.234) == "1.23"
        assert fmt_time((20.0, True)) == ">20"
        assert fmt_time((2.5, False)) == "2.50"
        assert fmt_time(None) == "-"

    def test_speedup(self):
        assert speedup_of(2.0, 10.0) == 5.0
        assert fmt_speedup(2.0, (20.0, True)) == ">10.00x"
        assert fmt_speedup(None, 1.0) == "-"

    def test_speedup_nonpositive_measurements_are_undefined(self):
        """A ~0s (cache-served) or negative (clock hiccup) measurement
        must yield '-', not a number fabricated from a clamped value."""
        assert speedup_of(0.0, 10.0) is None
        assert speedup_of(-0.01, 10.0) is None
        assert speedup_of(2.0, 0.0) is None
        assert speedup_of(2.0, -1.0) is None
        assert fmt_speedup(0.0, 10.0) == "-"
        assert fmt_speedup(2.0, (0.0, True)) == "-"

    def test_speedup_capped_tuple_inputs(self):
        """Capped tuples unwrap on both sides of the ratio."""
        assert speedup_of((2.0, False), (20.0, True)) == 10.0
        assert speedup_of((0.0, False), (20.0, True)) is None
        assert fmt_speedup((2.0, False), (20.0, True)) == ">10.00x"

    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)
        assert geometric_mean([]) == 0.0

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len({len(l) for l in lines}) == 1  # aligned columns


class TestTable3Row:
    def test_single_row_tofino(self):
        bench = benchmark_by_label("Parse Ethernet")
        row = run_row(bench, "tofino", validate_samples=100)
        assert row.validated
        assert row.ph_entries > 0
        assert not row.baseline_rejected
        assert row.ph_entries <= row.baseline_entries

    def test_single_row_ipu_with_loop_rejection(self):
        bench = benchmark_by_label("Parse MPLS")
        row = run_row(bench, "ipu", validate_samples=100)
        assert row.validated
        assert row.baseline_rejected == "Parser loop rej"
        assert row.ph_stages > 0

    def test_orig_arm_capped(self):
        bench = benchmark_by_label("Parse Ethernet")
        row = run_row(
            bench, "tofino", include_orig=True, orig_cap_seconds=3.0,
            validate_samples=0,
        )
        assert row.orig_seconds is not None

    def test_format(self):
        bench = benchmark_by_label("Parse Ethernet")
        row = run_row(bench, "tofino", validate_samples=0)
        text = format_table3([row])
        assert "Parse Ethernet" in text and "# TCAM" in text

    def test_cache_dir_serves_second_run(self, tmp_path):
        bench = benchmark_by_label("Parse Ethernet")
        cache = str(tmp_path / "cache")
        first = run_row(
            bench, "tofino", validate_samples=0, cache_dir=cache
        )
        assert not first.cached
        second = run_row(
            bench, "tofino", validate_samples=0, cache_dir=cache
        )
        assert second.cached
        assert second.ph_entries == first.ph_entries
        assert second.ph_stages == first.ph_stages


class TestTable4:
    def test_parserhawk_never_worse_than_dp(self):
        rows = run_table4()
        for row in rows:
            if not row.dp_rejected:
                assert row.ph_entries <= row.dp_entries, row.label
        # The redundant-entry case must show a strict win (ME-3 1 vs 10).
        me3 = next(r for r in rows if r.label.startswith("ME-3"))
        assert me3.ph_entries == 1
        assert me3.dp_entries >= 9
        assert "ME-3" in format_table4(rows)

    def test_key_split_row_strictly_better(self):
        rows = run_table4()
        narrow = next(r for r in rows if "4-bit window" in r.label)
        assert narrow.ph_entries < narrow.dp_entries


class TestFigures:
    def test_fig4_shapes(self):
        results = run_fig4()
        by_dev = {r.device: r for r in results}
        assert by_dev["device B"].parserhawk_entries <= (
            by_dev["device B"].heuristic_entries
        )
        # The narrow device costs the heuristic much more.
        assert by_dev["device A"].heuristic_entries > (
            by_dev["device B"].heuristic_entries
        )

    def test_fig5_writing_style_invariance(self):
        results = run_fig5()
        entries = {r.parserhawk_entries for r in results}
        assert len(entries) == 1  # same resources for both writings
        rules = {r.spec_rule_count for r in results}
        assert len(rules) == 2    # but genuinely different programs

    def test_retarget_same_spec_both_devices(self):
        result = run_retarget()
        assert result.both_valid
        assert result.tofino_entries > 0
        assert result.ipu_stages > 0
        assert "# tofino" in result.tofino_config
        assert "# ipu" in result.ipu_config


class TestTable5AndSummary:
    def test_ablation_speedups(self):
        rows = run_table5(
            "tofino", benchmarks=["Large tran key"], cap_seconds=60.0
        )
        row = rows[0]
        full = row.seconds["+ OPT4, 5"]
        other = row.seconds["Other OPT"]
        assert full <= other or row.capped["Other OPT"]
        assert "Large tran key" in format_table5(rows)

    def test_summary_aggregates(self):
        bench = benchmark_by_label("Parse Ethernet")
        row = run_row(
            bench, "tofino", include_orig=True, orig_cap_seconds=3.0,
            validate_samples=0,
        )
        summary = summarize_speedups([row])
        assert summary.rows == 1
        assert summary.geomean_speedup > 0
        assert "geomean" in str(summary)


class TestTable5Ipu:
    def test_ablation_runs_on_ipu(self):
        rows = run_table5("ipu", benchmarks=["Dash V1"], cap_seconds=45.0)
        row = rows[0]
        assert row.device == "ipu"
        assert not row.capped["+ OPT4, 5"]
