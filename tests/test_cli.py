"""Command-line interface tests."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

DEMO = """
header eth { dst : 8; etherType : 4; }
header ip  { proto : 4; }
parser Demo {
    state start {
        extract(eth);
        transition select(eth.etherType) { 0x8 : parse_ip; default : accept; }
    }
    state parse_ip { extract(ip); transition accept; }
}
"""


@pytest.fixture
def source(tmp_path):
    path = tmp_path / "demo.p4sub"
    path.write_text(DEMO)
    return str(path)


class TestCompile:
    def test_text_emission(self, source, capsys):
        assert main(["compile", source, "--key-limit", "8"]) == 0
        out = capsys.readouterr().out
        assert "TcamProgram(Demo)" in out
        assert "parse_ip" in out

    def test_config_emission(self, source, capsys):
        code = main(
            ["compile", source, "--key-limit", "8", "--emit", "config"]
        )
        assert code == 0
        assert "# tofino parser config" in capsys.readouterr().out

    def test_json_emission(self, source, capsys):
        code = main(["compile", source, "--key-limit", "8", "--emit", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_entries"] >= 1

    def test_ipu_target(self, source, capsys):
        code = main(
            [
                "compile", source, "--target", "ipu", "--key-limit", "8",
                "--emit", "config",
            ]
        )
        assert code == 0
        assert "[stage" in capsys.readouterr().out

    def test_infeasible_device_fails(self, source, capsys):
        code = main(
            ["compile", source, "--key-limit", "8", "--tcam-limit", "1"]
        )
        assert code == 1
        assert "failed" in capsys.readouterr().err


class TestTraceFlags:
    def test_trace_writes_span_tree_json(self, source, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        code = main(
            [
                "compile", source, "--key-limit", "8",
                "--trace", str(out_path),
            ]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["name"] == "trace"
        compile_span = doc["children"][0]
        assert compile_span["name"] == "compile"
        assert compile_span["seconds"] > 0
        names = {c["name"] for c in compile_span["children"]}
        assert "arm" in names

    def test_profile_prints_table(self, source, capsys):
        code = main(["compile", source, "--key-limit", "8", "--profile"])
        assert code == 0
        err = capsys.readouterr().err
        assert "span" in err
        assert "sat.solve" in err

    def test_validate_accepts_trace(self, source, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        code = main(
            [
                "validate", source, "--key-limit", "8", "--samples", "50",
                "--trace", str(out_path),
            ]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["children"][0]["name"] == "compile"


class TestSimulate:
    def test_binary_input(self, source, capsys):
        code = main(["simulate", source, "0b0000000110000110"])
        assert code == 0
        out = capsys.readouterr().out
        assert "outcome: accept" in out
        assert "ip.proto = 0x6" in out

    def test_hex_input(self, source, capsys):
        code = main(["simulate", source, "0x0186"])
        assert code == 0
        assert "accept" in capsys.readouterr().out

    def test_truncated_input_rejects(self, source, capsys):
        code = main(["simulate", source, "0b0101"])
        assert code == 0
        assert "outcome: reject" in capsys.readouterr().out


class TestValidate:
    def test_validate_passes(self, source, capsys):
        code = main(
            ["validate", source, "--key-limit", "8", "--samples", "100"]
        )
        assert code == 0
        assert "passed" in capsys.readouterr().out


# Every command that takes a parser source file, with "SRC" standing for
# the file and "DIR" for a service directory.
SOURCE_COMMANDS = {
    "compile": ["compile", "SRC"],
    "simulate": ["simulate", "SRC", "0x00"],
    "validate": ["validate", "SRC"],
    "submit": ["submit", "DIR", "SRC"],
}


def _argv(command, src, tmp_path):
    names = {"SRC": str(src), "DIR": str(tmp_path / "svc")}
    return [names.get(arg, arg) for arg in SOURCE_COMMANDS[command]]


class TestSourceErrors:
    """A bad source file ends the command with one line on stderr and
    exit code 1, never a traceback."""

    @pytest.mark.parametrize("command", sorted(SOURCE_COMMANDS))
    def test_missing_file(self, command, tmp_path, capsys):
        src = tmp_path / "nope.p4sub"
        assert main(_argv(command, src, tmp_path)) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"cannot read {src}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["compile", "simulate", "validate"])
    @pytest.mark.parametrize(
        "text",
        [
            "header eth { dst : 8; ",
            "parser P { state start { transition nowhere; } }",
        ],
        ids=["ParseError", "SemanticError"],
    )
    def test_unparseable_spec(self, command, text, tmp_path, capsys):
        src = tmp_path / "bad.p4sub"
        src.write_text(text)
        assert main(_argv(command, src, tmp_path)) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"{src}: ")
        assert err.count("\n") == 1


class TestArgParsing:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_target_exits(self, source):
        with pytest.raises(SystemExit):
            main(["compile", source, "--target", "fpga"])


class TestBench:
    @pytest.mark.slow
    def test_bench_table4(self, capsys):
        assert main(["bench", "table4"]) == 0
        out = capsys.readouterr().out
        assert "DPParserGen" in out and "ME-3" in out


class TestDotAndReport:
    def test_dot_emission(self, source, capsys):
        code = main(["compile", source, "--key-limit", "8", "--emit", "dot"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "->" in out

    def test_resource_report(self, source, capsys):
        code = main(["compile", source, "--key-limit", "8", "--report"])
        assert code == 0
        err = capsys.readouterr().err
        assert "resource report" in err
        assert "headroom" in err


class TestPersistenceFlags:
    def test_checkpoint_dir_materializes_checkpoint(
        self, source, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        code = main(
            [
                "compile", source, "--key-limit", "8",
                "--checkpoint-dir", str(ckpt),
            ]
        )
        assert code == 0
        doc = json.loads((ckpt / "checkpoint.json").read_text())
        assert doc["kind"] == "checkpoint"
        # The winning attempt's record reached disk.
        assert doc["payload"]["arms"]

    def test_cache_round_trip(self, source, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(
            ["compile", source, "--key-limit", "8", "--cache-dir", cache]
        ) == 0
        first = capsys.readouterr()
        assert "(cached)" not in first.err
        assert main(
            ["compile", source, "--key-limit", "8", "--cache-dir", cache]
        ) == 0
        second = capsys.readouterr()
        assert "(cached)" in second.err
        # Identical program emitted both times.
        assert first.out == second.out

    def test_keyboard_interrupt_flushes_and_exits_130(
        self, source, tmp_path, capsys
    ):
        from repro.resilience import injection

        ckpt = tmp_path / "ckpt"
        injection.inject("sat.solve", KeyboardInterrupt)
        try:
            code = main(
                [
                    "compile", source, "--key-limit", "8",
                    "--checkpoint-dir", str(ckpt),
                ]
            )
        finally:
            injection.clear()
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "re-run the same command" in err
        # The interrupt flushed a loadable checkpoint.
        doc = json.loads((ckpt / "checkpoint.json").read_text())
        assert doc["payload"]["arms"]

    def test_keyboard_interrupt_without_checkpoint(self, source, capsys):
        from repro.resilience import injection

        injection.inject("sat.solve", KeyboardInterrupt)
        try:
            code = main(["compile", source, "--key-limit", "8"])
        finally:
            injection.clear()
        assert code == 130
        assert "interrupted" in capsys.readouterr().err


class TestCacheCommand:
    def _populate(self, source, cache):
        assert main(
            ["compile", source, "--key-limit", "8", "--cache-dir", cache]
        ) == 0

    def test_stats_and_verify_and_clear(self, source, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        self._populate(source, cache)
        capsys.readouterr()

        assert main(["cache", "stats", cache]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out

        assert main(["cache", "verify", cache]) == 0
        assert "verified 1 entry, 0 corrupt" in capsys.readouterr().out

        assert main(["cache", "clear", cache]) == 0
        assert "removed 1 cache entry" in capsys.readouterr().out
        assert main(["cache", "stats", cache]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_verify_flags_corrupt_entries(self, source, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self._populate(source, str(cache_dir))
        capsys.readouterr()
        entry = next(
            p for shard in cache_dir.iterdir() if shard.is_dir()
            for p in shard.iterdir() if p.suffix == ".json"
        )
        entry.write_text("garbage")
        assert main(["cache", "verify", str(cache_dir)]) == 1
        assert "1 corrupt" in capsys.readouterr().out


class TestSatCommand:
    SAT_CNF = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"
    UNSAT_CNF = "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"

    @pytest.fixture
    def sat_file(self, tmp_path):
        path = tmp_path / "sat.cnf"
        path.write_text(self.SAT_CNF)
        return str(path)

    @pytest.fixture
    def unsat_file(self, tmp_path):
        path = tmp_path / "unsat.cnf"
        path.write_text(self.UNSAT_CNF)
        return str(path)

    def test_sat_instance(self, sat_file, capsys):
        assert main(["sat", "solve", sat_file]) == 10
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out
        # The v-line is a complete assignment over the declared variables.
        vline = next(l for l in out.splitlines() if l.startswith("v "))
        assert len(vline.split()) == 5  # 'v' + 3 vars + trailing 0

    def test_unsat_instance_both_modes(self, unsat_file, capsys):
        # Proof logging only observes: the verdict is the same with it on.
        assert main(["sat", "solve", unsat_file]) == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out
        assert main(["sat", "solve", unsat_file, "--check-proof"]) == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_stats_output(self, sat_file, capsys):
        assert main(["sat", "solve", sat_file, "--stats"]) == 10
        out = capsys.readouterr().out
        assert "c clauses_added = 3" in out
        assert "c propagate_seconds" in out

    def test_budget_unknown(self, tmp_path, capsys):
        # A hard pigeonhole instance under a 1-conflict budget: UNKNOWN.
        n = 6
        lines = [f"p cnf {(n + 1) * n} 0"]
        for p in range(n + 1):
            lines.append(" ".join(str(p * n + h + 1) for h in range(n)) + " 0")
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    lines.append(f"-{p1 * n + h + 1} -{p2 * n + h + 1} 0")
        path = tmp_path / "php.cnf"
        path.write_text("\n".join(lines) + "\n")
        code = main(["sat", "solve", str(path), "--max-conflicts", "1"])
        assert code == 0
        assert "s UNKNOWN" in capsys.readouterr().out


class TestSatDegenerateInputs:
    def _solve(self, tmp_path, text, *extra):
        path = tmp_path / "in.cnf"
        path.write_text(text)
        return main(["sat", "solve", str(path), *extra])

    def test_empty_formula_is_satisfiable(self, tmp_path, capsys):
        assert self._solve(tmp_path, "p cnf 0 0\n") == 10
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out
        assert "v 0" in out          # empty assignment, still terminated

    def test_empty_clause_is_unsatisfiable(self, tmp_path, capsys):
        assert self._solve(tmp_path, "p cnf 1 1\n0\n") == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_under_declared_header_tolerated(self, tmp_path, capsys):
        # Header says 1 variable; the clauses use 2.  The ecosystem is
        # full of such files, so the count grows instead of erroring.
        assert self._solve(tmp_path, "p cnf 1 1\n1 2 0\n") == 10
        vline = next(
            l for l in capsys.readouterr().out.splitlines()
            if l.startswith("v ")
        )
        assert len(vline.split()) == 4   # 'v' + 2 vars + trailing 0

    def test_malformed_header_exits_cleanly(self, tmp_path, capsys):
        assert self._solve(tmp_path, "p cnf x 3\n1 0\n") == 1
        assert "malformed DIMACS" in capsys.readouterr().err

    def test_duplicate_header_exits_cleanly(self, tmp_path, capsys):
        assert self._solve(tmp_path, "p cnf 1 1\np cnf 1 1\n1 0\n") == 1
        assert "malformed DIMACS" in capsys.readouterr().err

    def test_missing_file_exits_cleanly(self, tmp_path, capsys):
        assert main(["sat", "solve", str(tmp_path / "nope.cnf")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestSatProofFlags:
    def test_unsat_proof_written_and_checked(self, tmp_path, capsys):
        path = tmp_path / "unsat.cnf"
        path.write_text(TestSatCommand.UNSAT_CNF)
        drat = tmp_path / "out.drat"
        code = main(
            ["sat", "solve", str(path), "--proof", str(drat),
             "--check-proof"]
        )
        assert code == 20
        captured = capsys.readouterr()
        assert "s UNSATISFIABLE" in captured.out
        assert "c proof verified" in captured.out
        # The written proof ends with the empty clause.
        assert drat.read_text().rstrip().splitlines()[-1] == "0"

    def test_check_proof_alone_verifies(self, tmp_path, capsys):
        path = tmp_path / "unsat.cnf"
        path.write_text(TestSatCommand.UNSAT_CNF)
        assert main(["sat", "solve", str(path), "--check-proof"]) == 20
        assert "c proof verified" in capsys.readouterr().out

    def test_sat_instance_notes_no_refutation(self, tmp_path, capsys):
        path = tmp_path / "sat.cnf"
        path.write_text(TestSatCommand.SAT_CNF)
        assert main(["sat", "solve", str(path), "--check-proof"]) == 10
        assert "no refutation" in capsys.readouterr().err


class TestCertifyFlag:
    def test_certified_compile_reports_certificate(
        self, source, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        code = main(
            ["compile", source, "--key-limit", "8", "--certify",
             "--cache-dir", cache]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "# equivalence certificate:" in err
        assert "cache verify --deep" in err
        # The advertised re-check passes.
        assert main(["cache", "verify", cache, "--deep"]) == 0
        out = capsys.readouterr().out
        assert "certificates: 1 ok, 0 invalid" in out

    def test_certify_without_persistence_warns(self, source, capsys):
        assert main(
            ["compile", source, "--key-limit", "8", "--certify"]
        ) == 0
        assert "nowhere to persist" in capsys.readouterr().err


class TestCacheMaintenanceFlags:
    def _populate(self, source, cache):
        assert main(
            ["compile", source, "--key-limit", "8", "--cache-dir", cache]
        ) == 0

    def _corrupt_entry(self, cache_dir):
        entry = next(
            p for shard in cache_dir.iterdir() if shard.is_dir()
            for p in shard.iterdir() if p.suffix == ".json"
        )
        entry.write_text("garbage")

    def test_clear_quarantined(self, source, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self._populate(source, str(cache_dir))
        self._corrupt_entry(cache_dir)
        assert main(["cache", "verify", str(cache_dir)]) == 1
        capsys.readouterr()
        assert main(
            ["cache", "clear", str(cache_dir), "--quarantined"]
        ) == 0
        assert "removed 1 quarantined" in capsys.readouterr().out
        assert main(["cache", "stats", str(cache_dir)]) == 0
        assert "quarantined: 0" in capsys.readouterr().out

    def test_deep_verify_reports_quarantine_actions(
        self, source, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        self._populate(source, str(cache_dir))
        self._corrupt_entry(cache_dir)
        assert main(["cache", "verify", str(cache_dir), "--deep"]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt (1 quarantined)" in out
        assert "certificates: 0 ok, 0 invalid" in out
