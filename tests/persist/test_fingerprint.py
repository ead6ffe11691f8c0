"""Canonical fingerprint stability: the cache key must not depend on
dict insertion order, presentation state, non-semantic options, or the
process's ``PYTHONHASHSEED``."""

from __future__ import annotations

import os
import subprocess
import sys

from repro.core import CompileOptions
from repro.hw import tofino_profile
from repro.ir import parse_spec
from repro.ir.spec import ParserSpec
from repro.persist import compile_key, options_fingerprint, spec_fingerprint
from repro.persist.fingerprint import NON_SEMANTIC_OPTIONS

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

DEMO = """
header eth { dst : 8; etherType : 4; }
header ip  { proto : 4; }
parser Demo {
    state start {
        extract(eth);
        transition select(eth.etherType) { 0x8 : parse_ip; default : accept; }
    }
    state parse_ip { extract(ip); transition accept; }
    state unused { extract(ip); transition accept; }
}
"""

# The same parser with headers and (non-start) states declared in a
# different source order: field/state dict insertion order differs.
DEMO_REORDERED = """
header ip  { proto : 4; }
header eth { dst : 8; etherType : 4; }
parser Demo {
    state start {
        extract(eth);
        transition select(eth.etherType) { 0x8 : parse_ip; default : accept; }
    }
    state unused { extract(ip); transition accept; }
    state parse_ip { extract(ip); transition accept; }
}
"""


class TestSpecFingerprint:
    def test_declaration_order_invariant(self):
        assert spec_fingerprint(parse_spec(DEMO)) == spec_fingerprint(
            parse_spec(DEMO_REORDERED)
        )

    def test_dict_insertion_order_invariant(self):
        spec = parse_spec(DEMO)
        reversed_spec = ParserSpec(
            spec.name,
            dict(reversed(list(spec.fields.items()))),
            dict(reversed(list(spec.states.items()))),
            spec.start,
        )
        assert spec_fingerprint(spec) == spec_fingerprint(reversed_spec)

    def test_state_order_is_presentation_only(self):
        spec = parse_spec(DEMO)
        shuffled = ParserSpec(
            spec.name,
            dict(spec.fields),
            dict(spec.states),
            spec.start,
            state_order=list(reversed(list(spec.states))),
        )
        assert spec_fingerprint(spec) == spec_fingerprint(shuffled)

    def test_semantic_changes_change_fingerprint(self):
        base = spec_fingerprint(parse_spec(DEMO))
        assert base != spec_fingerprint(
            parse_spec(DEMO.replace("0x8", "0x9"))
        )
        assert base != spec_fingerprint(
            parse_spec(DEMO.replace("dst : 8", "dst : 16"))
        )

    def test_rule_order_is_semantic(self):
        """TCAM-style rule priority must reach the fingerprint."""
        a = parse_spec(DEMO)
        swapped = DEMO.replace(
            "{ 0x8 : parse_ip; default : accept; }",
            "{ default : accept; 0x8 : parse_ip; }",
        )
        assert spec_fingerprint(a) != spec_fingerprint(parse_spec(swapped))


class TestOptionsFingerprint:
    def test_non_semantic_knobs_excluded(self):
        base = CompileOptions()
        varied = base.with_(
            parallel_workers=8,
            total_max_seconds=123.0,
            checkpoint_dir="/tmp/x",
            cache_dir="/tmp/y",
        )
        assert options_fingerprint(base) == options_fingerprint(varied)

    def test_solver_knobs_included(self):
        base = CompileOptions()
        assert options_fingerprint(base) != options_fingerprint(
            base.with_(seed=1)
        )
        assert options_fingerprint(base) != options_fingerprint(
            base.with_(opt4_constant_synthesis=False)
        )

    def test_non_semantic_set_matches_options_fields(self):
        """Every excluded name must actually exist on CompileOptions (a
        rename would silently stop excluding it)."""
        from dataclasses import fields

        names = {f.name for f in fields(CompileOptions)}
        assert NON_SEMANTIC_OPTIONS <= names


class TestCompileKey:
    def test_device_reaches_key(self):
        spec = parse_spec(DEMO)
        opts = CompileOptions()
        assert compile_key(spec, tofino_profile(), opts) != compile_key(
            spec, tofino_profile(key_limit=4), opts
        )

    def test_stable_across_processes_and_hash_seeds(self):
        """The key must be bit-identical in fresh interpreters with
        different ``PYTHONHASHSEED`` values — dict iteration order must
        never leak into the digest."""
        script = (
            "from repro.ir import parse_spec\n"
            "from repro.hw import tofino_profile\n"
            "from repro.core import CompileOptions\n"
            "from repro.persist import compile_key\n"
            f"spec = parse_spec({DEMO!r})\n"
            "print(compile_key(spec, tofino_profile(), CompileOptions()))\n"
        )
        keys = set()
        for seed in ("0", "1", "424242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = SRC
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            keys.add(out.stdout.strip())
        assert len(keys) == 1
        # And the subprocess key matches this process's.
        spec = parse_spec(DEMO)
        assert keys == {compile_key(spec, tofino_profile(), CompileOptions())}
