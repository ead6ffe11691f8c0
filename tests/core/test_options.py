"""CompileOptions hygiene: every field is a knob something reads."""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

import repro
from repro.core.options import CompileOptions


def test_every_option_is_read():
    """A field that no code reads still forks fingerprints, tests and
    CI jobs while changing nothing: require each one to appear as an
    attribute load somewhere in ``src/repro`` outside its own module."""
    package = Path(repro.__file__).parent
    options_module = package / "core" / "options.py"
    loaded = set()
    for path in package.rglob("*.py"):
        if path == options_module:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                loaded.add(node.attr)
    unread = sorted(
        f.name for f in fields(CompileOptions) if f.name not in loaded
    )
    assert unread == []
