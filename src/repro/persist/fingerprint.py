"""Canonical content fingerprints for specs, devices, options, programs.

The persistence layer is content-addressed: a checkpoint belongs to one
compile identity and a cache entry to one ``(spec, device, options)``
triple, both named by a SHA-256 over a *canonical* JSON serialization.
Canonical means:

* mappings are emitted with sorted keys, so dict insertion order — which
  varies with construction path and would otherwise leak
  ``PYTHONHASHSEED`` into the hash — never reaches the digest;
* semantically ordered sequences (rule lists, extraction order, key
  parts, TCAM entry priority order) keep their order;
* presentation-only state is excluded: ``ParserSpec.state_order`` only
  affects source rendering, and the non-solver-relevant
  :class:`~repro.core.options.CompileOptions` fields (wall-clock budget,
  worker count, and the persistence configuration itself) are excluded
  so that e.g. re-running with a different ``--timeout`` still hits the
  cache.

``tests/persist/test_fingerprint.py`` pins the stability guarantees
(insertion-order independence, cross-process / cross-``PYTHONHASHSEED``
reproducibility).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any, Dict

from ..hw.device import DeviceProfile
from ..hw.impl import TcamProgram
from ..ir.spec import FieldKey, LookaheadKey, ParserSpec

# Bumped whenever a canonical document changes shape, so cache entries
# and checkpoints written under the old shape miss cleanly.
CANONICAL_VERSION = 7

# CompileOptions fields that cannot change which program a *successful*
# compile produces: execution-shape knobs and the persistence config.
# ``certify`` only *observes* (DRAT logging + certificate emission), so
# flipping it must not invalidate existing cache entries.
NON_SEMANTIC_OPTIONS = frozenset(
    {
        "parallel_workers",
        "total_max_seconds",
        "checkpoint_dir",
        "cache_dir",
        "certify",
    }
)


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest_of(doc: Any) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Spec
# ---------------------------------------------------------------------------

def _key_part_doc(part) -> Dict[str, Any]:
    if isinstance(part, LookaheadKey):
        return {"kind": "lookahead", "offset": part.offset,
                "width": part.width}
    assert isinstance(part, FieldKey)
    return {"kind": "field", "field": part.field, "hi": part.hi,
            "lo": part.lo}


def spec_doc(spec: ParserSpec) -> Dict[str, Any]:
    """Canonical document for a :class:`ParserSpec`.

    ``state_order`` is deliberately absent: it changes ``to_source``
    rendering but not parsing semantics, so two specs differing only in
    it must share a fingerprint."""
    return {
        "v": CANONICAL_VERSION,
        "name": spec.name,
        "start": spec.start,
        "fields": {
            name: {
                "width": f.width,
                "varbit": f.is_varbit,
                "length_field": f.length_field,
                "length_multiplier": f.length_multiplier,
                "stack_depth": f.stack_depth,
            }
            for name, f in spec.fields.items()
        },
        "states": {
            name: {
                "extracts": list(s.extracts),
                "key": [_key_part_doc(k) for k in s.key],
                "rules": [
                    {
                        "next": r.next_state,
                        "patterns": [
                            {
                                "value": p.value,
                                "mask": p.mask,
                                "wildcard": p.wildcard,
                            }
                            for p in r.patterns
                        ],
                    }
                    for r in s.rules
                ],
            }
            for name, s in spec.states.items()
        },
    }


def spec_fingerprint(spec: ParserSpec) -> str:
    return digest_of(spec_doc(spec))


# ---------------------------------------------------------------------------
# Device / options
# ---------------------------------------------------------------------------

def device_doc(device: DeviceProfile) -> Dict[str, Any]:
    return {"v": CANONICAL_VERSION, **asdict(device)}


def device_fingerprint(device: DeviceProfile) -> str:
    return digest_of(device_doc(device))


def options_doc(options) -> Dict[str, Any]:
    """Solver-relevant option fields only (see ``NON_SEMANTIC_OPTIONS``)."""
    return {
        "v": CANONICAL_VERSION,
        **{
            k: v
            for k, v in asdict(options).items()
            if k not in NON_SEMANTIC_OPTIONS
        },
    }


def options_fingerprint(options) -> str:
    return digest_of(options_doc(options))


# ---------------------------------------------------------------------------
# Compile identity and program hash
# ---------------------------------------------------------------------------

def compile_key(spec: ParserSpec, device: DeviceProfile, options) -> str:
    """The content address of one compilation problem."""
    return digest_of(
        {
            "v": CANONICAL_VERSION,
            "spec": spec_doc(spec),
            "device": device_doc(device),
            "options": options_doc(options),
        }
    )


def program_fingerprint(program: TcamProgram) -> str:
    """Content hash of a synthesized TCAM program (entry order kept —
    TCAM priority is semantic)."""
    from .serialize import program_to_doc

    return digest_of(program_to_doc(program))
