"""Offline-checkable equivalence certificates and UNSAT proof bundles.

A *certificate* is the winner-path artifact of a certifying compile
(``CompileOptions.certify``): everything needed to re-validate a
synthesized program **without re-running the solver** —

* the spec **source** (``ParserSpec.to_source()``) and its fingerprint,
  so the checker re-parses the problem statement rather than trusting a
  pickled object;
* the **device** document and fingerprint;
* the winning **program** document and fingerprint;
* the **constraint digest** — SHA-256 over the exact CNF clause stream
  the winning solve accumulated (:meth:`ProofLog.input_digest`), pinning
  which constraint set the model satisfied;
* the **witness tests** — the counterexamples and seed tests the CEGIS
  run encoded (the TestPool contents as seen by the winning session),
  stored as ``[uint, bit-length]`` pairs.

:func:`verify_certificate` replays all of that offline: re-parse the
spec, rebuild the device and program, re-check fingerprints, re-check
the device constraints, and run every witness through both the spec
simulator and the TCAM program simulator, requiring behavioral
equivalence on each.  None of it touches the SMT layer.

An *UNSAT proof bundle* is the failure-path counterpart: when a budget
is retired (CEGIS proved the budget infeasible) under certification,
the solver's DRAT log and the CNF it refutes are written as plain-text
DIMACS/DRAT files under ``<checkpoint-dir>/proofs/`` and referenced
from the checkpoint manifest.  :func:`check_proof_bundle` re-verifies
one with the independent RUP checker (:mod:`repro.smt.sat.dratcheck`).

Certificates ride the atomic-envelope substrate
(:mod:`repro.persist.atomic`); proof bundles are deliberately *plain*
DIMACS + DRAT so any external DRAT checker can consume them, with their
SHA-256s recorded in the bundle manifest returned to the caller.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..hw.device import DeviceProfile
from ..ir.bits import Bits
from ..ir.simulator import SimulationError, equivalent_behavior, simulate_spec
from ..ir.spec import ParserSpec, parse_spec
from ..obs import get_tracer
from .atomic import file_slug, load_envelope, write_atomic
from .fingerprint import device_fingerprint, program_fingerprint, spec_fingerprint
from .serialize import program_from_doc, program_to_doc

CERT_KIND = "equivalence-certificate"
CERT_VERSION = 1
CERT_SUFFIX = ".cert.json"

PROOF_DIRNAME = "proofs"


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def certificate_doc(
    spec: ParserSpec,
    device: DeviceProfile,
    program,
    *,
    compile_key: str,
    constraint_digest: str,
    witnesses: Sequence[Bits],
    max_steps: int,
) -> Dict[str, Any]:
    """Build the certificate payload for one winning compile."""
    from dataclasses import asdict

    return {
        "compile_key": compile_key,
        "spec_source": spec.to_source(),
        "spec_start": spec.start,
        "spec_fingerprint": spec_fingerprint(spec),
        "device": asdict(device),
        "device_fingerprint": device_fingerprint(device),
        "program": program_to_doc(program),
        "program_fingerprint": program_fingerprint(program),
        "constraint_digest": constraint_digest,
        "witnesses": [[b.uint(), len(b)] for b in witnesses],
        "max_steps": max_steps,
    }


def write_certificate(path: Union[str, Path], doc: Dict[str, Any]) -> bool:
    """Persist a certificate; best-effort like every cache write."""
    try:
        write_atomic(Path(path), CERT_KIND, CERT_VERSION, doc)
    except Exception:
        get_tracer().count("persist.write_failures")
        return False
    get_tracer().count("certify.written")
    return True


def load_certificate(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """Load a certificate envelope; None when absent/corrupt (quarantined
    by the envelope layer, like any persisted artifact)."""
    return load_envelope(Path(path), CERT_KIND, CERT_VERSION)


@dataclass
class CertificateCheck:
    """Outcome of one offline certificate verification."""

    ok: bool
    reason: str = ""
    witnesses_checked: int = 0

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(
    doc: Dict[str, Any], expected_key: str = ""
) -> CertificateCheck:
    """Re-validate a certificate with the solver fully out of the loop.

    Checks, in order: the compile key (when the caller knows which entry
    the certificate sits next to), all three content fingerprints
    (tamper detection — the fingerprints are recomputed from the
    re-parsed/rebuilt artifacts, not read back), the device constraint
    check, and every witness test through both simulators.
    """
    tracer = get_tracer()
    if expected_key and doc.get("compile_key") != expected_key:
        return CertificateCheck(False, "compile_key mismatch")
    try:
        spec = parse_spec(
            doc["spec_source"], start=doc.get("spec_start", "start")
        )
    except Exception as exc:
        return CertificateCheck(False, f"spec source does not parse: {exc}")
    if spec_fingerprint(spec) != doc.get("spec_fingerprint"):
        return CertificateCheck(False, "spec fingerprint mismatch")
    try:
        device = DeviceProfile(**doc["device"])
    except Exception as exc:
        return CertificateCheck(False, f"device does not rebuild: {exc}")
    if device_fingerprint(device) != doc.get("device_fingerprint"):
        return CertificateCheck(False, "device fingerprint mismatch")
    try:
        program = program_from_doc(doc["program"])
    except Exception as exc:
        return CertificateCheck(False, f"program does not rebuild: {exc}")
    if program_fingerprint(program) != doc.get("program_fingerprint"):
        return CertificateCheck(False, "program fingerprint mismatch")
    violations = program.check_constraints(device)
    if violations:
        return CertificateCheck(
            False, "device constraint violations: " + "; ".join(violations)
        )
    max_steps = int(doc.get("max_steps", 64))
    checked = 0
    for value, length in doc.get("witnesses", []):
        bits = Bits(value, length)
        try:
            want = simulate_spec(spec, bits, max_steps=max_steps)
            got = program.simulate(bits, max_steps=max_steps)
        except SimulationError as exc:
            return CertificateCheck(
                False, f"witness {checked} failed to simulate: {exc}", checked
            )
        if not equivalent_behavior(want, got):
            return CertificateCheck(
                False,
                f"witness {checked} distinguishes spec and program "
                f"({want.outcome} vs {got.outcome})",
                checked,
            )
        checked += 1
        tracer.count("certify.witness_checked")
    return CertificateCheck(True, "", checked)


# ---------------------------------------------------------------------------
# UNSAT proof bundles
# ---------------------------------------------------------------------------

def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def store_proof_bundle(
    directory: Union[str, Path],
    compile_key: str,
    arm_key: str,
    budget_id: str,
    proof,
) -> Optional[Dict[str, Any]]:
    """Write one retired budget's CNF + DRAT pair; returns the manifest
    reference (paths relative to ``directory`` plus content hashes), or
    None on write failure (best-effort, like checkpoint flushes)."""
    root = Path(directory) / PROOF_DIRNAME
    slug = file_slug(f"{arm_key}.{budget_id}")
    stem = f"{compile_key[:16]}.{slug}"
    cnf_text = proof.input_dimacs()
    drat_text = proof.to_drat()
    try:
        root.mkdir(parents=True, exist_ok=True)
        cnf_path = root / f"{stem}.cnf"
        drat_path = root / f"{stem}.drat"
        cnf_path.write_text(cnf_text)
        drat_path.write_text(drat_text)
    except OSError:
        get_tracer().count("persist.write_failures")
        return None
    get_tracer().count("certify.proofs_stored")
    return {
        "cnf": f"{PROOF_DIRNAME}/{stem}.cnf",
        "drat": f"{PROOF_DIRNAME}/{stem}.drat",
        "cnf_sha256": _sha256_text(cnf_text),
        "drat_sha256": _sha256_text(drat_text),
        "refutation": bool(proof.has_refutation),
    }


def check_proof_bundle(
    directory: Union[str, Path], ref: Dict[str, Any]
) -> Tuple[bool, str]:
    """Re-verify a stored proof bundle with the independent RUP checker.

    Returns ``(ok, reason)``.  Hash mismatches (tampered bundle) and
    checker rejections are both failures.
    """
    from ..smt.sat.dimacs import parse_dimacs
    from ..smt.sat.dratcheck import check_proof, parse_drat

    root = Path(directory)
    try:
        cnf_text = (root / ref["cnf"]).read_text()
        drat_text = (root / ref["drat"]).read_text()
    except OSError as exc:
        return False, f"bundle unreadable: {exc}"
    if _sha256_text(cnf_text) != ref.get("cnf_sha256"):
        return False, "CNF hash mismatch"
    if _sha256_text(drat_text) != ref.get("drat_sha256"):
        return False, "DRAT hash mismatch"
    try:
        num_vars, clauses = parse_dimacs(cnf_text)
        steps = parse_drat(drat_text)
    except ValueError as exc:
        return False, f"bundle malformed: {exc}"
    result = check_proof(num_vars, clauses, steps)
    if not result.ok:
        return False, result.reason or "proof rejected"
    return True, ""


__all__ = [
    "CERT_KIND",
    "CERT_SUFFIX",
    "CERT_VERSION",
    "CertificateCheck",
    "certificate_doc",
    "check_proof_bundle",
    "load_certificate",
    "store_proof_bundle",
    "verify_certificate",
    "write_certificate",
]
