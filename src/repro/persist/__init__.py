"""Durable compile-state persistence (checkpoints, resume, compile cache).

Three pieces, layered on one durability substrate:

* :mod:`repro.persist.atomic` — atomic, checksummed, versioned JSON
  files with quarantine-on-corruption (never crash on a torn file);
* :mod:`repro.persist.checkpoint` — CEGIS/budget-search checkpoints so
  an interrupted, killed or timed-out compile resumes seeded with every
  previously discovered counterexample and skips exhausted budgets/arms;
* :mod:`repro.persist.cache` — a content-addressed store of finished
  results keyed by canonical ``(spec, device, options)`` fingerprints
  (:mod:`repro.persist.fingerprint`), memoizing compiles across
  processes.

Sits above :mod:`repro.ir`/:mod:`repro.hw`/:mod:`repro.core.result` and
below the compiler driver; imports nothing from ``core.compiler`` or
``core.parallel`` (they import us).
"""

from .atomic import canonical_json, load_envelope, quarantine, write_atomic
from .cache import CompileCache, cache_for_options
from .certify import (
    CertificateCheck,
    certificate_doc,
    check_proof_bundle,
    load_certificate,
    store_proof_bundle,
    verify_certificate,
    write_certificate,
)
from .checkpoint import (
    CheckpointManager,
    arm_checkpoint_dir,
    flush_active,
)
from .fingerprint import (
    compile_key,
    device_fingerprint,
    options_fingerprint,
    program_fingerprint,
    spec_fingerprint,
)
from .serialize import (
    program_from_doc,
    program_to_doc,
    result_from_doc,
    result_to_doc,
)

__all__ = [
    "CertificateCheck",
    "CheckpointManager",
    "CompileCache",
    "arm_checkpoint_dir",
    "cache_for_options",
    "canonical_json",
    "certificate_doc",
    "check_proof_bundle",
    "compile_key",
    "device_fingerprint",
    "flush_active",
    "load_certificate",
    "load_envelope",
    "options_fingerprint",
    "program_fingerprint",
    "program_from_doc",
    "program_to_doc",
    "quarantine",
    "result_from_doc",
    "result_to_doc",
    "spec_fingerprint",
    "store_proof_bundle",
    "verify_certificate",
    "write_atomic",
    "write_certificate",
]
