"""Content-addressed compile cache.

Finished :class:`CompileResult`\\ s are memoized across processes under
a canonical hash of ``(spec, device, solver-relevant options)`` (see
:mod:`repro.persist.fingerprint`), so harness table regeneration and
repeated ``bench``/``compile`` runs hit disk instead of re-running
hours of synthesis.

Only ``STATUS_OK`` results are stored: failures depend on wall-clock
budgets and machine speed, so re-deriving them is both cheap to decide
and the only correct choice.

Every entry is an atomic, checksummed envelope
(:mod:`repro.persist.atomic`): a torn or tampered entry is quarantined
and counted as an invalidation, never served.  On every hit the stored
program is additionally re-checked against the device profile — a
defense-in-depth guard (the key already pins the device) that also
catches entries written by a buggy build.

Certifying compiles park an equivalence certificate *next to* each
entry (``<key>.cert.json``, see :mod:`repro.persist.certify`); the
entry walk skips them so they are never mistaken for results, and
``verify(deep=True)`` re-validates them with the solver out of the
loop.

Observability counters: ``cache.hit``, ``cache.miss``, ``cache.store``,
``cache.invalidated``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..core.result import STATUS_OK, CompileResult
from ..hw.device import DeviceProfile
from ..obs import get_tracer
from ..resilience.injection import fault_point
from .atomic import load_envelope, quarantine, write_atomic
from .serialize import result_from_doc, result_to_doc

CACHE_KIND = "compile-result"
CACHE_VERSION = 1

# Certificate sibling files (repro.persist.certify).  They end in
# ``.json`` too, so every entry walk must test this suffix explicitly.
CERT_SUFFIX = ".cert.json"


class CompileCache:
    """A directory of enveloped compile results, sharded by key prefix."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    def entry_path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def cert_path(self, key: str) -> Path:
        """Where ``key``'s equivalence certificate lives (next to the
        entry, same shard)."""
        return self.directory / key[:2] / f"{key}{CERT_SUFFIX}"

    # ------------------------------------------------------------------
    def lookup(
        self, key: str, device: DeviceProfile
    ) -> Optional[CompileResult]:
        """The cached result for ``key``, or None (counted as a miss)."""
        tracer = get_tracer()
        path = self.entry_path(key)
        payload = load_envelope(path, CACHE_KIND, CACHE_VERSION)
        if payload is None:
            if path.exists() or any(
                p.name.startswith(f"{key}.json.corrupt")
                for p in (
                    path.parent.iterdir() if path.parent.is_dir() else []
                )
            ):
                tracer.count("cache.invalidated")
            tracer.count("cache.miss")
            return None
        result = result_from_doc(payload.get("result", {}), device)
        if (
            result is None
            or not result.ok
            or result.constraint_violations(device)
        ):
            quarantine(path)
            tracer.count("cache.invalidated")
            tracer.count("cache.miss")
            return None
        result.cached = True
        tracer.count("cache.hit")
        return result

    def store(
        self,
        key: str,
        result: CompileResult,
        meta: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Persist a successful result; best-effort (False on failure)."""
        if result.status != STATUS_OK or result.program is None:
            return False
        payload = {"key": key, "result": result_to_doc(result)}
        if meta:
            payload["meta"] = meta
        try:
            fault_point("cache.store", label=key)
            write_atomic(self.entry_path(key), CACHE_KIND, CACHE_VERSION,
                         payload)
        except Exception:
            get_tracer().count("persist.write_failures")
            return False
        get_tracer().count("cache.store")
        return True

    # ------------------------------------------------------------------
    def _shards(self):
        if not self.directory.is_dir():
            return
        for shard in sorted(self.directory.iterdir()):
            if shard.is_dir():
                yield shard

    def _entries(self):
        """Every result entry (never certificates, never quarantined
        files)."""
        for shard in self._shards():
            for path in sorted(shard.iterdir()):
                if (
                    path.suffix == ".json"
                    and ".corrupt" not in path.name
                    and not path.name.endswith(CERT_SUFFIX)
                ):
                    yield path

    def _certificates(self):
        for shard in self._shards():
            for path in sorted(shard.iterdir()):
                if (
                    path.name.endswith(CERT_SUFFIX)
                    and ".corrupt" not in path.name
                ):
                    yield path

    def _quarantined(self):
        for shard in self._shards():
            for path in sorted(shard.iterdir()):
                if ".corrupt" in path.name:
                    yield path

    def _prune_empty_shards(self) -> None:
        for shard in list(self._shards()):
            try:
                next(shard.iterdir())
            except StopIteration:
                try:
                    shard.rmdir()
                except OSError:
                    pass
            except OSError:
                pass

    def stats(self) -> Dict[str, Any]:
        entries = 0
        certificates = 0
        total_bytes = 0
        corrupt = 0
        for shard in self._shards():
            for path in shard.iterdir():
                if ".corrupt" in path.name:
                    corrupt += 1
                    continue
                if path.name.endswith(CERT_SUFFIX):
                    certificates += 1
                    continue
                if path.suffix == ".json":
                    entries += 1
                    try:
                        total_bytes += path.stat().st_size
                    except OSError:
                        pass
        return {
            "directory": str(self.directory),
            "entries": entries,
            "certificates": certificates,
            "bytes": total_bytes,
            "quarantined": corrupt,
        }

    def clear(self) -> int:
        """Delete every (non-quarantined) entry and its certificate;
        returns how many *entries* were removed.  Quarantined files are
        deliberately kept (they are evidence — ``purge_quarantined``
        disposes of them explicitly); shard directories left empty are
        pruned."""
        removed = 0
        for path in list(self._entries()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        for path in list(self._certificates()):
            try:
                os.unlink(path)
            except OSError:
                pass
        self._prune_empty_shards()
        return removed

    def purge_quarantined(self) -> int:
        """Delete quarantined (``.corrupt-N``) files; returns how many."""
        removed = 0
        for path in list(self._quarantined()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        self._prune_empty_shards()
        return removed

    def verify(self, deep: bool = False) -> Dict[str, int]:
        """Re-validate every entry's envelope; corrupt ones are
        quarantined by the load path, and — unlike ``stats()`` before
        the walk — the report says so: ``quarantined`` counts the
        entries this call moved aside, so the numbers line up with a
        ``stats()`` taken afterwards.

        ``deep=True`` additionally re-validates every equivalence
        certificate offline (:func:`repro.persist.certify.verify_certificate`):
        re-parse the spec, rebuild the program, re-check fingerprints and
        device constraints, and re-run every witness through both
        simulators — the solver is never consulted.  Adds ``cert_ok``,
        ``cert_invalid`` and ``witnesses_checked`` to the report.
        """
        ok = invalid = quarantined = 0
        for path in list(self._entries()):
            payload = load_envelope(path, CACHE_KIND, CACHE_VERSION)
            if payload is None:
                invalid += 1
                if not path.exists():
                    quarantined += 1
            else:
                ok += 1
        report: Dict[str, int] = {
            "ok": ok, "invalid": invalid, "quarantined": quarantined,
        }
        if deep:
            from .certify import load_certificate, verify_certificate

            cert_ok = cert_invalid = witnesses = 0
            for path in list(self._certificates()):
                # "<key>.cert.json" -> the entry key it certifies.
                key = path.name[: -len(CERT_SUFFIX)]
                doc = load_certificate(path)
                if doc is None:
                    cert_invalid += 1
                    if not path.exists():
                        report["quarantined"] += 1
                    continue
                check = verify_certificate(doc, expected_key=key)
                witnesses += check.witnesses_checked
                if check.ok:
                    cert_ok += 1
                else:
                    cert_invalid += 1
                    get_tracer().count("certify.failed")
            report.update(
                cert_ok=cert_ok,
                cert_invalid=cert_invalid,
                witnesses_checked=witnesses,
            )
        return report


def cache_for_options(options) -> Optional[CompileCache]:
    """The cache configured on ``options``, if any."""
    if getattr(options, "cache_dir", None):
        return CompileCache(options.cache_dir)
    return None
