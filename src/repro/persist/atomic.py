"""Atomic, checksummed, versioned JSON files — the durability substrate.

Every persisted artifact (CEGIS checkpoints, compile-cache entries) goes
through this module, which enforces three invariants:

* **Atomicity** — writes go to a temporary sibling, are fsync'd, then
  ``os.replace``'d over the target (and the containing directory is
  fsync'd best-effort), so a crash mid-write leaves either the old file
  or the new file, never a half-written one.
* **Integrity** — the payload travels inside an envelope carrying a
  magic string, a ``kind`` tag, a format version and a SHA-256 checksum
  of the canonical payload JSON.  A torn, truncated, tampered or
  wrong-kind file is *detected*, never trusted.
* **Quarantine, don't crash** — a corrupt file is renamed aside (to
  ``<name>.corrupt-N``) and reported as absent; persistence failures
  must degrade to a cold start, never take the compile down.  A file
  with an *unknown future version* is left in place and reported as
  absent (a newer build may still want it).

Fault-injection sites ``persist.write`` and ``persist.read`` (see
:mod:`repro.resilience.injection`) fire on every write/read so the
degradation paths are testable without real disk failures.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

try:
    import fcntl
except ImportError:                    # non-POSIX: degrade to lock-free
    fcntl = None  # type: ignore[assignment]

from ..obs import get_tracer
from ..resilience.injection import fault_point

MAGIC = "parserhawk-persist"


@contextmanager
def file_mutex(
    path: Union[str, Path],
    timeout: float = 2.0,
    poll: float = 0.01,
) -> Iterator[bool]:
    """A short-lived cross-process mutex around a read-check-write window.

    Yields True while holding an exclusive ``flock`` on ``path`` (created
    if absent), False if the lock could not be acquired within
    ``timeout`` — callers must treat False as *contended* and back off,
    never proceed unguarded.  The lock is advisory, per-file, and
    released automatically when the holding process dies (the kernel
    drops it with the descriptor), so a SIGKILL'd holder can never leave
    a stale lock behind.  Acquisition is non-blocking-with-retries so a
    SIGSTOP'd holder delays contenders by at most ``timeout``, not
    forever.  On platforms without ``fcntl`` the mutex degrades to a
    no-op True (single-process best-effort).
    """
    path = Path(path)
    if fcntl is None:
        yield True
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(str(path), os.O_RDWR | os.O_CREAT, 0o644)
    acquired = False
    try:
        deadline = time.monotonic() + timeout
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                acquired = True
                break
            except OSError:
                if time.monotonic() >= deadline:
                    break
                time.sleep(poll)
        yield acquired
    finally:
        if acquired:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:
                pass
        os.close(fd)


def file_slug(label: str) -> str:
    """``label`` as one safe path component: every character but
    alphanumerics, ``-`` and ``_`` becomes ``_``."""
    return "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in label)


def canonical_json(doc: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def checksum_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def envelope(kind: str, version: int, payload: Any) -> Dict[str, Any]:
    return {
        "magic": MAGIC,
        "kind": kind,
        "version": version,
        "sha256": checksum_of(canonical_json(payload)),
        "payload": payload,
    }


def write_atomic(
    path: Union[str, Path], kind: str, version: int, payload: Any
) -> None:
    """Durably replace ``path`` with an enveloped ``payload``.

    Raises on failure (OSError, injected fault); callers are expected to
    catch and degrade — persistence is best-effort by contract.
    """
    path = Path(path)
    fault_point("persist.write", label=str(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(envelope(kind, version, payload), sort_keys=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, text.encode("utf-8"))
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(str(tmp), str(path))
    _fsync_dir(path.parent)


def _fsync_dir(directory: Path) -> None:
    """Make the rename itself durable (best-effort; not all platforms
    allow opening a directory)."""
    try:
        dfd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dfd)
    except OSError:
        pass
    finally:
        os.close(dfd)


def quarantine(path: Path) -> Optional[Path]:
    """Move a corrupt file aside so it is never re-read (or re-trusted).

    Returns the quarantine path, or None if even the rename failed (in
    which case the file is unlinked best-effort)."""
    for n in range(1, 1000):
        target = path.with_name(f"{path.name}.corrupt-{n}")
        if target.exists():
            continue
        try:
            os.replace(str(path), str(target))
            return target
        except OSError:
            break
    try:
        path.unlink()
    except OSError:
        pass
    return None


def load_envelope(
    path: Union[str, Path], kind: str, version: int
) -> Optional[Any]:
    """Load and validate an enveloped payload; None if absent or unusable.

    Never raises: a missing file is None; a torn/corrupt/tampered or
    wrong-kind file is quarantined and None; a read error (including an
    injected ``persist.read`` fault) is counted and None; a valid file
    of a *newer* version is left in place and None.
    """
    path = Path(path)
    tracer = get_tracer()
    try:
        fault_point("persist.read", label=str(path))
        text = path.read_text()
    except FileNotFoundError:
        return None
    except Exception:
        tracer.count("persist.read_failures")
        return None
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("magic") != MAGIC:
            raise ValueError("bad magic")
        if doc.get("kind") != kind:
            raise ValueError(f"kind mismatch: {doc.get('kind')!r}")
        found_version = doc["version"]
        payload = doc["payload"]
        if doc["sha256"] != checksum_of(canonical_json(payload)):
            raise ValueError("checksum mismatch")
    except Exception:
        tracer.count("persist.quarantined")
        quarantine(path)
        return None
    if found_version != version:
        # A future (or past) format we don't speak: treat as absent but
        # preserve the bytes — quarantining would destroy data a newer
        # build could still use.
        tracer.count("persist.version_skew")
        return None
    return payload
