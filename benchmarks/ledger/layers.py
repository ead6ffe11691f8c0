"""Exclusive self-time per compiler layer, measured from outside the program.

:class:`LayerClock` replaces public functions of the ``repro`` package with
timing wrappers, inside the benchmark process only; no file under ``src/``
changes.  Every wrapped call is a frame on a per-thread stack.  When a frame
closes, its elapsed time minus the time of the frames nested in it is added
to its layer, so each layer's *self* time excludes the layers it calls.  A
frame opened on an empty stack is a root, and the sum of root durations is
the traced wall time.  Self times therefore add up to that wall exactly, and
nested or re-entrant calls are never counted twice.

``Solver.check`` is the ``model`` layer and ``SatSolver.solve`` the ``cdcl``
layer, so ``model`` is what ``check`` spends around the CDCL search.  The
compile entry point and the benchmark's own per-operation root are the
``other`` layer: whatever no named layer claims.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

OTHER = "other"

# (layer, module, attribute) — the attribute may be "Class.method".  A
# function imported by name into another module is patched where it is
# *called from*: ``prepare_spec`` "as bound in core.compiler" and
# ``verify_equivalent`` in core.cegis (the CEGIS verifier) versus
# core.compiler (the final check against the original spec).
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    (OTHER, "repro.core.compiler", "ParserHawkCompiler.compile"),
    ("parse", "repro.ir.spec", "parse_spec"),
    ("parse", "repro.serve.job", "parse_spec"),
    ("prepare_spec", "repro.core.compiler", "prepare_spec"),
    ("skeleton", "repro.core.compiler", "build_skeleton"),
    ("encoder", "repro.core.encoder", "SymbolicProgram.__init__"),
    ("encoder", "repro.core.encoder", "SymbolicProgram.structural_constraints"),
    ("encoder", "repro.core.encoder", "SymbolicProgram.encode_test"),
    ("encoder", "repro.core.encoder", "SymbolicProgram.decode"),
    ("tests", "repro.core.cegis", "initial_tests"),
    ("tests", "repro.core.cegis", "simulate_spec"),
    ("tests", "repro.core.testpool", "TestPool.tests"),
    ("bitblast", "repro.smt.solver", "Solver.add"),
    ("model", "repro.smt.solver", "Solver.check"),
    ("cdcl", "repro.smt.sat.solver", "SatSolver.solve"),
    ("verify", "repro.core.cegis", "verify_equivalent"),
    ("verify_final", "repro.core.compiler", "verify_equivalent"),
    ("postopt", "repro.core.compiler", "post_optimize"),
    ("codegen", "repro.hw.codegen", "emit_for_device"),
    ("cache.lookup", "repro.persist.cache", "CompileCache.lookup"),
    ("cache.store", "repro.persist.cache", "CompileCache.store"),
    ("journal", "repro.serve.journal", "JobJournal.record"),
    ("journal", "repro.serve.journal", "JobJournal.transition"),
    ("serve.submit", "repro.serve.service", "CompileService.submit"),
)

# Every layer a traced pass reports, in pipeline order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for layer, _module, _attr in LAYER_TARGETS if layer != OTHER]
    + [OTHER]
))


class _Tally:
    """One thread's frame stack and totals."""

    def __init__(self) -> None:
        self.stack: List[list] = []          # [layer, start, child seconds]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.wall = 0.0


class LayerClock:
    """Per-layer exclusive self-time over wrapped calls, across threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._tallies: List[_Tally] = []
        self._lock = threading.Lock()
        self.layer_of: Dict[str, str] = {}   # wrapped target -> layer
        self.absent: List[str] = []          # targets that no longer exist

    # -- frames ----------------------------------------------------------
    def _tally(self) -> _Tally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = _Tally()
            self._local.tally = tally
            with self._lock:
                self._tallies.append(tally)
        return tally

    def _enter(self, layer: str) -> None:
        self._tally().stack.append([layer, self._clock(), 0.0])

    def _exit(self) -> None:
        tally = self._tally()
        layer, start, child = tally.stack.pop()
        elapsed = self._clock() - start
        tally.self_s[layer] += elapsed - child
        if tally.stack:
            tally.stack[-1][2] += elapsed
        else:
            tally.wall += elapsed

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        self._enter(layer)
        try:
            yield
        finally:
            self._exit()

    # -- wrapping --------------------------------------------------------
    def wrap(self, owner: object, attr: str, layer: str, target: str) -> bool:
        """Time every call of ``owner.attr`` as ``layer`` and count it
        under ``target``.  A missing attribute (the code it named was
        removed) is recorded in :attr:`absent` instead of raising;
        returns whether it was wrapped."""
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(target)
            return False
        self.layer_of[target] = layer

        @functools.wraps(original)
        def timed(*args, **kwargs):
            self._tally().calls[target] += 1
            self._enter(layer)
            try:
                return original(*args, **kwargs)
            finally:
                self._exit()

        setattr(owner, attr, timed)
        return True

    def install(
        self, targets: Sequence[Tuple[str, str, str]] = LAYER_TARGETS
    ) -> None:
        for layer, module_name, path in targets:
            target = f"{module_name}:{path}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(target)
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            if owner is None:
                self.absent.append(target)
                continue
            self.wrap(owner, attr, layer, target)

    # -- results ---------------------------------------------------------
    def totals(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """``(self seconds per layer, calls per wrapped target, wall
        seconds)`` summed over every thread that entered a frame."""
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        wall = 0.0
        with self._lock:
            tallies = list(self._tallies)
        for tally in tallies:
            for layer, seconds in tally.self_s.items():
                self_s[layer] += seconds
            for target, count in tally.calls.items():
                calls[target] += count
            wall += tally.wall
        return dict(self_s), dict(calls), wall
