"""The :class:`CompileFault` exception taxonomy.

Every *expected* way the compile pipeline can fail abnormally — as
opposed to the planned outcomes "infeasible" and "timeout" — has a
dedicated exception class here.  The supervision code in
``core/parallel.py`` and the top-level ``ParserHawkCompiler.compile``
catch :class:`CompileFault` (never bare ``Exception`` when a precise
class exists) and convert it into a per-arm / per-compile failure
*result* instead of letting it unwind the whole portfolio.

The taxonomy is deliberately flat and small; classes carry an optional
``site`` naming the pipeline location that raised (one of the
fault-injection site names in :mod:`repro.resilience.injection`).
"""

from __future__ import annotations

from typing import Optional


class CompileFault(Exception):
    """Base class for abnormal (but anticipated) compile-pipeline failures.

    ``site`` names the pipeline location that raised (an injection-site
    string such as ``"sat.solve"``).
    """

    def __init__(
        self, message: str = "", site: Optional[str] = None
    ) -> None:
        super().__init__(message or type(self).__name__)
        self.site = site

    def describe(self) -> str:
        where = f" at {self.site}" if self.site else ""
        return f"{type(self).__name__}{where}: {self}"


class WorkerCrash(CompileFault):
    """A portfolio worker process raised or died mid-arm."""


class PoolBroken(CompileFault):
    """The process pool itself is unusable (workers killed, fork failed,
    result unpicklable); pending arms must be re-run in-process."""


class ArmTimeout(CompileFault):
    """One portfolio arm exceeded its share of the wall-clock deadline."""


class SolverResourceExhausted(CompileFault):
    """The SAT solver ran out of a hard resource (memory, recursion),
    as opposed to a *planned* conflict/time budget, which reports
    ``unknown``."""
