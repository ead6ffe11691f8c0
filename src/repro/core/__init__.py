"""ParserHawk core: the program-synthesis-based parser compiler."""

from .cegis import CegisOutcome, CegisSession, SynthesisTimeout
from .compiler import ParserHawkCompiler, compile_spec
from .encoder import EncodingOverflow, SymbolicProgram
from .normalize import CompileError, canonicalize, prepare_spec, unroll_self_loops
from .options import CompileOptions
from .parallel import (
    Subproblem,
    derive_subproblems,
    portfolio_compile,
    select_result,
)
from .postopt import optimize as post_optimize
from .result import (
    STATUS_FAULT,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_TIMEOUT,
    CompileResult,
    CompileStats,
)
from .skeleton import Skeleton, build_skeleton
from .validate import ValidationReport, random_simulation_check
from .verifier import Counterexample, verify_equivalent

__all__ = [
    "CegisOutcome",
    "CegisSession",
    "CompileError",
    "CompileOptions",
    "CompileResult",
    "CompileStats",
    "Counterexample",
    "EncodingOverflow",
    "ParserHawkCompiler",
    "STATUS_FAULT",
    "STATUS_INFEASIBLE",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "Skeleton",
    "SymbolicProgram",
    "Subproblem",
    "SynthesisTimeout",
    "ValidationReport",
    "build_skeleton",
    "canonicalize",
    "derive_subproblems",
    "compile_spec",
    "post_optimize",
    "portfolio_compile",
    "prepare_spec",
    "random_simulation_check",
    "select_result",
    "unroll_self_loops",
    "verify_equivalent",
]
