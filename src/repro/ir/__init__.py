"""Parser-specification IR: bits, spec, simulator, analyses, rewrites."""

from .bits import Bits
from .simulator import (
    OUTCOME_ACCEPT,
    OUTCOME_OVERRUN,
    OUTCOME_REJECT,
    ParseResult,
    SimulationError,
    simulate_spec,
    spec_input_bound,
)
from .spec import (
    ACCEPT,
    REJECT,
    Field,
    FieldKey,
    KeyPart,
    LookaheadKey,
    ParserSpec,
    Rule,
    SpecState,
    ValueMask,
    from_program,
    parse_spec,
)

__all__ = [
    "ACCEPT",
    "Bits",
    "Field",
    "FieldKey",
    "KeyPart",
    "LookaheadKey",
    "OUTCOME_ACCEPT",
    "OUTCOME_OVERRUN",
    "OUTCOME_REJECT",
    "ParseResult",
    "ParserSpec",
    "REJECT",
    "Rule",
    "SimulationError",
    "SpecState",
    "ValueMask",
    "from_program",
    "parse_spec",
    "simulate_spec",
    "spec_input_bound",
]
