"""Hardware models: TCAM primitives, device profiles, implementation programs."""

from .codegen import emit_for_device, emit_ipu, emit_json, emit_tofino
from .device import (
    INTERLEAVED,
    PIPELINED,
    SINGLE_TCAM,
    DeviceProfile,
    custom_profile,
    ipu_profile,
    tofino_profile,
    trident_profile,
)
from .impl import ACCEPT_SID, REJECT_SID, ImplEntry, ImplState, TcamProgram
from .tcam import TernaryPattern, minimal_cover_exact

__all__ = [
    "ACCEPT_SID",
    "DeviceProfile",
    "ImplEntry",
    "ImplState",
    "INTERLEAVED",
    "PIPELINED",
    "REJECT_SID",
    "SINGLE_TCAM",
    "TcamProgram",
    "TernaryPattern",
    "custom_profile",
    "emit_for_device",
    "emit_ipu",
    "emit_json",
    "emit_tofino",
    "ipu_profile",
    "minimal_cover_exact",
    "tofino_profile",
    "trident_profile",
]
