"""Header field descriptors and checksum helpers for packet crafting.

A tiny declarative layer in the spirit of Scapy: each header class lists
``FieldDef`` descriptors (name, bit width, default), and instances render
to :class:`~repro.ir.bits.Bits` in declaration order.  This is the §7.1
test-packet substrate (the paper uses Scapy + bmv2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ir.bits import Bits


@dataclass(frozen=True)
class FieldDef:
    """One field of a header layout."""

    name: str
    width: int                      # bits
    default: int = 0

    def render(self, value: Optional[int]) -> Bits:
        v = self.default if value is None else value
        if v < 0 or v >= (1 << self.width):
            raise ValueError(
                f"{self.name}={v:#x} does not fit in {self.width} bits"
            )
        return Bits(v, self.width)


def ones_complement_sum(data: bytes) -> int:
    """RFC 1071 ones'-complement sum over 16-bit words."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def internet_checksum(data: bytes) -> int:
    """The Internet checksum (used by IPv4/ICMP; TCP/UDP add a pseudo
    header before calling this)."""
    return (~ones_complement_sum(data)) & 0xFFFF
