"""Bit-exact encoding of beacon and acknowledgment packets.

Wire layout, all multi-octet fields big-endian (network order)::

    identifiant   4 octets   sender's stable node identifier
    version       1 octet    payload format: 1 = bare public value,
                             2 = (p, w, public) parameter triple on beacons
    type          1 octet    1 = BEACON, 2 = ACK
    packet_len    2 octets   total length of the packet in octets
    src_pos.x     4 octets   IEEE-754 single
    src_pos.y     4 octets   IEEE-754 single
    pv_len        2 octets   length of the public-value field
    public_value  pv_len     see below

The fixed header is 18 octets, so ``packet_len == 18 + pv_len``.

``public_value`` carries big-endian magnitudes in canonical form: no
leading zero octet, except that the value zero is exactly one ``00``
octet. Version-1 packets and all ACKs carry a single magnitude (the
sender's public number). Version-2 beacons instead carry the sender's
group parameters alongside its public number, as three magnitudes each
prefixed by a 2-octet length, so a receiver with different parameters
can respond in the sender's group.

Decoding is total over arbitrary input: it either returns the unique
packet whose encoding is the buffer, or raises :class:`DecodeError`,
whose message gives the reason. It never reads past the buffer.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

HEADER_LEN = 18
MAX_PUBLIC_VALUE_LEN = 0xFFFF - HEADER_LEN  # packet_len must fit 16 bits

VERSION_SINGLE = 1      # public_value is one bare magnitude
VERSION_PARAM_TRIPLE = 2  # beacons carry (p, w, public) length-prefixed
SUPPORTED_VERSIONS = (VERSION_SINGLE, VERSION_PARAM_TRIPLE)

_HEADER = struct.Struct(">IBBHffH")

# Largest finite IEEE-754 single: a coordinate past it has no encoding.
MAX_SINGLE = struct.unpack(">f", b"\x7f\x7f\xff\xff")[0]


class PacketType(IntEnum):
    BEACON = 1
    ACK = 2


class CodecError(ValueError):
    """Base class for packet encode/decode failures."""


class EncodeError(CodecError):
    """Packet violates an invariant and cannot be put on the wire."""


class DecodeError(CodecError):
    """Buffer is not the encoding of any valid packet."""


class Position(NamedTuple):
    """Planar coordinates in meters, carried as IEEE-754 singles: an
    immutable ``(x, y)`` pair, equal to the plain tuple of its coordinates."""

    x: float
    y: float


@dataclass(frozen=True)
class BeaconPacket:
    identifiant: int
    version: int
    ptype: PacketType
    src_pos: Position
    public_value: bytes

    # Kept on the instance, outside the fields, so equality, hash, repr
    # and asdict stay those of the five fields. A kept packet's length is
    # traced on every delivery and computed once.
    @cached_property
    def packet_len(self) -> int:
        return HEADER_LEN + len(self.public_value)


def quantize_position(pos: Position) -> Position:
    """Round coordinates to the nearest IEEE-754 single.

    Encoding always performs this rounding; packets round-trip exactly
    when their position is already single-precision representable.
    """
    x, y = struct.unpack(">ff", struct.pack(">ff", pos.x, pos.y))
    return Position(x, y)


def int_to_magnitude(value: int) -> bytes:
    """Canonical big-endian magnitude: minimal length, zero is b'\\x00'."""
    if value < 0:
        raise EncodeError(f"magnitude must be non-negative, got {value}")
    if value == 0:
        return b"\x00"
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def magnitude_to_int(buf: bytes) -> int:
    """Inverse of :func:`int_to_magnitude`; rejects non-canonical input."""
    if len(buf) == 0:
        raise DecodeError("magnitude must be at least one octet")
    if len(buf) > 1 and buf[0] == 0:
        raise DecodeError("magnitude has a leading zero octet")
    return int.from_bytes(buf, "big")


def encode_param_triple(p: int, w: int, public: int) -> bytes:
    """Pack (p, w, public) as three length-prefixed canonical magnitudes."""
    out = bytearray()
    for value in (p, w, public):
        mag = int_to_magnitude(value)
        if len(mag) > 0xFFFF:
            raise EncodeError("magnitude too long for a 2-octet length prefix")
        out += struct.pack(">H", len(mag))
        out += mag
    return bytes(out)


def decode_param_triple(buf: bytes) -> tuple[int, int, int]:
    """Inverse of :func:`encode_param_triple`; must consume buf exactly."""
    values = []
    offset = 0
    for _ in range(3):
        if offset + 2 > len(buf):
            raise DecodeError("parameter triple truncated")
        (length,) = struct.unpack_from(">H", buf, offset)
        offset += 2
        if offset + length > len(buf):
            raise DecodeError("parameter triple truncated")
        values.append(magnitude_to_int(buf[offset:offset + length]))
        offset += length
    if offset != len(buf):
        raise DecodeError("trailing octets after parameter triple")
    return values[0], values[1], values[2]


def read_payload(version: int, ptype: int, public_value: bytes) -> tuple[int, ...]:
    """``(p, w, public)`` for a version-2 beacon, ``(public,)`` otherwise:
    ACKs answer inside the initiator's group, so theirs is one magnitude.

    Raises DecodeError for an empty, over-long or non-canonical payload.
    """
    if len(public_value) == 0:
        raise DecodeError("public_value must be at least one octet")
    if len(public_value) > MAX_PUBLIC_VALUE_LEN:
        raise DecodeError(
            f"public_value longer than {MAX_PUBLIC_VALUE_LEN} octets")
    if version == VERSION_PARAM_TRIPLE and ptype == PacketType.BEACON:
        return decode_param_triple(public_value)
    return (magnitude_to_int(public_value),)


def encode_packet(pkt: BeaconPacket) -> bytes:
    """Serialize a packet; pure function of its fields.

    Raises:
        EncodeError: on any invariant violation (a position coordinate
            past ``MAX_SINGLE`` in magnitude or not finite, out-of-range
            identifier, unknown version/type, or a payload that does not
            match the packet's declared format).
    """
    if not 0 <= pkt.identifiant <= 0xFFFFFFFF:
        raise EncodeError(f"identifiant out of 32-bit range: {pkt.identifiant}")
    if pkt.version not in SUPPORTED_VERSIONS:
        raise EncodeError(f"unsupported version {pkt.version}")
    if pkt.ptype not in (PacketType.BEACON, PacketType.ACK):
        raise EncodeError(f"unknown packet type {pkt.ptype}")
    if not (abs(pkt.src_pos.x) <= MAX_SINGLE and abs(pkt.src_pos.y) <= MAX_SINGLE):
        raise EncodeError(f"position must be finite and within {MAX_SINGLE!r}, "
                          f"got {pkt.src_pos}")
    try:
        read_payload(pkt.version, pkt.ptype, pkt.public_value)
    except DecodeError as exc:
        raise EncodeError(f"invalid public_value: {exc}") from exc
    return _HEADER.pack(
        pkt.identifiant, pkt.version, int(pkt.ptype), pkt.packet_len,
        pkt.src_pos.x, pkt.src_pos.y, len(pkt.public_value),
    ) + pkt.public_value


def decode_packet(buf: bytes) -> BeaconPacket:
    """Parse a received buffer into a packet, or raise a DecodeError."""
    if len(buf) < HEADER_LEN:
        raise DecodeError(
            f"need {HEADER_LEN} header octets, got {len(buf)}")
    identifiant, version, ptype, packet_len, x, y, pv_len = _HEADER.unpack_from(buf)
    if packet_len != len(buf):
        raise DecodeError(
            f"packet_len says {packet_len} octets, buffer has {len(buf)}")
    if version not in SUPPORTED_VERSIONS:
        raise DecodeError(f"unsupported version {version}")
    if ptype not in (PacketType.BEACON.value, PacketType.ACK.value):
        raise DecodeError(f"unknown packet type {ptype}")
    if pv_len != len(buf) - HEADER_LEN:
        raise DecodeError(
            f"pv_len says {pv_len} octets, {len(buf) - HEADER_LEN} remain")
    if not (math.isfinite(x) and math.isfinite(y)):
        # Not the encoding of any valid packet (encode refuses non-finite
        # positions), so re-encodability would break if this were accepted.
        raise DecodeError("non-finite position coordinate")
    public_value = buf[HEADER_LEN:]
    read_payload(version, ptype, public_value)
    return BeaconPacket(
        identifiant=identifiant,
        version=version,
        ptype=PacketType(ptype),
        src_pos=Position(x, y),
        public_value=public_value,
    )
