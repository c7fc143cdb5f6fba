"""Wire format: tagged frames of length-prefixed bit fields.

A frame is one tag byte, a 4-byte big-endian field count, then each field as
a 4-byte big-endian bit length followed by ceil(bits/8) bytes packed least
significant bit first.  Padding bits above the declared length must be zero.
A message travels as its dataclass fields in declaration order.  Index sets
travel as a single mask field whose bit length is the ground-set size; the
empty set over an empty ground is one zero-length field.  Flags are one-bit
fields holding exactly 0 or 1, and reasons are 8-bit codes.

Example: the one-bit branch-flip message carrying e=1 encodes to
``05 00 00 00 01 00 00 00 01 01``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Callable, Sequence

from ..bits import BitString, IndexSet
from ..commit import CommitMessage, OpenMessage
from ..ot import TransferPayload
from ..reasons import Reason

__all__ = [
    "FrameError",
    "TAGS",
    "HashDesc",
    "SetA",
    "EBit",
    "IHQuery",
    "IHResponse",
    "AbortMsg",
    "ResultMsg",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "encode_message",
    "decode_message",
]

MAX_FIELD_BITS = 1 << 26


class FrameError(ValueError):
    """Malformed or unparseable frame."""


@dataclass(frozen=True)
class HashDesc:
    """Verifier's hash choice, carried as the Toeplitz diagonal."""

    diag: BitString


@dataclass(frozen=True)
class SetA:
    """Sample-position announcement, carried as a ground-set mask."""

    positions: IndexSet


@dataclass(frozen=True)
class EBit:
    e: int


@dataclass(frozen=True)
class IHQuery:
    q: BitString


@dataclass(frozen=True)
class IHResponse:
    bit: int


@dataclass(frozen=True)
class AbortMsg:
    reason: Reason


@dataclass(frozen=True)
class ResultMsg:
    """Session outcome report.  `value` is the accepted commitment value;
    transfer sessions leave it empty so the wire never reveals the output."""

    ok: bool
    reason: Reason
    value: BitString


def _flag_out(v: int) -> BitString:
    if v not in (0, 1):
        raise FrameError(f"flag must be 0 or 1, got {v!r}")
    return BitString(1, int(v))


def _flag_in(f: BitString) -> int:
    if f.length != 1:
        raise FrameError(f"flag must be 1 bit, got {f.length}")
    return f.to_int()


def _reason_in(f: BitString) -> Reason:
    if f.length != 8:
        raise FrameError(f"reason code must be 8 bits, got {f.length}")
    try:
        return Reason(f.to_int())
    except ValueError as exc:
        raise FrameError(f"unknown reason code {f.to_int()}") from exc


# One row per message: its tag, its fields in wire order (its dataclass
# fields in declaration order), and the message rebuilt from those fields.
# A tag's field count is therefore its class's number of fields.  Mask coding
# is looked up on IndexSet at each call, so a wrapper installed on IndexSet
# after import (as bench/spans.py does) still sees every frame.
_ROWS = [
    (0x01, HashDesc, lambda m: [m.diag], lambda f: HashDesc(*f)),
    (0x02, CommitMessage, lambda m: [m.masked, m.digest, m.a.to_mask(), m.u],
     lambda f: CommitMessage(f[0], f[1], IndexSet.from_mask(f[2]), f[3])),
    (0x03, OpenMessage, lambda m: [m.value, m.w], lambda f: OpenMessage(*f)),
    (0x04, SetA, lambda m: [m.positions.to_mask()], lambda f: SetA(IndexSet.from_mask(f[0]))),
    (0x05, EBit, lambda m: [_flag_out(m.e)], lambda f: EBit(_flag_in(f[0]))),
    (0x06, IHQuery, lambda m: [m.q], lambda f: IHQuery(*f)),
    (0x07, IHResponse, lambda m: [_flag_out(m.bit)], lambda f: IHResponse(_flag_in(f[0]))),
    (0x08, TransferPayload, lambda m: [m.z0, m.r0, m.p0, m.z1, m.r1, m.p1],
     lambda f: TransferPayload(*f)),
    (0x09, AbortMsg, lambda m: [BitString(8, int(m.reason))],
     lambda f: AbortMsg(_reason_in(f[0]))),
    (0x0A, ResultMsg, lambda m: [_flag_out(m.ok), BitString(8, int(m.reason)), m.value],
     lambda f: ResultMsg(bool(_flag_in(f[0])), _reason_in(f[1]), f[2])),
]
TAGS = {cls: tag for tag, cls, _, _ in _ROWS}
_ENCODE = {cls: (tag, to_fields) for tag, cls, to_fields, _ in _ROWS}
_DECODE = {tag: (len(dataclass_fields(cls)), rebuild) for tag, cls, _, rebuild in _ROWS}


def _check_header(tag: int, count: int) -> None:
    if tag not in _DECODE:
        raise FrameError(f"unknown tag 0x{tag:02X}")
    arity, _ = _DECODE[tag]
    if count != arity:
        raise FrameError(f"tag 0x{tag:02X} carries {arity} fields, got {count}")


def _check_field_bits(bits: int) -> int:
    if bits > MAX_FIELD_BITS:
        raise FrameError("field too large")
    return bits


def encode_frame(tag: int, fields: Sequence[BitString]) -> bytes:
    _check_header(tag, len(fields))
    out = bytearray([tag])
    out += len(fields).to_bytes(4, "big")
    for f in fields:
        out += f.length.to_bytes(4, "big")
        out += f.to_bytes()
    return bytes(out)


def decode_frame(data: bytes) -> tuple[int, list[BitString]]:
    if len(data) < 5:
        raise FrameError("truncated frame")
    count = int.from_bytes(data[1:5], "big")
    _check_header(data[0], count)
    fields = []
    pos = 5
    for _ in range(count):
        bits = _check_field_bits(int.from_bytes(data[pos : pos + 4], "big"))
        end = pos + 4 + (bits + 7) // 8
        if end > len(data):
            raise FrameError("truncated frame")
        try:
            fields.append(BitString.from_bytes(data[pos + 4 : end], bits))
        except ValueError as exc:
            raise FrameError(str(exc)) from exc
        pos = end
    if pos != len(data):
        raise FrameError("trailing bytes after last field")
    return data[0], fields


def read_frame(read_exact: Callable[[int], bytes]) -> bytes:
    """Reassemble one frame from a byte stream; frames are self-delimiting.
    The header is checked before any field is read, and each field length
    before its body."""
    head = read_exact(5)
    count = int.from_bytes(head[1:5], "big")
    _check_header(head[0], count)
    parts = [head]
    for _ in range(count):
        size = read_exact(4)
        bits = _check_field_bits(int.from_bytes(size, "big"))
        parts += (size, read_exact((bits + 7) // 8))
    return b"".join(parts)


def encode_message(msg: object) -> bytes:
    try:
        tag, to_fields = _ENCODE[type(msg)]
    except KeyError:
        raise FrameError(f"cannot encode {type(msg).__name__}") from None
    return encode_frame(tag, to_fields(msg))


def decode_message(data: bytes) -> object:
    tag, fields = decode_frame(data)
    _, rebuild = _DECODE[tag]
    return rebuild(fields)
