"""Outcome reason codes shared by the protocols and the wire format, the one
exception a party raises when it refuses the peer's data, and the result
report both protocols close with."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .bits import BitString


class Reason(IntEnum):
    OK = 0
    SMALL_INTERSECTION = 1
    INVALID_ENCODING = 2
    MALFORMED_MESSAGE = 3
    DISTANCE_EXCEEDED = 4
    DIGEST_MISMATCH = 5
    VALUE_MISMATCH = 6
    DECODE_FAILURE = 7
    DEPENDENT_QUERY = 8

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", "-")


class SetupAbort(Exception):
    """A party refused the peer's data; the session ends with `reason`.

    The peer is told with an abort, or with a failed `ResultMsg` when the
    refusing party's ``play`` sets `reported` on the way out.
    """

    reported = False

    def __init__(self, reason: Reason):
        self.reason = reason
        super().__init__(reason.label)


@dataclass(frozen=True)
class ResultMsg:
    """Session outcome report.  `value` is the accepted commitment value;
    transfer sessions leave it empty so the wire never reveals the output."""

    ok: bool
    reason: Reason
    value: BitString
