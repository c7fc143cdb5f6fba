"""Outcome reason codes shared by the protocols and the wire format, the one
exception a party raises when it refuses the peer's data, and the phase guard
both protocols' parties share."""

from __future__ import annotations

from enum import IntEnum


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
    """A party refused the peer's data; the session ends with `reason`."""

    def __init__(self, reason: Reason):
        self.reason = reason
        super().__init__(reason.label)


class ProtocolStateError(RuntimeError):
    """A party method was called out of protocol order: a caller's bug."""


class _Phased:
    """Refuses a party method called out of protocol order."""

    def __init__(self):
        self._phase = "new"

    def _advance(self, expected: str, nxt: str):
        if self._phase != expected:
            raise ProtocolStateError(f"phase is {self._phase!r}, expected {expected!r}")
        self._phase = nxt
