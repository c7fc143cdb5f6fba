"""Interactive hashing: m-1 rounds of linear queries pin the respondent's
m-bit input to a pair of strings without revealing which one it holds.

The querier sends triangular queries, the query form of Naor, Ostrovsky,
Venkatesan and Yung (J. Cryptology 1998): query i has its top bit at
position m-1-i and uniform bits below it, so the queries are linearly
independent by construction.  The respondent answers with the inner product
of the query and its input W.  After m-1 rounds the affine solution set of
the transcript has exactly two elements, published in lexicographic order
(bit 0 compared first).  Bit 0 is the one position that holds no pivot, so
the two always differ there and ``w0`` always has bit 0 clear; over the
querier's randomness the partner of a fixed W is uniform over the 2**(m-1)
strings whose bit 0 differs from W's.  A transcript never distinguishes its
two solutions: both produce identical responses to every query.  The
respondent accepts any independent m-bit query and refuses a dependent one,
so a hostile querier cannot make it answer a combination of earlier queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import gf2
from .bits import BitString
from .reasons import Reason, SetupAbort

__all__ = ["IHOutcome", "Querier", "Respondent", "solve_pair"]


@dataclass(frozen=True)
class IHOutcome:
    w0: BitString
    w1: BitString
    d: int | None = None  # respondent side: which output equals its input

    def __post_init__(self):
        a, b = self.w0.to_int(), self.w1.to_int()
        if self.w0.length != self.w1.length or a == b or _later_first(a, b):
            raise ValueError("outputs must be in strict lexicographic order")

    @property
    def pair(self) -> tuple[BitString, BitString]:
        return (self.w0, self.w1)


def _later_first(a: int, b: int) -> int:
    """Nonzero when ``a`` displays after ``b``: display strings put bit 0
    first, so their lowest differing bit decides, and ``a`` holds it set."""
    diff = a ^ b
    return a & diff & -diff


def solve_pair(queries: list[int], responses: list[int], m: int) -> tuple[BitString, BitString]:
    """The two solutions of the transcript, lexicographically ordered."""
    a, b = gf2.solve_affine_pair(queries, responses, m)
    if _later_first(a, b):
        a, b = b, a
    return BitString(m, a), BitString(m, b)


def _solve_rows(ech: gf2.Echelon, m: int) -> tuple[BitString, BitString]:
    """Solve from a basis of augmented rows ``(query << 1) | response``.

    The rows go in ascending pivot order, so each enters the solver's own
    basis without a reduction step.
    """
    rows = [row for _, row in sorted(ech.rows.items())]
    return solve_pair([r >> 1 for r in rows], [r & 1 for r in rows], m)


class Querier:
    """Query side of interactive hashing (sends m-1 triangular queries).

    Query i is ``(1 << p) | getrandbits(p)`` with ``p = m - 1 - i``: one
    draw per round, no rejection.  Its basis holds each query shifted up one
    bit with its response in bit 0; the pivots are all distinct, so every
    query enters the basis unreduced.
    """

    def __init__(self, m: int, rng: random.Random):
        if m < 2:
            raise ValueError("m must be at least 2")
        self.m = m
        self._rng = rng
        self._ech = gf2.Echelon()
        self._pending: int | None = None  # row awaiting its response

    @property
    def finished(self) -> bool:
        return self._ech.rank == self.m - 1

    def next_query(self) -> BitString:
        p = self.m - 1 - len(self._ech.rows)
        candidate = (1 << p) | self._rng.getrandbits(p)
        # the pivot is new, so this is one lookup returning the row unchanged
        self._pending = self._ech.reduce(candidate << 1)
        return BitString(self.m, candidate)

    def take_response(self, bit: int) -> None:
        if bit not in (0, 1):
            raise ValueError("response must be a bit")
        # the query entered unreduced, so bit 0 of the pending row is clear
        self._ech.insert(self._pending ^ bit)

    def outcome(self) -> IHOutcome:
        w0, w1 = _solve_rows(self._ech, self.m)
        return IHOutcome(w0, w1)


class Respondent:
    """Response side: holds the input W, validates query independence.

    Its basis holds augmented rows like the querier's.
    """

    def __init__(self, w: BitString):
        if w.length < 2:
            raise ValueError("m must be at least 2")
        self.m = w.length
        self._w = w.to_int()
        self._ech = gf2.Echelon()

    @property
    def finished(self) -> bool:
        return self._ech.rank == self.m - 1

    def respond(self, query: BitString) -> int:
        if query.length != self.m:
            raise SetupAbort(Reason.MALFORMED_MESSAGE)
        q = query.to_int()
        bit = (q & self._w).bit_count() & 1
        r = self._ech.reduce((q << 1) | bit)
        if not r >> 1:
            raise SetupAbort(Reason.DEPENDENT_QUERY)
        self._ech.insert(r)
        return bit

    def outcome(self) -> IHOutcome:
        w0, w1 = _solve_rows(self._ech, self.m)
        d = 0 if w0.to_int() == self._w else 1
        if (self._w == w0.to_int()) == (self._w == w1.to_int()):
            raise AssertionError("input must match exactly one output")
        return IHOutcome(w0, w1, d)
