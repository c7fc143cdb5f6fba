"""Toeplitz two-universal hashing, doubling as the seeded strong extractor.

A hash from ``in_len`` to ``out_len`` bits is described by a diagonal seed of
``in_len + out_len - 1`` bits; matrix entry (i, j) is ``diag[i + in_len-1 - j]``.
For any fixed pair x != y the digests collide for exactly a ``2**-out_len``
fraction of seeds, which also gives the leftover-hash extraction bound

    SD((hash(X), seed), (uniform, seed)) <= 0.5 * 2**((out_len - Hmin(X)) / 2).
"""

from __future__ import annotations

import random

from .bits import BitString
from .gf2 import mat_vec

__all__ = ["ToeplitzHash", "strong_extract", "seed_length", "random_seed"]


class ToeplitzHash:
    """Linear hash given by a Toeplitz matrix over GF(2)."""

    __slots__ = ("in_len", "out_len", "diag", "_rows")

    def __init__(self, in_len: int, out_len: int, diag: BitString):
        if in_len < 1 or out_len < 1:
            raise ValueError("in_len and out_len must be positive")
        if diag.length != in_len + out_len - 1:
            raise ValueError("diagonal must have in_len + out_len - 1 bits")
        self.in_len = in_len
        self.out_len = out_len
        self.diag = diag
        d = diag.to_int()
        mask = (1 << in_len) - 1
        # Row i holds matrix entries (i, j) at bit j; consecutive rows shift
        # the diagonal window by one.  Row 0 is the low in_len diagonal bits
        # in reverse order.
        row = int(format(d & mask, f"0{in_len}b")[::-1], 2)
        rows = [row]
        for i in range(1, out_len):
            row = ((row << 1) & mask) | ((d >> (i + in_len - 1)) & 1)
            rows.append(row)
        self._rows = tuple(rows)

    @classmethod
    def random(cls, in_len: int, out_len: int, rng: random.Random) -> "ToeplitzHash":
        return cls(in_len, out_len, BitString.random(in_len + out_len - 1, rng))

    def __call__(self, x: BitString) -> BitString:
        if x.length != self.in_len:
            raise ValueError("input length mismatch")
        return BitString(self.out_len, mat_vec(self._rows, x.to_int()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ToeplitzHash)
            and self.in_len == other.in_len
            and self.out_len == other.out_len
            and self.diag == other.diag
        )

    def __repr__(self) -> str:
        return f"ToeplitzHash(in_len={self.in_len}, out_len={self.out_len})"


def seed_length(in_len: int, out_len: int) -> int:
    return in_len + out_len - 1


def random_seed(in_len: int, out_len: int, rng: random.Random) -> BitString:
    return BitString.random(seed_length(in_len, out_len), rng)


def strong_extract(x: BitString, seed: BitString, out_len: int) -> BitString:
    """Extract ``out_len`` nearly uniform bits from x using a public seed."""
    if out_len < 1:
        raise ValueError("out_len must be positive")
    if seed.length != x.length + out_len - 1:
        raise ValueError("seed length must be len(x) + out_len - 1")
    return ToeplitzHash(x.length, out_len, seed)(x)
