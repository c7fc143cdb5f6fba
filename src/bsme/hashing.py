"""Toeplitz two-universal hashing, doubling as the seeded strong extractor.

A hash from ``in_len`` to ``out_len`` bits is described by a diagonal seed of
``in_len + out_len - 1`` bits; matrix entry (i, j) is ``diag[i + in_len-1 - j]``.
For any fixed pair x != y the digests collide for exactly a ``2**-out_len``
fraction of seeds, which also gives the leftover-hash extraction bound

    SD((hash(X), seed), (uniform, seed)) <= 0.5 * 2**((out_len - Hmin(X)) / 2).

No matrix is built.  With ``rev`` the diagonal in reverse bit order, row i is
the window ``rev >> (out_len-1-i)``, and digest bit ``out_len-1-s`` is the
parity of ``(rev >> s) & x``.  Since that parity equals the parity of
``(rev >> 8*b) & (x << r)`` for ``s = 8*b + r``, one shift of the diagonal
serves eight digest bits against eight shifted copies of x made once per call.
"""

from __future__ import annotations

import random

from .bits import BitString

__all__ = ["ToeplitzHash", "strong_extract", "seed_length", "random_seed"]

# Digest bits evaluated per shift of the reversed diagonal.
_GROUP = 8


class ToeplitzHash:
    """Linear hash given by a Toeplitz matrix over GF(2)."""

    __slots__ = ("in_len", "out_len", "diag", "_rev")

    def __init__(self, in_len: int, out_len: int, diag: BitString):
        if in_len < 1 or out_len < 1:
            raise ValueError("in_len and out_len must be positive")
        if diag.length != seed_length(in_len, out_len):
            raise ValueError("diagonal must have in_len + out_len - 1 bits")
        self.in_len = in_len
        self.out_len = out_len
        self.diag = diag
        # The display string puts bit 0 first, so it reads as the reversal.
        self._rev = int(diag.to_str(), 2)

    def __call__(self, x: BitString) -> BitString:
        if x.length != self.in_len:
            raise ValueError("input length mismatch")
        out_len = self.out_len
        v = x.to_int()
        shifted = [v << r for r in range(min(_GROUP, out_len))]
        # Digit s is the parity for shift s, the digest's bit out_len-1-s, so
        # the digits read most significant first; the last group may run up
        # to _GROUP-1 digits past out_len.
        digits = bytes([48 | (window & xr).bit_count() & 1
                        for window in map(self._rev.__rshift__, range(0, out_len, _GROUP))
                        for xr in shifted])
        return BitString(out_len, int(digits[:out_len], 2))

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
    """Extract ``out_len`` nearly uniform bits from x using a public seed.

    The seed must hold ``len(x) + out_len - 1`` bits; the hash checks it.
    """
    return ToeplitzHash(x.length, out_len, seed)(x)
