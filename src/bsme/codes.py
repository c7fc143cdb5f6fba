"""Small linear codes, syndrome decoding, and the fuzzy extractor.

Codes are given by a full-row-rank parity-check matrix over GF(2) and are
certified at construction: the minimum distance is found by exhausting the
codeword set (lengths up to 24) and every error pattern of weight up to the
decoding radius is checked to have a unique syndrome.

The fuzzy extractor splits a word into blocks of the code length, publishes
the concatenated block syndromes as the helper string, and extracts the
payload with the seeded strong extractor.  Recovery shifts the noisy word
onto the original's syndrome coset and decodes each block; a syndrome with
no pattern inside the radius is a detected failure (None).  A beyond-radius
error whose syndrome does match a low-weight pattern decodes to that wrong
pattern instead; with a perfect code such as Hamming(7,4) every syndrome
matches, so overload there is silent miscorrection rather than failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import gf2
from .bits import BitString, concat_all
from .hashing import strong_extract

__all__ = ["LinearCode", "FuzzyOutput", "fuzzy_ext", "fuzzy_rec"]

_CERTIFY_MAX_LEN = 24


class LinearCode:
    """Binary linear code with exhaustive syndrome-table decoding."""

    __slots__ = ("length", "dimension", "rows", "radius", "d_min", "_table")

    def __init__(self, length: int, rows: tuple[int, ...], radius: int | None = None):
        if length < 1:
            raise ValueError("length must be positive")
        if length > _CERTIFY_MAX_LEN:
            raise ValueError(f"exhaustive certification is limited to length {_CERTIFY_MAX_LEN}")
        rows = tuple(rows)
        mask = (1 << length) - 1
        for r in rows:
            if r < 0 or r & ~mask:
                raise ValueError("parity row outside code length")
        if gf2.row_rank(rows) != len(rows):
            raise ValueError("parity-check rows must be linearly independent")
        self.length = length
        self.rows = rows
        self.dimension = length - len(rows)

        if rows:
            basis = gf2.nullspace(rows, length)
            d_min = length + 1
            for msk in range(1, 1 << len(basis)):
                word = 0
                mm = msk
                i = 0
                while mm:
                    if mm & 1:
                        word ^= basis[i]
                    mm >>= 1
                    i += 1
                w = word.bit_count()
                if w < d_min:
                    d_min = w
            self.d_min = d_min if d_min <= length else None
        else:
            self.d_min = 1  # the full space: distinct words at distance 1
        max_radius = ((self.d_min or length + 1) - 1) // 2 if rows else 0
        if radius is None:
            radius = max_radius
        if radius > max_radius:
            raise ValueError("radius exceeds unique-decoding limit")
        self.radius = radius

        table: dict[int, int] = {0: 0}
        for w in range(1, radius + 1):
            for positions in combinations(range(length), w):
                e = 0
                for p in positions:
                    e |= 1 << p
                s = self._syndrome_int(e)
                if s in table:
                    raise ValueError("syndrome collision inside decoding radius")
                table[s] = e
        self._table = table

    # constructions ------------------------------------------------------

    @classmethod
    def hamming_7_4(cls) -> "LinearCode":
        """The [7,4] single-error-correcting code; column j+1 of the parity
        check is the binary expansion of j+1."""
        rows = []
        for bit in range(3):
            r = 0
            for j in range(7):
                if ((j + 1) >> bit) & 1:
                    r |= 1 << j
            rows.append(r)
        return cls(7, tuple(rows))

    @classmethod
    def repetition(cls, length: int) -> "LinearCode":
        if length < 1:
            raise ValueError("length must be positive")
        rows = tuple(1 | (1 << i) for i in range(1, length))
        return cls(length, rows)

    @classmethod
    def trivial(cls, length: int = 1) -> "LinearCode":
        """Rate-1 code: no parity checks, empty syndrome, radius 0."""
        return cls(length, ())

    # operations -------------------------------------------------------

    def _syndrome_int(self, v: int) -> int:
        s = 0
        for i, row in enumerate(self.rows):
            s |= ((row & v).bit_count() & 1) << i
        return s

    @property
    def syndrome_len(self) -> int:
        return len(self.rows)

    def syndrome(self, x: BitString) -> BitString:
        if x.length != self.length:
            raise ValueError("input length mismatch")
        return BitString(self.syndrome_len, self._syndrome_int(x.to_int()))

    def decode_syndrome(self, s: BitString) -> BitString | None:
        """Minimum-weight error with syndrome ``s`` inside the radius, else None."""
        if s.length != self.syndrome_len:
            raise ValueError("syndrome length mismatch")
        e = self._table.get(s.to_int())
        if e is None:
            return None
        return BitString(self.length, e)

    def descriptor(self) -> tuple:
        return (self.length, self.rows, self.radius)

    def __repr__(self) -> str:
        return f"LinearCode(length={self.length}, dimension={self.dimension}, radius={self.radius})"


@dataclass(frozen=True)
class FuzzyOutput:
    """Extracted payload with the public helper data needed for recovery."""

    y: BitString
    p: BitString
    seed: BitString


def _blocks(x: BitString, block_len: int):
    for b in range(x.length // block_len):
        yield x.slice_bits(b * block_len, block_len)


def fuzzy_ext(x: BitString, seed: BitString, out_len: int, code: LinearCode) -> FuzzyOutput:
    """Payload plus helper string; blockwise syndromes leak (1-R)*len(x) bits."""
    if x.length == 0 or x.length % code.length != 0:
        raise ValueError("input length must be a positive multiple of the code length")
    p = concat_all([code.syndrome(blk) for blk in _blocks(x, code.length)])
    y = strong_extract(x, seed, out_len)
    return FuzzyOutput(y=y, p=p, seed=seed)


def fuzzy_rec(
    x_prime: BitString, seed: BitString, p: BitString, out_len: int, code: LinearCode
) -> BitString | None:
    """Recover the payload from a noisy word; None when a block is undecodable."""
    if x_prime.length == 0 or x_prime.length % code.length != 0:
        raise ValueError("input length must be a positive multiple of the code length")
    n_blocks = x_prime.length // code.length
    if p.length != n_blocks * code.syndrome_len:
        raise ValueError("helper string length mismatch")
    corrected = []
    for b, blk in enumerate(_blocks(x_prime, code.length)):
        target = p.slice_bits(b * code.syndrome_len, code.syndrome_len)
        err = code.decode_syndrome(code.syndrome(blk) ^ target)
        if err is None:
            return None
        corrected.append(blk ^ err)
    return strong_extract(concat_all(corrected), seed, out_len)
