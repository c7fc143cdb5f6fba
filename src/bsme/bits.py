"""Packed bit strings and sorted index sets.

Bit 0 is the least significant bit of the backing integer, so byte
serialization puts bit ``8*i + j`` into bit ``j`` of byte ``i`` and any
padding bits in the last byte are zero.  Display strings are written with
bit 0 first: ``BitString.from_str("10")`` has bit 0 set and bit 1 clear.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate, count
from operator import add, lt
from typing import Iterable, Iterator, Sequence


def scatter_digits(ground: int, positions: Sequence[int], digits: bytes) -> int:
    """Integer with bit ``positions[j]`` set to ASCII digit ``digits[j]``, zero elsewhere.

    ``positions`` are strictly increasing in ``[0, ground)``, one digit each.
    The digits go into one ground-length buffer, bit 0 first, which is read
    back with a single ``int(..., 2)``.  The buffer keeps one spare leading
    zero so that an empty ground set still parses.
    """
    if len(positions) == ground:
        # Strictly increasing positions that fill the ground set are 0..ground-1.
        buf = digits + b"0"
    else:
        buf = bytearray(b"0") * (ground + 1)
        for pos, digit in zip(positions, digits):
            buf[pos] = digit
    return int(buf[::-1], 2)


_DIGIT = {0: "0", 1: "1"}  # bools hash as 0 and 1, so they are accepted too


class BitString:
    """Immutable fixed-length bit string backed by a Python integer."""

    __slots__ = ("_length", "_value")

    def __init__(self, length: int, value: int):
        if length < 0:
            raise ValueError("length must be non-negative")
        if value < 0 or value >> length:
            raise ValueError("value has bits set outside the declared length")
        object.__setattr__(self, "_length", length)
        object.__setattr__(self, "_value", value)

    def __setattr__(self, name, value):
        raise AttributeError("BitString is immutable")

    # construction -----------------------------------------------------

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls(length, 0)

    @classmethod
    def ones(cls, length: int) -> "BitString":
        return cls(length, (1 << length) - 1)

    @classmethod
    def random(cls, length: int, rng: random.Random) -> "BitString":
        return cls(length, rng.getrandbits(length) if length else 0)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        try:
            return cls.from_str("".join(map(_DIGIT.__getitem__, bits)))
        except KeyError:
            raise ValueError("bits must be 0 or 1") from None

    @classmethod
    def from_str(cls, text: str) -> "BitString":
        """Parse a display string; the leftmost character is bit 0."""
        # int(..., 2) alone would also take "0b1", "1_0", " 1" and "-1".
        if text.strip("01"):
            raise ValueError("display string must hold only 0 and 1")
        return cls(len(text), int("0" + text[::-1], 2))

    @classmethod
    def from_bytes(cls, data: bytes, length: int) -> "BitString":
        if len(data) != (length + 7) // 8:
            raise ValueError("byte count does not match length")
        value = int.from_bytes(data, "little")
        if value >> length:
            raise ValueError("padding bits must be zero")
        return cls(length, value)

    # accessors ---------------------------------------------------------

    @property
    def length(self) -> int:
        return self._length

    def to_int(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        return self._value.to_bytes((self._length + 7) // 8, "little")

    def to_str(self) -> str:
        # format() writes at least one digit, so length 0 is its own case.
        return format(self._value, f"0{self._length}b")[::-1] if self._length else ""

    def bit(self, i: int) -> int:
        if not 0 <= i < self._length:
            raise IndexError("bit index out of range")
        return (self._value >> i) & 1

    def lex_key(self) -> int:
        """Integer that orders bit strings lexicographically, bit 0 first."""
        return int("0" + self.to_str(), 2)

    # operations ----------------------------------------------------------

    def __xor__(self, other: "BitString") -> "BitString":
        if self._length != other._length:
            raise ValueError("length mismatch")
        return BitString(self._length, self._value ^ other._value)

    def weight(self) -> int:
        return self._value.bit_count()

    def hamming(self, other: "BitString") -> int:
        if self._length != other._length:
            raise ValueError("length mismatch")
        return (self._value ^ other._value).bit_count()

    def restrict(self, positions: "IndexSet") -> "BitString":
        """Bits at the given positions, in increasing position order."""
        if positions.ground != self._length:
            raise ValueError("ground set does not match bit string length")
        # Character i of the reversed binary text is bit i.
        text = format(self._value, f"0{self._length}b")[::-1]
        picked = "".join(map(text.__getitem__, positions))
        return BitString(len(positions), int("0" + picked[::-1], 2))

    def slice_bits(self, start: int, count: int) -> "BitString":
        if start < 0 or count < 0 or start + count > self._length:
            raise ValueError("slice out of range")
        return BitString(count, (self._value >> start) & ((1 << count) - 1))

    def concat(self, other: "BitString") -> "BitString":
        return BitString(
            self._length + other._length,
            self._value | (other._value << self._length),
        )

    def flip(self, i: int) -> "BitString":
        if not 0 <= i < self._length:
            raise IndexError("bit index out of range")
        return BitString(self._length, self._value ^ (1 << i))

    # dunder ------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        return map(int, self.to_str())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self._length == other._length
            and self._value == other._value
        )

    def __hash__(self) -> int:
        return hash((self._length, self._value))

    def __repr__(self) -> str:
        if self._length <= 64:
            return f"BitString('{self.to_str()}')"
        return f"BitString(length={self._length}, value=0x{self._value:x})"


def concat_all(parts: Sequence[BitString]) -> BitString:
    out = BitString.zeros(0)
    for p in parts:
        out = out.concat(p)
    return out


class IndexSet:
    """Strictly increasing indices drawn from a ground set ``[0, ground)``."""

    __slots__ = ("_ground", "_indices")

    def __init__(self, ground: int, indices: Iterable[int] = ()):
        idx = tuple(indices)
        if ground < 0:
            raise ValueError("ground must be non-negative")
        if not all(map(lt, idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        if idx and (idx[0] < 0 or idx[-1] >= ground):
            raise ValueError("index out of ground range")
        object.__setattr__(self, "_ground", ground)
        object.__setattr__(self, "_indices", idx)

    def __setattr__(self, name, value):
        raise AttributeError("IndexSet is immutable")

    @classmethod
    def from_iterable(cls, ground: int, indices: Iterable[int]) -> "IndexSet":
        return cls(ground, sorted(set(indices)))

    @classmethod
    def full(cls, ground: int) -> "IndexSet":
        return cls(ground, range(ground))

    @classmethod
    def from_mask(cls, mask: BitString) -> "IndexSet":
        n = mask.length
        # Each "1" of the reversed binary text (bit 0 first) closes a run of
        # zeros; the j-th set bit sits after j earlier ones and the zeros so far.
        runs = format(mask.to_int(), f"0{n}b")[::-1].split("1")
        runs.pop()
        return cls(n, map(add, accumulate(map(len, runs)), count()))

    @property
    def ground(self) -> int:
        return self._ground

    @property
    def indices(self) -> tuple[int, ...]:
        return self._indices

    def to_mask(self) -> BitString:
        idx = self._indices
        return BitString(self._ground, scatter_digits(self._ground, idx, b"1" * len(idx)))

    def intersect(self, other: "IndexSet") -> "IndexSet":
        if self._ground != other._ground:
            raise ValueError("ground mismatch")
        common = sorted(set(self._indices) & set(other._indices))
        return IndexSet(self._ground, common)

    def positions_within(self, superset: "IndexSet") -> "IndexSet":
        """Relative positions of this set inside ``superset``.

        Every index here must be a member of ``superset``; the result is an
        index set over ``[0, len(superset))``.
        """
        if self._ground != superset._ground:
            raise ValueError("ground mismatch")
        sup = superset._indices
        rel = []
        for i in self._indices:
            j = bisect_left(sup, i)
            if j >= len(sup) or sup[j] != i:
                raise ValueError(f"index {i} is not in the superset")
            rel.append(j)
        return IndexSet(len(sup), rel)

    def select(self, relative: "IndexSet") -> "IndexSet":
        """Absolute indices picked out of this set by relative positions."""
        if relative.ground != len(self._indices):
            raise ValueError("relative ground must equal this set's size")
        return IndexSet(self._ground, [self._indices[j] for j in relative])

    def __contains__(self, i: int) -> bool:
        j = bisect_left(self._indices, i)
        return j < len(self._indices) and self._indices[j] == i

    def __len__(self) -> int:
        return len(self._indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self._indices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndexSet)
            and self._ground == other._ground
            and self._indices == other._indices
        )

    def __hash__(self) -> int:
        return hash((self._ground, self._indices))

    def __repr__(self) -> str:
        return f"IndexSet(ground={self._ground}, indices={list(self._indices)})"
