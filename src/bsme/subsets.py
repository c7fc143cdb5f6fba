"""Colexicographic subset ranking and the dense subset-to-bits encoding.

A sorted subset ``s_0 < s_1 < ... < s_{l-1}`` of ``[0, k)`` has colex rank

    rank(s) = sum over j of C(s_j, j+1),

a bijection onto ``[0, C(k, l))``.  The dense encoding maps (subset, copy)
pairs to m-bit strings as ``rank + copy * C(k, l)`` with
``copy < t_m = floor(2**m / C(k, l))``, so the valid strings cover all but a
``(2**m mod C(k, l)) / 2**m < C(k, l) / 2**m`` fraction of ``{0,1}**m``.
"""

from __future__ import annotations

import random
from math import comb
from typing import Sequence

from .bits import BitString, IndexSet

__all__ = ["subset_rank", "subset_unrank", "DenseCode"]


def subset_rank(indices: Sequence[int]) -> int:
    prev = -1
    r = 0
    for j, c in enumerate(indices):
        if c <= prev:
            raise ValueError("indices must be non-negative and strictly increasing")
        r += comb(c, j + 1)
        prev = c
    return r


def subset_unrank(r: int, k: int, ell: int) -> tuple[int, ...]:
    if not 0 <= ell <= k:
        raise ValueError("need 0 <= ell <= k")
    if not 0 <= r < comb(k, ell):
        raise ValueError("rank out of range")
    out = []
    c = k - 1
    for j in range(ell, 0, -1):
        while comb(c, j) > r:
            c -= 1
        out.append(c)
        r -= comb(c, j)
        c -= 1
    return tuple(reversed(out))


class DenseCode:
    """Near-bijection between (ell-subset of [0,k), copy index) and m bits."""

    __slots__ = ("k", "ell", "m", "n_subsets", "t_m")

    def __init__(self, k: int, ell: int, m: int):
        if not 1 <= ell <= k:
            raise ValueError("need 1 <= ell <= k")
        n_subsets = comb(k, ell)
        if m < 0 or (1 << m) < n_subsets:
            raise ValueError("m too small to encode every subset")
        self.k = k
        self.ell = ell
        self.m = m
        self.n_subsets = n_subsets
        self.t_m = (1 << m) // n_subsets

    @property
    def invalid_count(self) -> int:
        return (1 << self.m) - self.t_m * self.n_subsets

    def encode(self, subset: IndexSet, copy: int) -> BitString:
        if subset.ground != self.k or len(subset) != self.ell:
            raise ValueError("subset shape mismatch")
        if not 0 <= copy < self.t_m:
            raise ValueError("copy index out of range")
        return BitString(self.m, subset_rank(subset.indices) + copy * self.n_subsets)

    def decode(self, word: BitString) -> tuple[IndexSet, int] | None:
        if word.length != self.m:
            raise ValueError("word length mismatch")
        v = word.to_int()
        if v >= self.t_m * self.n_subsets:
            return None
        copy, r = divmod(v, self.n_subsets)
        return IndexSet._increasing(self.k, subset_unrank(r, self.k, self.ell)), copy

    def random_copy(self, rng: random.Random) -> int:
        return rng.randrange(self.t_m)

    def __repr__(self) -> str:
        return f"DenseCode(k={self.k}, ell={self.ell}, m={self.m})"
