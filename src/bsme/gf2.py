"""Small GF(2) linear algebra helpers on integer-packed row vectors.

A vector over GF(2)^n is a Python int whose bit i is coordinate i.
"""

from __future__ import annotations

from itertools import combinations


class Echelon:
    """Incremental row-echelon basis keyed by pivot (highest set bit)."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, int] = {}

    def reduce(self, v: int) -> int:
        rows = self.rows
        while v:
            p = v.bit_length() - 1
            row = rows.get(p)
            if row is None:
                return v
            v ^= row
        return 0

    def add(self, v: int) -> bool:
        """Insert ``v``; returns False when it is dependent on the basis."""
        r = self.reduce(v)
        if r == 0:
            return False
        self.insert(r)
        return True

    def insert(self, r: int) -> None:
        """Insert a nonzero row already reduced against the basis."""
        self.rows[r.bit_length() - 1] = r

    @property
    def rank(self) -> int:
        return len(self.rows)


def nullspace(rows, n: int) -> list[int]:
    """Basis of ``{x : row . x = 0 for every row}`` inside GF(2)^n.

    One vector per free coordinate, in ascending order: that coordinate set,
    the other free ones clear, and each pivot coordinate fixed by forward
    substitution as in `solve_affine_pair`.
    """
    ech = Echelon()
    for r in rows:
        if r >> n:
            raise ValueError(f"row {r:#x} has bits at or above n={n}")
        ech.add(r)
    pivots = sorted(ech.rows.items())
    basis = []
    for free in range(n):
        if free in ech.rows:
            continue
        x = 1 << free
        for p, row in pivots:
            x |= ((row & x).bit_count() & 1) << p
        basis.append(x)
    return basis


def mat_vec(rows, v: int) -> int:
    """The product M.v: bit i is the parity of ``rows[i] & v``."""
    out = 0
    for i, row in enumerate(rows):
        out |= ((row & v).bit_count() & 1) << i
    return out


def low_weight(n: int, radius: int):
    """Every vector of GF(2)^n of weight at most ``radius``, lightest first."""
    for w in range(radius + 1):
        for positions in combinations(range(n), w):
            yield sum(1 << p for p in positions)


def solve_affine_pair(queries: list[int], responses: list[int], n: int) -> tuple[int, int]:
    """Both solutions of ``<q_i, x> = c_i`` for n-1 independent queries.

    Raises ValueError unless the queries are linearly independent, in which
    case the solution set has exactly two elements: the first has the one
    free coordinate at 0, the second at 1.  Queries already in echelon form,
    passed in ascending pivot order, insert without any reduction step.
    """
    if len(queries) != n - 1 or len(responses) != n - 1:
        raise ValueError("need exactly n-1 query/response pairs")
    # Augmented rows carry the response in bit 0 and the vector shifted up.
    rows: dict[int, int] = {}
    for q, c in zip(queries, responses):
        if c not in (0, 1):
            raise ValueError("responses must be bits")
        aug = (q << 1) | c
        while aug >> 1:
            p = (aug >> 1).bit_length() - 1
            row = rows.get(p)
            if row is None:
                rows[p] = aug
                break
            aug ^= row
        else:
            raise ValueError("queries are linearly dependent")
    # Forward substitution in ascending pivot order: below its pivot a row
    # touches only coordinates already fixed (lower pivots or the free one).
    free = next(i for i in range(n) if i not in rows)
    x0, x1 = 0, 1 << free
    for p in sorted(rows):
        q, c = rows[p] >> 1, rows[p] & 1
        x0 |= (((q & x0).bit_count() ^ c) & 1) << p
        x1 |= (((q & x1).bit_count() ^ c) & 1) << p
    return x0, x1
