"""Small GF(2) linear algebra helpers on integer-packed row vectors.

A vector over GF(2)^n is a Python int whose bit i is coordinate i.
"""

from __future__ import annotations


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


def row_rank(rows) -> int:
    ech = Echelon()
    for r in rows:
        ech.add(r)
    return ech.rank


def nullspace(rows, n: int) -> list[int]:
    """Basis of ``{x : row . x = 0 for every row}`` inside GF(2)^n."""
    # Reduce to RREF with tracked pivot columns, then read off free-variable
    # kernel vectors.
    rref: list[int] = []
    pivots: list[int] = []
    for r in rows:
        for row, p in zip(rref, pivots):
            if (r >> p) & 1:
                r ^= row
        if r:
            p = r.bit_length() - 1
            # eliminate the new pivot from previous rows
            rref = [row ^ r if (row >> p) & 1 else row for row in rref]
            rref.append(r)
            pivots.append(p)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = 1 << free
        for row, p in zip(rref, pivots):
            if (row >> free) & 1:
                vec |= 1 << p
        basis.append(vec)
    return basis


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
