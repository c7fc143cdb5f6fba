import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsme import gf2


def span_of(rows):
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return out


rows_strategy = st.lists(st.integers(0, 255), max_size=6)


class TestEchelon:
    @given(rows_strategy)
    def test_rank_matches_span_size(self, rows):
        ech = gf2.Echelon()
        for r in rows:
            ech.add(r)
        assert 1 << ech.rank == len(span_of(rows))

    @given(rows_strategy)
    def test_contains_iff_in_span(self, rows):
        ech = gf2.Echelon()
        for r in rows:
            ech.add(r)
        sp = span_of(rows)
        for v in list(sp)[:16]:
            assert ech.reduce(v) == 0
        for v in range(256):
            if v not in sp:
                assert ech.reduce(v) != 0
                break

    def test_add_reports_new_dimension(self):
        ech = gf2.Echelon()
        assert ech.add(0b101)
        assert not ech.add(0b101)
        assert ech.add(0b011)
        assert not ech.add(0b110)  # xor of the first two


class TestNullspace:
    @given(st.lists(st.integers(0, 63), max_size=5))
    def test_kernel_properties(self, rows):
        n = 6
        basis = gf2.nullspace(rows, n)
        ech, kernel = gf2.Echelon(), gf2.Echelon()
        for r in rows:
            ech.add(r)
        for b in basis:
            kernel.add(b)
        assert len(basis) == n - ech.rank
        assert kernel.rank == len(basis)
        for b in basis:
            assert b != 0
            for r in rows:
                assert (r & b).bit_count() % 2 == 0

    def test_full_space(self):
        basis = gf2.nullspace([], 3)
        assert sorted(span_of(basis)) == list(range(8))

    def test_row_wider_than_n_refused(self):
        with pytest.raises(ValueError):
            gf2.nullspace([0b100001], 3)


class TestSolveAffinePair:
    @given(st.integers(2, 7), st.data())
    def test_matches_brute_force(self, m, data):
        # each query is an index into the complement of the span so far, so
        # every independent sequence is reachable and no draw is rejected
        rng_queries = []
        ech = gf2.Echelon()
        while len(rng_queries) < m - 1:
            outside = [v for v in range(1 << m) if ech.reduce(v)]
            q = outside[data.draw(st.integers(0, len(outside) - 1))]
            ech.add(q)
            rng_queries.append(q)
        w = data.draw(st.integers(0, (1 << m) - 1))
        responses = [(q & w).bit_count() & 1 for q in rng_queries]
        x0, x1 = gf2.solve_affine_pair(rng_queries, responses, m)
        brute = sorted(
            v
            for v in range(1 << m)
            if all((q & v).bit_count() & 1 == c for q, c in zip(rng_queries, responses))
        )
        assert sorted((x0, x1)) == brute
        assert w in (x0, x1)

    def test_dependent_queries_rejected(self):
        with pytest.raises(ValueError, match="linearly dependent"):
            gf2.solve_affine_pair([0b011, 0b101, 0b110], [0, 0, 0], 4)
        with pytest.raises(ValueError, match="linearly dependent"):
            gf2.solve_affine_pair([0b001, 0b001], [0, 1], 3)

    def test_two_solutions_differ_by_kernel(self):
        queries = [0b001, 0b010]
        x0, x1 = gf2.solve_affine_pair(queries, [1, 0], 3)
        diff = x0 ^ x1
        for q in queries:
            assert (q & diff).bit_count() % 2 == 0
        assert diff != 0
