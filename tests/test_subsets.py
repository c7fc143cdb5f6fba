import itertools
import random
from math import comb

import pytest

from bsme.bits import BitString, IndexSet
from bsme.subsets import DenseCode, subset_rank, subset_unrank


class TestRanking:
    def test_rank_formula_small(self):
        # colex rank is sum of C(s_j, j+1)
        assert subset_rank(()) == 0
        assert subset_rank((0, 1, 2)) == 0
        assert subset_rank((2, 4, 5)) == comb(2, 1) + comb(4, 2) + comb(5, 3)

    def test_exhaustive_bijection_8_choose_3(self):
        subsets = list(itertools.combinations(range(8), 3))
        ranks = [subset_rank(s) for s in subsets]
        assert sorted(ranks) == list(range(56))
        for s, r in zip(subsets, ranks):
            assert subset_unrank(r, 8, 3) == s

    def test_colex_order(self):
        # ranks sort subsets by their reversed tuples (largest element first)
        subsets = list(itertools.combinations(range(7), 4))
        by_rank = sorted(subsets, key=subset_rank)
        by_colex = sorted(subsets, key=lambda s: tuple(reversed(s)))
        assert by_rank == by_colex

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            subset_rank((3, 3))
        with pytest.raises(ValueError):
            subset_rank((5, 2))
        with pytest.raises(ValueError):
            subset_rank((-1, 2))

    def test_unrank_validation(self):
        with pytest.raises(ValueError):
            subset_unrank(0, 3, 4)
        with pytest.raises(ValueError):
            subset_unrank(comb(6, 2), 6, 2)
        with pytest.raises(ValueError):
            subset_unrank(-1, 6, 2)

    def test_unrank_edge_sizes(self):
        assert subset_unrank(0, 5, 0) == ()
        assert subset_unrank(0, 5, 5) == (0, 1, 2, 3, 4)


class TestDenseCode:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            DenseCode(4, 0, 3)
        with pytest.raises(ValueError):
            DenseCode(4, 5, 10)
        with pytest.raises(ValueError):
            DenseCode(4, 2, 2)  # C(4,2)=6 > 4

    def test_copy_capacity(self):
        dc = DenseCode(4, 2, 4)  # 16 // 6 = 2 copies
        assert dc.t_m == 2
        assert dc.invalid_count == 16 - 12
        with pytest.raises(ValueError):
            dc.encode(IndexSet(4, (0, 1)), 2)
        with pytest.raises(ValueError):
            dc.encode(IndexSet(4, (0, 1)), -1)

    def test_encode_shape_checks(self):
        dc = DenseCode(5, 2, 4)
        with pytest.raises(ValueError):
            dc.encode(IndexSet(6, (0, 1)), 0)
        with pytest.raises(ValueError):
            dc.encode(IndexSet(5, (0, 1, 2)), 0)
        with pytest.raises(ValueError):
            dc.decode(BitString.zeros(5))

    def test_roundtrip_and_rejection_exhaustive(self):
        dc = DenseCode(6, 3, 6)
        n = comb(6, 3)
        seen = set()
        for subset in itertools.combinations(range(6), 3):
            s = IndexSet(6, subset)
            for copy in range(dc.t_m):
                w = dc.encode(s, copy)
                assert w not in seen
                seen.add(w)
                assert dc.decode(w) == (s, copy)
        # everything outside the image decodes to None
        rejected = sum(1 for v in range(64)
                       if dc.decode(BitString(6, v)) is None)
        assert rejected == dc.invalid_count
        assert len(seen) == dc.t_m * n

    def test_invalid_fraction_bound(self):
        for k in range(1, 13):
            for ell in range(1, min(k, 4) + 1):
                base = comb(k, ell)
                m0 = max(1, base.bit_length() - (1 if base & (base - 1) == 0 else 0))
                while (1 << m0) < base:
                    m0 += 1
                for m in (m0, m0 + 1, m0 + 2):
                    dc = DenseCode(k, ell, m)
                    assert dc.invalid_count < base
                    assert dc.invalid_count / (1 << m) < base / (1 << m)

    def test_full_subset_edge(self):
        dc = DenseCode(3, 3, 2)
        assert dc.n_subsets == 1 and dc.t_m == 4
        for copy in range(4):
            w = dc.encode(IndexSet(3, range(3)), copy)
            assert dc.decode(w) == (IndexSet(3, range(3)), copy)

    def test_random_copy_range(self):
        dc = DenseCode(5, 2, 5)
        rng = random.Random(0)
        draws = {dc.random_copy(rng) for _ in range(200)}
        assert draws == set(range(dc.t_m))
