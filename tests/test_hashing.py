import hashlib
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsme.bits import BitString
from bsme.hashing import (
    ToeplitzHash,
    random_seed,
    seed_length,
    strong_extract,
)
from bsme.infomath import Distribution, cond_min_entropy, statistical_distance


def matrix_entry(diag: BitString, in_len: int, i: int, j: int) -> int:
    return diag.bit(i + in_len - 1 - j)


class TestToeplitz:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            ToeplitzHash(0, 1, BitString.zeros(0))
        with pytest.raises(ValueError):
            ToeplitzHash(3, 2, BitString.zeros(5))

    def test_input_length_check(self):
        h = ToeplitzHash(3, 2, BitString.zeros(4))
        with pytest.raises(ValueError):
            h(BitString.zeros(4))

    # Widths past 8 digest bits reach a second group of the grouped kernel.
    @given(st.integers(1, 70), st.integers(1, 20), st.integers(0, 2**32))
    def test_matches_matrix_definition(self, in_len, out_len, seed):
        rng = random.Random(seed)
        diag = BitString.random(in_len + out_len - 1, rng)
        x = BitString.random(in_len, rng)
        h = ToeplitzHash(in_len, out_len, diag)
        got = h(x)
        for i in range(out_len):
            expect = 0
            for j in range(in_len):
                expect ^= matrix_entry(diag, in_len, i, j) & x.bit(j)
            assert got.bit(i) == expect

    @given(st.integers(1, 70), st.integers(1, 20), st.integers(0, 2**32))
    def test_linearity(self, in_len, out_len, seed):
        rng = random.Random(seed)
        h = ToeplitzHash.random(in_len, out_len, rng)
        x = BitString.random(in_len, rng)
        y = BitString.random(in_len, rng)
        assert h(x ^ y) == h(x) ^ h(y)

    @pytest.mark.parametrize("seed,digest", [
        (1, "84891108237d6b00fae31b9336925b52f00d932032ef3c488d1e03f259ce4811"),
        (2, "887a84d7a1bcc7fbf91c7a5c79539d84e60aa61c571b8c6282af812421dfcd51"),
        (3, "6602efa81eeee38237d23f62e0994bf837a19e09546808415098b24e96f6720b"),
    ])
    def test_commit_point_digests_are_frozen(self, seed, digest):
        # k=2,048 sampled bits hashed to 1,499, as in the n=65,536 commitment;
        # the digests were taken from the row-by-row matrix product.
        rng = random.Random(seed)
        h = ToeplitzHash.random(2048, 1499, rng)
        out = h(BitString.random(2048, rng))
        assert out.length == 1499
        assert hashlib.sha256(out.to_bytes()).hexdigest() == digest

    def test_exact_two_universality(self):
        # in=3, out=2: every distinct pair must collide for exactly
        # 2**-out_len of the 16 diagonals.
        in_len, out_len = 3, 2
        seeds = [BitString(4, d) for d in range(16)]
        for xv, yv in itertools.combinations(range(8), 2):
            x, y = BitString(3, xv), BitString(3, yv)
            collisions = sum(1 for s in seeds
                             if ToeplitzHash(in_len, out_len, s)(x)
                             == ToeplitzHash(in_len, out_len, s)(y))
            assert collisions == 4

    def test_unit_vectors_give_columns(self):
        # h(e_j) is column j of the matrix
        diag = BitString.from_str("10110")
        h = ToeplitzHash(3, 3, diag)
        for j in range(3):
            column = h(BitString(3, 1 << j))
            for i in range(3):
                assert column.bit(i) == matrix_entry(diag, 3, i, j)

    @given(st.integers(1, 300), st.integers(1, 40), st.data())
    def test_first_row_matches_reference(self, in_len, out_len, data):
        # Per-bit reference: row 0 holds diagonal bit in_len-1-j at bit j.
        diag = BitString(in_len + out_len - 1,
                         data.draw(st.integers(0, (1 << (in_len + out_len - 1)) - 1)))
        d = diag.to_int()
        expect = 0
        for j in range(in_len):
            expect |= ((d >> (in_len - 1 - j)) & 1) << j
        h = ToeplitzHash(in_len, out_len, diag)
        columns = [h(BitString(in_len, 1 << j)).to_int() for j in range(in_len)]
        assert sum((c & 1) << j for j, c in enumerate(columns)) == expect
        for j, column in enumerate(columns):
            assert all((column >> i) & 1 == matrix_entry(diag, in_len, i, j)
                       for i in range(out_len))

    def test_eq(self):
        a = ToeplitzHash(3, 2, BitString(4, 0b1010))
        b = ToeplitzHash(3, 2, BitString(4, 0b1010))
        c = ToeplitzHash(3, 2, BitString(4, 0b1011))
        assert a == b and a != c and a != "x"


class TestExtractor:
    def test_seed_length(self):
        assert seed_length(10, 3) == 12
        s = random_seed(10, 3, random.Random(0))
        assert s.length == 12

    def test_strong_extract_is_toeplitz(self):
        rng = random.Random(7)
        x = BitString.random(9, rng)
        seed = random_seed(9, 4, rng)
        direct = ToeplitzHash(9, 4, seed)(x)
        assert strong_extract(x, seed, 4) == direct

    def test_strong_extract_validation(self):
        x = BitString.zeros(5)
        with pytest.raises(ValueError):
            strong_extract(x, BitString.zeros(5), 2)
        with pytest.raises(ValueError):
            strong_extract(x, BitString.zeros(4), 0)

    def test_leftover_hash_bound_exact(self):
        # X uniform on 4 of 8 values (Hmin = 2), one output bit.  The exact
        # joint distance must respect 0.5 * 2**((m - Hmin)/2).
        in_len, out_len = 3, 1
        support = (0, 3, 5, 6)
        # paired with a constant, X's conditional min-entropy is its own
        src = Distribution({(BitString(3, v), None): 0.25 for v in support})
        assert cond_min_entropy(src) == pytest.approx(2.0)
        n_seeds = 2 ** seed_length(in_len, out_len)
        joint = {}
        flat = {}
        for ds in range(n_seeds):
            seed = BitString(seed_length(in_len, out_len), ds)
            for x in support:
                out = strong_extract(BitString(3, x), seed, out_len)
                key = (out.to_int(), ds)
                joint[key] = joint.get(key, 0.0) + 1.0 / (4 * n_seeds)
            for o in range(2**out_len):
                flat[(o, ds)] = 1.0 / (n_seeds * 2**out_len)
        dist = statistical_distance(Distribution(joint), Distribution(flat))
        bound = 0.5 * 2 ** ((out_len - 2.0) / 2.0)
        assert dist <= bound + 1e-12
