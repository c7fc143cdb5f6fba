import itertools
import random

import pytest

from bsme import gf2
from bsme.bits import BitString
from bsme.codes import LinearCode, fuzzy_ext, fuzzy_rec
from bsme.hashing import seed_length


def all_codewords(code: LinearCode):
    for v in range(1 << code.length):
        if code._syndrome_int(v) == 0:
            yield v


class TestHamming:
    def test_certified_parameters(self):
        c = LinearCode.hamming_7_4()
        assert (c.length, c.dimension) == (7, 4)
        assert c.d_min == 3
        assert c.radius == 1
        assert c.syndrome_len == 3

    def test_weight_three_codewords(self):
        # bit0-first strings of the seven minimum-weight words
        c = LinearCode.hamming_7_4()
        words = {BitString(7, v).to_str() for v in all_codewords(c)
                 if BitString(7, v).weight() == 3}
        # hand-checked against the parity rows: row b covers positions j
        # with bit b set in j+1
        assert words == {
            "1110000", "1000011", "0100101", "0010110",
            "0011001", "0101010", "1001100",
        }

    def test_syndrome_of_single_error_names_position(self):
        c = LinearCode.hamming_7_4()
        for j in range(7):
            s = c.syndrome(BitString(7, 1 << j))
            assert s.to_int() == j + 1


class TestCodeFamilies:
    def test_repetition_parameters(self):
        r3 = LinearCode.repetition(3)
        assert (r3.length, r3.dimension, r3.d_min, r3.radius) == (3, 1, 3, 1)
        r5 = LinearCode.repetition(5)
        assert (r5.d_min, r5.radius) == (5, 2)
        r4 = LinearCode.repetition(4)
        assert (r4.d_min, r4.radius) == (4, 1)

    def test_trivial_is_rate_one(self):
        t = LinearCode.trivial(3)
        assert t.syndrome_len == 0 and t.radius == 0 and t.dimension == 3
        assert t.syndrome(BitString(3, 5)).length == 0
        assert t.decode_syndrome(BitString(0, 0)) == BitString(3, 0)

    def test_explicit_radius_lowering(self):
        r5 = LinearCode.repetition(5)
        lowered = LinearCode(5, r5.rows, radius=1)
        assert lowered.radius == 1
        # a weight-2 flip is now a detected failure
        s = lowered.syndrome(BitString(5, 0b00011))
        assert lowered.decode_syndrome(s) is None
        with pytest.raises(ValueError):
            LinearCode(5, r5.rows, radius=3)

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            LinearCode(0, ())
        with pytest.raises(ValueError):
            LinearCode(25, ())
        with pytest.raises(ValueError):
            LinearCode(3, (0b1000,))
        with pytest.raises(ValueError):
            LinearCode(3, (0b011, 0b101, 0b110))  # dependent rows

    def test_descriptor_roundtrip(self):
        # the descriptor is the constructor's arguments, so it rebuilds the code
        c = LinearCode.hamming_7_4()
        back = LinearCode(*c.descriptor())
        assert back.rows == c.rows and back.radius == c.radius

    def test_random_linear(self):
        # any full-rank parity rows give a certified code of the matching dimension
        rng = random.Random(4)
        built = 0
        while built < 5:
            rows = tuple(rng.getrandbits(8) for _ in range(4))
            if gf2.row_rank(rows) != 4:
                continue
            c = LinearCode(8, rows)
            built += 1
            assert (c.length, c.dimension) == (8, 4)
            assert c.d_min == min(bin(v).count("1") for v in all_codewords(c) if v)


class TestDecoding:
    @pytest.mark.parametrize("code", [
        LinearCode.hamming_7_4(),
        LinearCode.repetition(3),
        LinearCode.repetition(5),
    ], ids=["hamming", "rep3", "rep5"])
    def test_exhaustive_within_radius(self, code):
        # every codeword, every error pattern of weight <= radius
        for cw in all_codewords(code):
            for w in range(code.radius + 1):
                for positions in itertools.combinations(range(code.length), w):
                    e = 0
                    for p in positions:
                        e |= 1 << p
                    got = code.decode_syndrome(code.syndrome(BitString(code.length, cw ^ e)))
                    assert got is not None and got.to_int() == e

    def test_perfect_code_never_detects(self):
        # Hamming(7,4) covers all 8 syndromes, so weight-2 errors silently
        # miscorrect to a different codeword rather than returning None.
        c = LinearCode.hamming_7_4()
        for s in range(8):
            assert c.decode_syndrome(BitString(3, s)) is not None
        for i, j in itertools.combinations(range(7), 2):
            e = (1 << i) | (1 << j)
            err = c.decode_syndrome(BitString(3, c._syndrome_int(e)))
            assert err is not None and err.to_int() != e

    def test_non_perfect_code_detects_weight_two(self):
        r4 = LinearCode.repetition(4)
        for i, j in itertools.combinations(range(4), 2):
            s = r4.syndrome(BitString(4, (1 << i) | (1 << j)))
            assert r4.decode_syndrome(s) is None

    def test_length_checks(self):
        c = LinearCode.hamming_7_4()
        with pytest.raises(ValueError):
            c.syndrome(BitString.zeros(6))
        with pytest.raises(ValueError):
            c.decode_syndrome(BitString.zeros(2))


class TestFuzzyExtractor:
    def test_exhaustive_zero_failure_inside_radius(self):
        # every input x, every error of weight <= 1, a handful of seeds
        code = LinearCode.hamming_7_4()
        out_len = 3
        slen = seed_length(7, out_len)
        seeds = [BitString(slen, (0x9E3779B9 * (s + 1)) % (1 << slen)) for s in range(4)]
        for xv in range(128):
            x = BitString(7, xv)
            for seed in seeds:
                out = fuzzy_ext(x, seed, out_len, code)
                for e in [0] + [1 << i for i in range(7)]:
                    got = fuzzy_rec(x ^ BitString(7, e), seed, out.p, out_len, code)
                    assert got == out.y

    def test_multi_block(self):
        code = LinearCode.repetition(3)
        rng = random.Random(11)
        x = BitString.random(9, rng)
        seed = BitString.random(seed_length(9, 4), rng)
        out = fuzzy_ext(x, seed, 4, code)
        assert out.p.length == 3 * code.syndrome_len
        # one flip in each block stays recoverable
        noisy = x.flip(0).flip(4).flip(8)
        assert fuzzy_rec(noisy, seed, out.p, 4, code) == out.y

    def test_detected_failure_is_none(self):
        code = LinearCode.repetition(4)
        x = BitString.zeros(4)
        seed = BitString.zeros(seed_length(4, 2))
        out = fuzzy_ext(x, seed, 2, code)
        noisy = x.flip(0).flip(1)
        assert fuzzy_rec(noisy, seed, out.p, 2, code) is None

    def test_hamming_miscorrection_witness(self):
        # weight-2 overload on a perfect code: recovery returns a value, and
        # for this input it is the wrong one (frozen witness, seed pattern 22)
        code = LinearCode.hamming_7_4()
        x = BitString(7, 22)
        seed = BitString(seed_length(7, 1), 22)
        out = fuzzy_ext(x, seed, 1, code)
        wrong = 0
        for i, j in itertools.combinations(range(7), 2):
            noisy = x ^ BitString(7, (1 << i) | (1 << j))
            got = fuzzy_rec(noisy, seed, out.p, 1, code)
            assert got is not None
            if got != out.y:
                wrong += 1
        assert wrong > 0

    def test_validation(self):
        code = LinearCode.hamming_7_4()
        seed = BitString.zeros(seed_length(7, 2))
        with pytest.raises(ValueError):
            fuzzy_ext(BitString.zeros(8), seed, 2, code)
        with pytest.raises(ValueError):
            fuzzy_rec(BitString.zeros(8), seed, BitString.zeros(3), 2, code)
        with pytest.raises(ValueError):
            fuzzy_rec(BitString.zeros(7), seed, BitString.zeros(4), 2, code)
