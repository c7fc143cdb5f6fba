import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsme.bits import BitString, IndexSet, concat_all


def bitstrings(max_len=16):
    return st.integers(0, max_len).flatmap(
        lambda n: st.integers(0, (1 << n) - 1 if n else 0).map(lambda v: BitString(n, v))
    )


def index_sets(max_ground=16):
    return st.integers(0, max_ground).flatmap(
        lambda g: st.lists(st.integers(0, g - 1), unique=True, max_size=g).map(
            lambda idx: IndexSet(g, sorted(idx))
        )
        if g
        else st.just(IndexSet(0))
    )


class TestBitStringConstruction:
    def test_zeros_ones(self):
        assert BitString.zeros(5).to_int() == 0
        assert BitString.ones(5).to_int() == 31
        assert BitString.zeros(0).length == 0

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            BitString(3, 8)
        with pytest.raises(ValueError):
            BitString(3, -1)
        with pytest.raises(ValueError):
            BitString(-1, 0)

    def test_immutable(self):
        x = BitString(4, 0b1010)
        with pytest.raises(AttributeError):
            x._value = 3

    def test_from_bits_order(self):
        # first element of the iterable is bit 0
        x = BitString.from_bits([1, 0, 0, 1])
        assert x.bit(0) == 1 and x.bit(3) == 1
        assert x.to_int() == 0b1001

    def test_from_str_leftmost_is_bit_zero(self):
        x = BitString.from_str("1000")
        assert x.to_int() == 1
        assert x.to_str() == "1000"

    def test_str_roundtrip(self):
        for v in range(16):
            x = BitString(4, v)
            assert BitString.from_str(x.to_str()) == x

    def test_bytes_little_endian(self):
        # bit 0 is the least significant bit of the first byte
        assert BitString.from_str("10000001").to_bytes() == b"\x81"
        assert BitString(12, 0x5A3).to_bytes() == b"\xa3\x05"

    def test_from_bytes_rejects_padding(self):
        with pytest.raises(ValueError):
            BitString.from_bytes(b"\xff", 4)
        with pytest.raises(ValueError):
            BitString.from_bytes(b"\x01\x01", 8)
        assert BitString.from_bytes(b"\x0f", 4) == BitString(4, 15)

    @given(bitstrings())
    def test_bytes_roundtrip(self, x):
        assert BitString.from_bytes(x.to_bytes(), x.length) == x

    def test_random_uses_rng(self):
        a = BitString.random(40, random.Random(1))
        b = BitString.random(40, random.Random(1))
        c = BitString.random(40, random.Random(2))
        assert a == b and a != c


class TestBitStringOps:
    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            BitString(3, 1) ^ BitString(4, 1)

    @given(bitstrings())
    def test_xor_self_is_zero(self, x):
        assert (x ^ x) == BitString.zeros(x.length)

    @given(bitstrings(), st.data())
    def test_hamming_is_xor_weight(self, x, data):
        y = data.draw(st.integers(0, (1 << x.length) - 1 if x.length else 0))
        y = BitString(x.length, y)
        assert x.hamming(y) == (x ^ y).weight()

    def test_weight(self):
        assert BitString(8, 0b10110001).weight() == 4

    def test_lex_key_orders_like_strings(self):
        # lex_key sorts bit strings the way their display strings sort
        for m in (3, 4):
            xs = [BitString(m, v) for v in range(1 << m)]
            by_key = sorted(xs, key=lambda x: x.lex_key())
            by_str = sorted(xs, key=lambda x: x.to_str())
            assert by_key == by_str

    def test_flip(self):
        x = BitString(4, 0b0101)
        assert x.flip(1) == BitString(4, 0b0111)
        assert x.flip(1).flip(1) == x
        with pytest.raises(IndexError):
            x.flip(4)

    def test_slice_and_concat(self):
        x = BitString.from_str("101100")
        assert x.slice_bits(1, 3).to_str() == "011"
        assert x.slice_bits(0, 6) == x
        with pytest.raises(ValueError):
            x.slice_bits(4, 3)

    @given(bitstrings(8), bitstrings(8))
    def test_concat_slices_back(self, a, b):
        joint = a.concat(b)
        assert joint.length == a.length + b.length
        assert joint.slice_bits(0, a.length) == a
        assert joint.slice_bits(a.length, b.length) == b

    def test_concat_all(self):
        parts = [BitString.from_str("10"), BitString.from_str("01"), BitString.from_str("1")]
        assert concat_all(parts).to_str() == "10011"
        assert concat_all([]).length == 0

    def test_restrict_keeps_order(self):
        x = BitString.from_str("10110")
        s = IndexSet(5, (0, 2, 3))
        assert x.restrict(s).to_str() == "111"

    def test_restrict_ground_mismatch(self):
        with pytest.raises(ValueError):
            BitString(4, 0).restrict(IndexSet(5, (0,)))

    @given(bitstrings(12), st.data())
    def test_restrict_bit_by_bit(self, x, data):
        if x.length == 0:
            idx = []
        else:
            idx = data.draw(st.lists(st.integers(0, x.length - 1), unique=True))
        s = IndexSet(x.length, sorted(idx))
        r = x.restrict(s)
        assert r.length == len(idx)
        for j, pos in enumerate(s):
            assert r.bit(j) == x.bit(pos)

    def test_eq_hash_respect_length(self):
        assert BitString(3, 1) != BitString(4, 1)
        assert BitString(3, 1) == BitString(3, 1)
        assert hash(BitString(3, 1)) != hash(BitString(4, 1))
        assert BitString(3, 1) != "001"

    def test_iter_len(self):
        x = BitString.from_str("110")
        assert list(x) == [1, 1, 0]
        assert len(x) == 3


class TestIndexSet:
    def test_init_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            IndexSet(5, (2, 1))
        with pytest.raises(ValueError):
            IndexSet(5, (1, 1))
        with pytest.raises(ValueError):
            IndexSet(5, (5,))
        with pytest.raises(ValueError):
            IndexSet(5, (-1,))

    def test_from_iterable_sorts_and_dedups(self):
        s = IndexSet.from_iterable(6, [4, 1, 4, 2])
        assert s.indices == (1, 2, 4)

    def test_full_and_empty(self):
        assert IndexSet.full(3).indices == (0, 1, 2)
        assert len(IndexSet(3)) == 0
        assert len(IndexSet(0)) == 0

    @given(index_sets())
    def test_mask_roundtrip(self, s):
        assert IndexSet.from_mask(s.to_mask()) == s
        assert s.to_mask().length == s.ground

    def test_mask_values(self):
        assert IndexSet(4, (0, 2)).to_mask().to_str() == "1010"

    @given(index_sets(12), st.data())
    def test_intersect_matches_set_intersection(self, a, data):
        idx = data.draw(st.lists(st.integers(0, a.ground - 1), unique=True)) if a.ground else []
        b = IndexSet(a.ground, sorted(idx))
        assert set(a.intersect(b)) == set(a) & set(b)

    def test_intersect_ground_mismatch(self):
        with pytest.raises(ValueError):
            IndexSet(4).intersect(IndexSet(5))

    def test_positions_within(self):
        sup = IndexSet(10, (1, 3, 4, 7, 9))
        sub = IndexSet(10, (3, 9))
        rel = sub.positions_within(sup)
        assert rel.ground == 5
        assert rel.indices == (1, 4)

    def test_positions_within_rejects_non_member(self):
        sup = IndexSet(10, (1, 3))
        with pytest.raises(ValueError):
            IndexSet(10, (2,)).positions_within(sup)

    @given(index_sets(12), st.data())
    def test_select_inverts_positions_within(self, sup, data):
        pick = data.draw(st.lists(st.sampled_from(sup.indices), unique=True)) if len(sup) else []
        sub = IndexSet(sup.ground, sorted(pick))
        rel = sub.positions_within(sup)
        assert sup.select(rel) == sub

    def test_select_ground_check(self):
        sup = IndexSet(10, (1, 3, 5))
        with pytest.raises(ValueError):
            sup.select(IndexSet(2, (0,)))

    def test_contains(self):
        s = IndexSet(10, (1, 5, 8))
        assert 5 in s and 4 not in s

    def test_eq_hash(self):
        assert IndexSet(5, (1,)) == IndexSet(5, (1,))
        assert IndexSet(5, (1,)) != IndexSet(6, (1,))
        assert hash(IndexSet(5, (1,))) == hash(IndexSet(5, (1,)))
        assert IndexSet(5, (1,)) != (1,)


# Per-bit reference versions of the gather and scatter, kept only here to
# check the linear-time ones against.

def restrict_ref(x: BitString, positions: IndexSet) -> BitString:
    value = 0
    for out_pos, pos in enumerate(positions):
        value |= ((x.to_int() >> pos) & 1) << out_pos
    return BitString(len(positions), value)


def to_mask_ref(s: IndexSet) -> BitString:
    value = 0
    for i in s:
        value |= 1 << i
    return BitString(s.ground, value)


def from_mask_ref(mask: BitString) -> IndexSet:
    return IndexSet(mask.length, [i for i in range(mask.length) if (mask.to_int() >> i) & 1])


def wide_index_sets():
    """Index sets over grounds 0-200 (most not multiples of 8 or 32), full sets included."""
    def build(ground, full, idx):
        return IndexSet.full(ground) if full else IndexSet(ground, sorted(idx))

    return st.integers(0, 200).flatmap(
        lambda g: st.builds(
            build, st.just(g), st.booleans(),
            st.sets(st.integers(0, g - 1), max_size=g) if g else st.just(set()),
        )
    )


class TestLinearPlumbing:
    @given(wide_index_sets(), st.data())
    def test_restrict_matches_reference(self, s, data):
        x = BitString(s.ground, data.draw(st.integers(0, (1 << s.ground) - 1)))
        assert x.restrict(s) == restrict_ref(x, s)

    @given(wide_index_sets())
    def test_to_mask_matches_reference(self, s):
        assert s.to_mask() == to_mask_ref(s)

    @given(st.integers(0, 200).flatmap(
        lambda n: st.integers(0, (1 << n) - 1).map(lambda v: BitString(n, v))))
    def test_from_mask_matches_reference(self, mask):
        assert IndexSet.from_mask(mask) == from_mask_ref(mask)

    @pytest.mark.parametrize("ground", [0, 1, 7, 8, 31, 32, 33, 65, 1000])
    def test_edges(self, ground):
        full = IndexSet.full(ground)
        empty = IndexSet(ground)
        ones = BitString.ones(ground)
        assert full.to_mask() == ones == to_mask_ref(full)
        assert empty.to_mask() == BitString.zeros(ground)
        assert IndexSet.from_mask(ones) == full
        assert IndexSet.from_mask(BitString.zeros(ground)) == empty
        x = BitString.random(ground, random.Random(ground))
        assert x.restrict(full) == x
        assert x.restrict(empty) == BitString.zeros(0)

    def test_increasing_check_covers_every_pair(self):
        with pytest.raises(ValueError):
            IndexSet(10, (0, 1, 2, 3, 9, 8))
        with pytest.raises(ValueError):
            IndexSet(10, (0, 0))
        assert IndexSet(10, range(10)).indices == tuple(range(10))


# Per-bit reference versions of the display and parse methods, as they were
# written before the single-pass versions.
def to_str_ref(x):
    return "".join("1" if x.bit(i) else "0" for i in range(x.length))


def iter_ref(x):
    return [(x.to_int() >> i) & 1 for i in range(x.length)]


def from_bits_ref(bits):
    value = length = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        value |= b << length
        length += 1
    return BitString(length, value)


def lex_key_ref(x):
    key = 0
    for i in range(x.length):
        key = (key << 1) | ((x.to_int() >> i) & 1)
    return key


wide_bitstrings = st.integers(0, 200).flatmap(
    lambda n: st.integers(0, (1 << n) - 1).map(lambda v: BitString(n, v)))


class TestLinearDisplay:
    @given(wide_bitstrings)
    def test_matches_reference(self, x):
        text = to_str_ref(x)
        assert x.to_str() == text
        assert list(x) == iter_ref(x)
        assert x.lex_key() == lex_key_ref(x)
        assert BitString.from_str(text) == x
        assert BitString.from_bits(iter_ref(x)) == from_bits_ref(iter_ref(x)) == x

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 65, 1000])
    def test_edges(self, n):
        for x in (BitString.zeros(n), BitString.ones(n), BitString.random(n, random.Random(n))):
            assert x.to_str() == to_str_ref(x)
            assert len(x.to_str()) == n
            assert list(x) == iter_ref(x)
            assert x.lex_key() == lex_key_ref(x)
            assert BitString.from_str(x.to_str()) == x
            assert BitString.from_bits(iter(x)) == x

    def test_empty(self):
        # format(0, "00b") is "0", so length 0 needs its own case
        empty = BitString.zeros(0)
        assert empty.to_str() == ""
        assert list(empty) == []
        assert empty.lex_key() == 0
        assert BitString.from_str("") == empty
        assert BitString.from_bits([]) == empty
        assert repr(empty) == "BitString('')"

    @pytest.mark.parametrize("text", ["1_0", " 1", "1 ", "0b1", "-1", "+1", "2", "10\n",
                                      "١", "ab", "0x1"])
    def test_from_str_rejects_non_binary(self, text):
        # int(text, 2) would accept several of these or read them differently
        with pytest.raises(ValueError):
            BitString.from_str(text)

    def test_from_bits_accepts_bools_and_rejects_others(self):
        assert BitString.from_bits([True, False, True]) == BitString.from_str("101")
        for bad in ([0, 2], [-1], [1, 0, 3]):
            with pytest.raises(ValueError):
                BitString.from_bits(bad)
            with pytest.raises(ValueError):
                from_bits_ref(bad)

    def test_iter_yields_ints(self):
        assert all(type(b) is int for b in BitString.from_str("0110"))
        assert sum(BitString.ones(300)) == 300

    def test_lex_key_orders_wide_strings_like_text(self):
        rng = random.Random(5)
        xs = [BitString.random(200, rng) for _ in range(50)]
        assert sorted(xs, key=BitString.lex_key) == sorted(xs, key=BitString.to_str)
