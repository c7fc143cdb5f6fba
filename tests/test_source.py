import hashlib
import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsme.bits import BitString, IndexSet
from bsme.infomath import ceil_tol, floor_tol
from bsme.source import SourceConfig, SourcePair, generate, sample_positions, source_word


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SourceConfig(n=-1)
        with pytest.raises(ValueError):
            SourceConfig(n=8, alpha=1.5)
        with pytest.raises(ValueError):
            SourceConfig(n=8, delta=-0.1)


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate(SourceConfig(n=64, delta=0.1, seed="run:7"))
        b = generate(SourceConfig(n=64, delta=0.1, seed="run:7"))
        c = generate(SourceConfig(n=64, delta=0.1, seed="run:8"))
        assert a.x == b.x and a.x_tilde == b.x_tilde
        assert a.x != c.x

    @given(st.integers(1, 96), st.floats(0.0, 1.0), st.integers(0, 2**16))
    def test_support_size_and_zeros(self, n, alpha, seed):
        # the support is the first draw of the seed's generator
        pair = generate(SourceConfig(n=n, alpha=alpha, seed=seed))
        support = sample_positions(n, ceil_tol(alpha * n), random.Random(seed))
        assert len(support) == ceil_tol(alpha * n)
        assert all(pair.x.bit(i) == 0 for i in range(n) if i not in support)

    def test_float_dust_adds_no_support_position(self):
        # 0.07 * 100 == 7.000000000000001, yet the support keeps 7 positions
        pair = generate(SourceConfig(n=100, alpha=0.07, seed=0))
        rng = random.Random(0)
        assert pair.x == source_word_ref(sample_positions_ref(100, 7, rng), rng)

    @given(st.integers(1, 96), st.floats(0.0, 0.5), st.integers(0, 2**16))
    def test_error_count_exact(self, n, delta, seed):
        pair = generate(SourceConfig(n=n, delta=delta, seed=seed))
        expected = math.floor(delta * n + 1e-9)
        assert pair.x.hamming(pair.x_tilde) == expected
        assert len(IndexSet.from_mask(pair.x ^ pair.x_tilde)) == expected

    def test_full_support_peak_memory(self):
        # Only the two views are built: a tuple of the n positions alone
        # would take 8 bytes per position.
        n = 2**18
        tracemalloc.start()
        try:
            generate(SourceConfig(n=n, alpha=1.0, delta=0.02, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n

    def test_pair_length_check(self):
        with pytest.raises(ValueError):
            SourcePair(x=BitString.zeros(4), x_tilde=BitString.zeros(5))


class TestHelpers:
    def test_sample_positions_bounds(self):
        rng = random.Random(0)
        assert len(sample_positions(10, 10, rng)) == 10
        assert len(sample_positions(10, 0, rng)) == 0
        with pytest.raises(ValueError):
            sample_positions(5, 6, rng)

    def test_complement_branch_equally_likely(self):
        # k=3 > n/2 draws the 2 positions left out; every 3-subset of 5 must
        # still come up with chance 1/10
        n, k, draws = 5, 3, 20_000
        rng = random.Random(13)
        counts = Counter(sample_positions(n, k, rng).indices for _ in range(draws))
        subsets = list(itertools.combinations(range(n), k))
        assert set(counts) == set(subsets)
        p = 1 / len(subsets)
        half = 4.0 * math.sqrt(draws * p * (1.0 - p))
        for sub in subsets:
            assert abs(counts[sub] - draws * p) <= half, (sub, counts[sub])

    def test_source_word_support(self):
        rng = random.Random(1)
        support = IndexSet(12, (1, 4, 7))
        counts = set()
        for _ in range(32):
            w = source_word(support, rng)
            assert w.length == 12
            assert all(w.bit(i) == 0 for i in range(12) if i not in support)
            counts.add(w.to_int())
        assert len(counts) > 1


class TestDumpLoad:
    # a pair is dumped and loaded as its two views packed to bytes
    def test_roundtrip_views(self):
        # both views survive byte packing, and so does the error set they carry
        pair = generate(SourceConfig(n=37, alpha=0.8, delta=0.1, seed=12))
        loaded = [BitString.from_bytes(view.to_bytes(), 37) for view in (pair.x, pair.x_tilde)]
        assert loaded == [pair.x, pair.x_tilde]
        errors = IndexSet.from_mask(pair.x ^ pair.x_tilde)
        assert len(errors) == floor_tol(0.1 * 37)
        assert IndexSet.from_mask(loaded[0] ^ loaded[1]) == errors

    def test_load_rejects_bad_lengths(self):
        pair = generate(SourceConfig(n=16, seed=0))
        data = pair.x_tilde.to_bytes()
        with pytest.raises(ValueError):
            BitString.from_bytes(b"\x00" * 7, 16)
        with pytest.raises(ValueError):
            BitString.from_bytes(data + b"\x00", 16)
        with pytest.raises(ValueError):
            BitString.from_bytes(data[:-1], 16)


# Reference versions of the source draws, one generator word or one bit at a
# time, kept only here to check the bulk ones against, output and generator
# state both.

def uniform_subset_ref(n: int, k: int, rng: random.Random) -> set[int]:
    shift = 32 - (n - 1).bit_length()
    seen: set[int] = set()
    while len(seen) < k:
        words = [rng.getrandbits(32) for _ in range(k - len(seen))]
        seen.update(w >> shift for w in words if w >> shift < n)
    return seen


def sample_positions_ref(n: int, k: int, rng: random.Random) -> IndexSet:
    if k == n:
        return IndexSet(n, range(n))
    if 2 * k <= n:
        return IndexSet(n, sorted(uniform_subset_ref(n, k, rng)))
    left_out = uniform_subset_ref(n, n - k, rng)
    return IndexSet(n, [i for i in range(n) if i not in left_out])


def source_word_ref(support: IndexSet, rng: random.Random) -> BitString:
    drawn = rng.getrandbits(len(support))
    value = 0
    for j, pos in enumerate(support):
        if drawn >> j & 1:
            value |= 1 << pos
    return BitString(support.ground, value)


class TestStreamEquivalence:
    @given(st.integers(0, 300), st.floats(0.0, 1.0), st.integers(0, 2**32))
    def test_source_word_matches_reference(self, n, alpha, seed):
        # alpha < 1 gives a partial support, alpha = 1 a full one.
        support = sample_positions(n, math.ceil(alpha * n), random.Random(seed))
        fast, ref = random.Random(seed + 1), random.Random(seed + 1)
        assert source_word(support, fast) == source_word_ref(support, ref)
        assert fast.getstate() == ref.getstate()

    @pytest.mark.parametrize("n", [0, 1, 7, 31, 32, 33, 100, 1000])
    def test_source_word_full_and_empty_support(self, n):
        for support in (IndexSet(n, range(n)), IndexSet(n)):
            fast, ref = random.Random(n), random.Random(n)
            assert source_word(support, fast) == source_word_ref(support, ref)
            assert fast.getstate() == ref.getstate()
        # at full support the source word is the draw itself
        full = source_word(IndexSet(n, range(n)), random.Random(n))
        assert full.to_int() == random.Random(n).getrandbits(n)

    @given(st.integers(0, 300), st.data())
    def test_sample_positions_matches_reference(self, n, data):
        k = data.draw(st.one_of(st.just(n), st.integers(0, n)))
        seed = data.draw(st.integers(0, 2**32))
        fast, ref = random.Random(seed), random.Random(seed)
        assert sample_positions(n, k, fast) == sample_positions_ref(n, k, ref)
        assert fast.getstate() == ref.getstate()

    @pytest.mark.parametrize("n", [2, 4, 1000])
    def test_half_draws_the_values_kept(self, n):
        # k = n/2 could take either branch; the contract draws the k values
        fast, ref = random.Random(n), random.Random(n)
        kept = sorted(uniform_subset_ref(n, n // 2, ref))
        assert sample_positions(n, n // 2, fast) == IndexSet(n, kept)
        assert fast.getstate() == ref.getstate()


# Each side of every power-of-two boundary up to 2^17, and the commitment
# bench's n.
ADVANCE_SIZES = sorted(
    {m for b in range(1, 18) for m in ((1 << b) - 1, 1 << b, (1 << b) + 1)} | {65536}
)


class TestFullSupportAdvance:
    """At full support nothing is drawn: the full set takes no generator
    words, and every size past the sampler's word range is refused first."""

    @pytest.mark.parametrize("n", [0] + ADVANCE_SIZES)
    def test_state_matches_shuffle(self, n):
        # The full set is what any shuffle of range(n) sorts to, so the
        # shuffle is not drawn: the generator must stay where it was, after
        # no earlier draws or after a few.
        for seed in range(3):
            for prior in (0, 3):
                rng = random.Random(seed)
                for _ in range(prior):
                    rng.sample(range(50), 7)
                    rng.getrandbits(45)
                before = rng.getstate()
                assert sample_positions(n, n, rng) == IndexSet(n, range(n))
                assert rng.getstate() == before, (seed, prior)

    def test_guard_comes_before_any_draw(self, monkeypatch):
        class NoDraws(random.Random):
            def getrandbits(self, k):
                raise AssertionError("drew from the generator")

        def no_index_set(self, ground, indices=()):
            raise AssertionError("built an index set")

        monkeypatch.setattr(IndexSet, "__init__", no_index_set)
        for n in (1 << 32, (1 << 32) + 1, 1 << 40):
            for k in (0, 1, n // 2, n - 1, n):
                with pytest.raises(ValueError):
                    sample_positions(n, k, NoDraws(0))

    def test_refuses_n_past_word_range(self):
        with pytest.raises(ValueError):
            sample_positions(1 << 32, 1 << 32, random.Random(0))


def stream_digest(n: int, alpha: float, delta: float) -> str:
    h = hashlib.sha256()
    for seed in range(3):
        pair = generate(SourceConfig(n=n, alpha=alpha, delta=delta, seed=seed))
        for part in (pair.x, pair.x_tilde):
            h.update(part.length.to_bytes(8, "little") + part.to_bytes())
        # the positions generate drew, replayed through the references
        rng = random.Random(seed)
        support = sample_positions_ref(n, ceil_tol(alpha * n), rng)
        source_word_ref(support, rng)
        errors = sample_positions_ref(n, floor_tol(delta * n), rng)
        for pos in (support, errors):
            h.update(repr(pos.indices).encode())
    return h.hexdigest()


# SHA-256 of generate's (x, x_tilde) and the (entropy positions, error
# positions) replayed for them, for seeds 0-2, taken from the per-word and
# per-bit references above.  Any change to how the generator is consumed
# changes these, and with them every seeded session.  The rows cover the
# full support, a support drawn directly and one drawn as its complement.
FROZEN_STREAMS = [
    (65536, 1.0, 0.02,
     "dbb4abd2c6bace8ecad9b26756d24a04fd311df4ef3ac76f4b3e79a4d19b7731"),
    (1000, 0.3, 0.1,
     "93d25c10e02390aca71dfc659d03e3f63ec7ab1710d5b39c2b47d840bf797c67"),
    (4096, 0.75, 0.01,
     "acd735568e2079f4dcea4fd451d97b6395540460a75fbcce838a8b1f5812bd5b"),
]


# The ids leave out the digest, so that a deliberate stream change keeps them.
@pytest.mark.parametrize("n, alpha, delta, digest", FROZEN_STREAMS,
                         ids=[f"{n}-{alpha}-{delta}" for n, alpha, delta, _ in FROZEN_STREAMS])
def test_source_stream_is_frozen(n, alpha, delta, digest):
    assert stream_digest(n, alpha, delta) == digest
