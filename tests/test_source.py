import hashlib
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsme.bits import BitString, IndexSet
from bsme.source import (
    BoundedMemory,
    SourceConfig,
    adversary_store,
    generate,
    sample_positions,
    source_word,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SourceConfig(n=-1)
        with pytest.raises(ValueError):
            SourceConfig(n=8, alpha=1.5)
        with pytest.raises(ValueError):
            SourceConfig(n=8, delta=-0.1)
        with pytest.raises(ValueError):
            SourceConfig(n=8, error_model="gaussian")
        with pytest.raises(ValueError):
            SourceConfig(n=8, error_model="adversarial-callback")


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate(SourceConfig(n=64, delta=0.1, seed="run:7"))
        b = generate(SourceConfig(n=64, delta=0.1, seed="run:7"))
        c = generate(SourceConfig(n=64, delta=0.1, seed="run:8"))
        assert a.x == b.x and a.x_tilde == b.x_tilde
        assert a.x != c.x

    @given(st.integers(1, 96), st.floats(0.0, 1.0), st.integers(0, 2**16))
    def test_support_size_and_zeros(self, n, alpha, seed):
        pair = generate(SourceConfig(n=n, alpha=alpha, seed=seed))
        assert len(pair.entropy_positions) == math.ceil(alpha * n)
        support = set(pair.entropy_positions)
        assert all(pair.x.bit(i) == 0 for i in range(n) if i not in support)

    @given(st.integers(1, 96), st.floats(0.0, 0.5), st.integers(0, 2**16))
    def test_error_count_exact(self, n, delta, seed):
        pair = generate(SourceConfig(n=n, delta=delta, seed=seed))
        expected = math.floor(delta * n + 1e-9)
        assert pair.x.hamming(pair.x_tilde) == expected
        assert len(pair.error_positions) == expected

    def test_burst_is_contiguous_mod_n(self):
        pair = generate(SourceConfig(n=40, delta=0.2, error_model="burst", seed=3))
        idx = pair.error_positions.indices
        assert len(idx) == 8
        # some rotation of the index list is consecutive
        gaps = [(b - a) % 40 for a, b in zip(idx, idx[1:] + idx[:1])]
        assert sorted(gaps) == [1] * 7 + [33]

    def test_burst_zero_errors(self):
        pair = generate(SourceConfig(n=16, delta=0.0, error_model="burst", seed=0))
        assert pair.x == pair.x_tilde

    def test_callback_positions_applied(self):
        pair = generate(SourceConfig(
            n=16, delta=0.25, error_model="adversarial-callback", seed=1,
            error_callback=lambda x, budget: [0, 5, 9],
        ))
        assert pair.error_positions == IndexSet(16, (0, 5, 9))
        assert not pair.clamped
        assert pair.x_tilde == pair.x ^ IndexSet(16, (0, 5, 9)).to_mask()

    def test_callback_dedup_then_clamp(self):
        # duplicates collapse first; only then does the budget truncate
        pair = generate(SourceConfig(
            n=16, delta=0.25, error_model="adversarial-callback", seed=1,
            error_callback=lambda x, budget: [3, 3, 1, 1, 7, 12, 9],
        ))
        assert pair.clamped
        assert pair.error_positions == IndexSet.from_iterable(16, (3, 1, 7, 12))

    def test_callback_sees_clean_word(self):
        seen = {}
        generate(SourceConfig(
            n=16, delta=0.125, error_model="adversarial-callback", seed=5,
            error_callback=lambda x, budget: seen.update(x=x, budget=budget) or [0],
        ))
        clean = generate(SourceConfig(n=16, delta=0.0, seed=5))
        assert seen["budget"] == 2
        assert seen["x"] == clean.x

    def test_pair_length_check(self):
        with pytest.raises(ValueError):
            from bsme.source import SourcePair
            SourcePair(
                x=BitString.zeros(4), x_tilde=BitString.zeros(5),
                entropy_positions=IndexSet.full(4),
                error_positions=IndexSet(4),
            )


class TestHelpers:
    def test_sample_positions_bounds(self):
        rng = random.Random(0)
        assert len(sample_positions(10, 10, rng)) == 10
        assert len(sample_positions(10, 0, rng)) == 0
        with pytest.raises(ValueError):
            sample_positions(5, 6, rng)

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


class TestAdversaryStore:
    def test_prefix(self):
        x = BitString.from_str("10110010")
        mem = adversary_store(x, "prefix", budget=3)
        assert mem.positions == IndexSet(8, (0, 1, 2))
        assert mem.stored == BitString.from_str("101")
        assert not mem.truncated

    def test_prefix_budget_exceeds_n(self):
        x = BitString.from_str("1011")
        mem = adversary_store(x, "prefix", budget=10)
        assert mem.stored == x

    def test_random_needs_rng(self):
        x = BitString.zeros(8)
        with pytest.raises(ValueError):
            adversary_store(x, "random", budget=2)
        mem = adversary_store(x, "random", budget=2, rng=random.Random(9))
        assert len(mem.positions) == 2

    def test_positions_strategy_and_truncation(self):
        x = BitString.from_str("11001010")
        chosen = IndexSet(8, (1, 3, 6))
        mem = adversary_store(x, "positions", budget=3, positions=chosen)
        assert mem.positions == chosen and not mem.truncated
        cut = adversary_store(x, "positions", budget=2, positions=chosen)
        assert cut.truncated
        assert cut.positions == IndexSet(8, (1, 3))
        with pytest.raises(ValueError):
            adversary_store(x, "positions", budget=3)
        with pytest.raises(ValueError):
            adversary_store(x, "positions", budget=3, positions=IndexSet(9, (1,)))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            adversary_store(BitString.zeros(4), "everything", budget=4)

    def test_budget_enforced_by_dataclass(self):
        with pytest.raises(ValueError):
            BoundedMemory(
                budget=1, stored=BitString.zeros(2), descriptor="x",
                positions=IndexSet(4, (0, 1)),
            )
        with pytest.raises(ValueError):
            BoundedMemory(
                budget=4, stored=BitString.zeros(2), descriptor="x",
                positions=IndexSet(4, (0,)),
            )


class TestDumpLoad:
    # a pair is dumped and loaded as its two views packed to bytes
    def test_roundtrip_views(self):
        # both views survive byte packing, and their difference is the error set
        pair = generate(SourceConfig(n=37, alpha=0.8, delta=0.1, seed=12))
        for view in (pair.x, pair.x_tilde):
            assert BitString.from_bytes(view.to_bytes(), 37) == view
        assert IndexSet.from_mask(pair.x ^ pair.x_tilde) == pair.error_positions

    def test_load_rejects_bad_lengths(self):
        pair = generate(SourceConfig(n=16, seed=0))
        data = pair.x_tilde.to_bytes()
        with pytest.raises(ValueError):
            BitString.from_bytes(b"\x00" * 7, 16)
        with pytest.raises(ValueError):
            BitString.from_bytes(data + b"\x00", 16)
        with pytest.raises(ValueError):
            BitString.from_bytes(data[:-1], 16)


# Per-bit reference versions of the source draws, kept only here to check
# the bulk ones against, output and generator state both.

def source_word_ref(support: IndexSet, rng: random.Random) -> BitString:
    value = 0
    for pos in support:
        if rng.getrandbits(1):
            value |= 1 << pos
    return BitString(support.ground, value)


def sample_positions_ref(n: int, k: int, rng: random.Random) -> IndexSet:
    return IndexSet(n, sorted(rng.sample(range(n), k)))


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
        for support in (IndexSet.full(n), IndexSet(n)):
            fast, ref = random.Random(n), random.Random(n)
            assert source_word(support, fast) == source_word_ref(support, ref)
            assert fast.getstate() == ref.getstate()

    @given(st.integers(0, 300), st.data())
    def test_sample_positions_matches_reference(self, n, data):
        k = data.draw(st.one_of(st.just(n), st.integers(0, n)))
        seed = data.draw(st.integers(0, 2**32))
        fast, ref = random.Random(seed), random.Random(seed)
        assert sample_positions(n, k, fast) == sample_positions_ref(n, k, ref)
        assert fast.getstate() == ref.getstate()


def stream_digest(n: int, alpha: float, delta: float, model: str) -> str:
    h = hashlib.sha256()
    for seed in range(3):
        pair = generate(SourceConfig(n=n, alpha=alpha, delta=delta, error_model=model, seed=seed))
        for part in (pair.x, pair.x_tilde):
            h.update(part.length.to_bytes(8, "little") + part.to_bytes())
        for pos in (pair.entropy_positions, pair.error_positions):
            h.update(repr(pos.indices).encode())
    return h.hexdigest()


# SHA-256 of generate's (x, x_tilde, entropy positions, error positions) for
# seeds 0-2, taken from the per-bit implementation.  Any change to how the
# generator is consumed changes these, and with them every seeded session.
FROZEN_STREAMS = [
    (65536, 1.0, 0.02, "random",
     "45a0070505e6c8945535ecda3fcaea7405edf85e1440d1661ea7f8008e524fd8"),
    (1000, 0.3, 0.1, "random",
     "2e785aa493c1bd378bf3fce1c73642a9a7dbb24079c154f5aaf841cb7fe8f583"),
    (4096, 1.0, 0.01, "burst",
     "140caf78c125ead7c3d6631f7c53909694725e97092b1967e7e93b3cd505c1b1"),
]


@pytest.mark.parametrize("n, alpha, delta, model, digest", FROZEN_STREAMS)
def test_source_stream_is_frozen(n, alpha, delta, model, digest):
    assert stream_digest(n, alpha, delta, model) == digest
