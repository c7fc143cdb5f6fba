import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsme.bits import BitString, IndexSet
from bsme.commit import CommitMessage, Committer, OpenMessage, Verifier
from bsme.infomath import derive_commit_params, floor_tol
from bsme.hashing import seed_length
from bsme.reasons import Reason, SetupAbort
from bsme.source import SourceConfig, generate


PARAMS = derive_commit_params(n=512, ell=8, alpha=1.0, gamma=0.25,
                              delta=0.0, zeta=0.05)
NOISY = derive_commit_params(n=512, ell=8, alpha=1.0, gamma=0.1,
                             delta=0.02, zeta=0.05)


def run(params, seed, value=None, noisy=False):
    """One full honest session; returns (result, committer, verifier, opening)."""
    rng_c = random.Random(f"{seed}:c")
    rng_v = random.Random(f"{seed}:v")
    pair = generate(SourceConfig(n=params.n, alpha=params.alpha,
                                 delta=params.delta if noisy else 0.0,
                                 seed=f"{seed}:src"))
    if value is None:
        value = BitString.random(params.m, random.Random(f"{seed}:val"))
    com = Committer(params, value, rng_c)
    ver = Verifier(params, rng_v)
    com.transmit(pair)
    ver.transmit(pair)
    g = ver.choose_hash()
    ver.receive_commitment(com.make_commitment(g))
    opening = com.open()
    return ver.verify(opening), com, ver, opening


class TestHonest:
    def test_accepts_noiseless(self):
        res, _, _, opening = run(PARAMS, 1)
        assert res.accept and res.reason is Reason.OK
        assert opening.value.length == PARAMS.m

    def test_accepts_noisy(self):
        # An honest session at the noisy point may fail, at a few percent of
        # seeds: the verifier refuses on distance exactly when the noise
        # inside the overlap exceeds its tolerance, and accepts otherwise.
        accepted = 0
        for seed in range(8):
            res, com, ver, _ = run(NOISY, seed, noisy=True)
            pair = generate(SourceConfig(n=NOISY.n, alpha=NOISY.alpha, delta=NOISY.delta,
                                         seed=f"{seed}:src"))
            errors = IndexSet.from_mask(pair.x ^ pair.x_tilde)
            overlap = com.a.intersect(ver.b)
            noise = len(overlap.intersect(errors))
            if noise > floor_tol((NOISY.delta + NOISY.zeta) * len(overlap)):
                assert res.reason is Reason.DISTANCE_EXCEEDED, f"seed {seed}: {res.reason}"
            else:
                assert res.accept, f"seed {seed}: {res.reason}"
                accepted += 1
        assert accepted >= 4

    @given(st.integers(0, 2**16))
    def test_accepts_any_seed(self, seed):
        res, _, _, _ = run(PARAMS, seed)
        assert res.accept

    def test_value_roundtrips(self):
        value = BitString(PARAMS.m, 0b101 % (1 << PARAMS.m))
        res, _, _, opening = run(PARAMS, 3, value=value)
        assert res.accept
        assert opening.value == value


def session_until_open(params, seed):
    rng_c = random.Random(f"{seed}:c")
    rng_v = random.Random(f"{seed}:v")
    pair = generate(SourceConfig(n=params.n, alpha=params.alpha, seed=f"{seed}:src"))
    value = BitString.random(params.m, random.Random(f"{seed}:val"))
    com = Committer(params, value, rng_c)
    ver = Verifier(params, rng_v)
    com.transmit(pair)
    ver.transmit(pair)
    g = ver.choose_hash()
    msg = com.make_commitment(g)
    opening = com.open()
    return com, ver, msg, opening


class TestRejection:
    def test_small_intersection(self):
        # replace A by a set guaranteed to overlap B in fewer than ell spots
        com, ver, msg, opening = session_until_open(PARAMS, 7)
        outside = [i for i in range(PARAMS.n) if i not in ver.b]
        crafted_positions = sorted(outside[: PARAMS.k - 2] + list(ver.b.indices[:2]))
        crafted = IndexSet(PARAMS.n, crafted_positions)
        assert len(crafted) == PARAMS.k
        tampered = CommitMessage(masked=msg.masked, digest=msg.digest,
                                 a=crafted, u=msg.u)
        ver.receive_commitment(tampered)
        res = ver.verify(opening)
        assert not res.accept and res.reason is Reason.SMALL_INTERSECTION

    def test_distance_exceeded(self):
        # flip enough opened bits inside the overlap to clear the tolerance
        com, ver, msg, opening = session_until_open(NOISY, 8)
        overlap = msg.a.intersect(ver.b)
        rel = overlap.positions_within(msg.a)
        budget = floor_tol((NOISY.delta + NOISY.zeta) * len(overlap))
        w = opening.w
        for pos in rel.indices[: budget + 1]:
            w = w.flip(pos)
        ver.receive_commitment(msg)
        res = ver.verify(OpenMessage(value=opening.value, w=w))
        assert not res.accept and res.reason is Reason.DISTANCE_EXCEEDED

    def test_digest_mismatch(self):
        # flip a bit outside the overlap: distance check passes, digest breaks
        com, ver, msg, opening = session_until_open(PARAMS, 9)
        overlap = msg.a.intersect(ver.b)
        rel = set(overlap.positions_within(msg.a).indices)
        outside = next(i for i in range(PARAMS.k) if i not in rel)
        w = opening.w.flip(outside)
        assert ver.hash(w) != msg.digest, "hash must separate this flip"
        ver.receive_commitment(msg)
        res = ver.verify(OpenMessage(value=opening.value, w=w))
        assert not res.accept and res.reason is Reason.DIGEST_MISMATCH

    def test_value_mismatch(self):
        # claim a different value with the true W: only the last check fails
        com, ver, msg, opening = session_until_open(PARAMS, 10)
        ver.receive_commitment(msg)
        res = ver.verify(OpenMessage(value=opening.value.flip(0), w=opening.w))
        assert not res.accept and res.reason is Reason.VALUE_MISMATCH

    def test_malformed_shapes(self):
        com, ver, msg, opening = session_until_open(PARAMS, 11)
        ver.receive_commitment(msg)
        res = ver.verify(OpenMessage(value=opening.value,
                                     w=BitString.zeros(PARAMS.k - 1)))
        assert not res.accept and res.reason is Reason.MALFORMED_MESSAGE

    def test_malformed_commitment_sticks(self):
        com, ver, msg, opening = session_until_open(PARAMS, 12)
        bad = CommitMessage(masked=msg.masked, digest=msg.digest,
                            a=msg.a, u=BitString.zeros(3))
        ver.receive_commitment(bad)
        res = ver.verify(opening)
        assert not res.accept and res.reason is Reason.MALFORMED_MESSAGE

    def test_check_order_distance_before_digest(self):
        # a flip inside the overlap beyond tolerance also breaks the digest;
        # the distance reason must win
        com, ver, msg, opening = session_until_open(PARAMS, 13)
        overlap = msg.a.intersect(ver.b)
        rel = overlap.positions_within(msg.a)
        budget = floor_tol((PARAMS.delta + PARAMS.zeta) * len(overlap))
        w = opening.w
        for pos in rel.indices[: budget + 1]:
            w = w.flip(pos)
        assert ver.hash(w) != msg.digest
        ver.receive_commitment(msg)
        res = ver.verify(OpenMessage(value=opening.value, w=w))
        assert res.reason is Reason.DISTANCE_EXCEEDED


class TestStateMachine:
    def test_phases_enforced(self):
        rng = random.Random(0)
        pair = generate(SourceConfig(n=PARAMS.n, seed=0))
        com = Committer(PARAMS, BitString.zeros(PARAMS.m), rng)
        with pytest.raises(RuntimeError):
            com.open()
        com.transmit(pair)
        with pytest.raises(RuntimeError):
            com.transmit(pair)
        ver = Verifier(PARAMS, rng)
        ver.transmit(pair)
        g = ver.choose_hash()
        with pytest.raises(RuntimeError):
            ver.choose_hash()
        msg = com.make_commitment(g)
        with pytest.raises(RuntimeError):
            com.make_commitment(g)
        ver.receive_commitment(msg)
        ver.verify(com.open())
        with pytest.raises(RuntimeError):
            ver.verify(OpenMessage(value=BitString.zeros(PARAMS.m),
                                   w=BitString.zeros(PARAMS.k)))

    def test_value_length_checked(self):
        with pytest.raises(ValueError):
            Committer(PARAMS, BitString.zeros(PARAMS.m + 1), random.Random(0))

    def test_hash_dimensions_checked(self):
        rng = random.Random(0)
        pair = generate(SourceConfig(n=PARAMS.n, seed=0))
        for extra in (-1, 1):
            com = Committer(PARAMS, BitString.zeros(PARAMS.m), rng)
            com.transmit(pair)
            bad = BitString.random(seed_length(PARAMS.k, PARAMS.digest_len) + extra, rng)
            with pytest.raises(SetupAbort) as info:
                com.make_commitment(bad)
            assert info.value.reason is Reason.MALFORMED_MESSAGE

    def test_verify_requires_hash(self):
        rng = random.Random(0)
        pair = generate(SourceConfig(n=PARAMS.n, seed=0))
        com = Committer(PARAMS, BitString.zeros(PARAMS.m), rng)
        ver = Verifier(PARAMS, rng)
        com.transmit(pair)
        ver.transmit(pair)
        # the verifier never ran choose_hash, so it takes no commitment
        diag = BitString.random(seed_length(PARAMS.k, PARAMS.digest_len), rng)
        msg = com.make_commitment(diag)
        with pytest.raises(RuntimeError):
            ver.receive_commitment(msg)
