import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _sessions import commit_session

from bsme.bits import BitString, IndexSet
from bsme.commit import CommitMessage, Committer, OpenMessage
from bsme.infomath import derive_commit_params, floor_tol
from bsme.hashing import seed_length
from bsme.reasons import Reason, SetupAbort
from bsme.source import SourceConfig, generate


PARAMS = derive_commit_params(n=512, ell=8, alpha=1.0, gamma=0.25,
                              delta=0.0, zeta=0.05)
NOISY = derive_commit_params(n=512, ell=8, alpha=1.0, gamma=0.1,
                             delta=0.02, zeta=0.05)


class TestHonest:
    def test_accepts_noiseless(self):
        run = commit_session(PARAMS, 1)
        assert run.accepted and run.reason is Reason.OK
        assert run.opening.value.length == PARAMS.m

    def test_accepts_noisy(self):
        # An honest session at the noisy point may fail, at a few percent of
        # seeds: the verifier refuses on distance exactly when the noise
        # inside the overlap exceeds its tolerance, and accepts otherwise.
        accepted = 0
        for seed in range(8):
            run = commit_session(NOISY, seed)
            pair = generate(SourceConfig(n=NOISY.n, alpha=NOISY.alpha, delta=NOISY.delta,
                                         seed=f"{seed}:src"))
            errors = IndexSet.from_mask(pair.x ^ pair.x_tilde)
            overlap = run.com.a.intersect(run.ver.b)
            noise = len(overlap.intersect(errors))
            if noise > floor_tol((NOISY.delta + NOISY.zeta) * len(overlap)):
                assert run.reason is Reason.DISTANCE_EXCEEDED, f"seed {seed}: {run.reason}"
            else:
                assert run.accepted, f"seed {seed}: {run.reason}"
                accepted += 1
        assert accepted >= 4

    @given(st.integers(0, 2**16))
    def test_accepts_any_seed(self, seed):
        assert commit_session(PARAMS, seed).accepted

    def test_value_roundtrips(self):
        value = BitString(PARAMS.m, 0b101 % (1 << PARAMS.m))
        run = commit_session(PARAMS, 3, value=value)
        assert run.accepted
        assert run.opening.value == value


def flip_overlap_beyond_tolerance(params):
    """An opening edit that flips one more opened bit inside the overlap
    than the distance check tolerates."""
    def edit(opening, run):
        overlap = run.commitment.a.intersect(run.ver.b)
        rel = overlap.positions_within(run.commitment.a)
        budget = floor_tol((params.delta + params.zeta) * len(overlap))
        w = opening.w
        for pos in rel.indices[: budget + 1]:
            w = w.flip(pos)
        return OpenMessage(value=opening.value, w=w)
    return edit


class TestRejection:
    def test_small_intersection(self):
        # replace A by a set guaranteed to overlap B in fewer than ell spots
        def cross(msg, run):
            outside = [i for i in range(PARAMS.n) if i not in run.ver.b]
            crafted_positions = sorted(outside[: PARAMS.k - 2] + list(run.ver.b.indices[:2]))
            crafted = IndexSet(PARAMS.n, crafted_positions)
            assert len(crafted) == PARAMS.k
            return CommitMessage(masked=msg.masked, digest=msg.digest, a=crafted, u=msg.u)

        run = commit_session(PARAMS, 7, edit_commitment=cross)
        assert not run.accepted and run.reason is Reason.SMALL_INTERSECTION

    def test_distance_exceeded(self):
        # flip enough opened bits inside the overlap to clear the tolerance
        run = commit_session(NOISY, 8, noisy=False,
                             edit_opening=flip_overlap_beyond_tolerance(NOISY))
        assert not run.accepted and run.reason is Reason.DISTANCE_EXCEEDED

    def test_digest_mismatch(self):
        # flip a bit outside the overlap: distance check passes, digest breaks
        def flip_outside(opening, run):
            overlap = run.commitment.a.intersect(run.ver.b)
            rel = set(overlap.positions_within(run.commitment.a).indices)
            outside = next(i for i in range(PARAMS.k) if i not in rel)
            w = opening.w.flip(outside)
            assert run.ver.hash(w) != run.commitment.digest, "hash must separate this flip"
            return OpenMessage(value=opening.value, w=w)

        run = commit_session(PARAMS, 9, edit_opening=flip_outside)
        assert not run.accepted and run.reason is Reason.DIGEST_MISMATCH

    def test_value_mismatch(self):
        # claim a different value with the true W: only the last check fails
        def claim_other(opening, run):
            return OpenMessage(value=opening.value.flip(0), w=opening.w)

        run = commit_session(PARAMS, 10, edit_opening=claim_other)
        assert not run.accepted and run.reason is Reason.VALUE_MISMATCH

    def test_malformed_shapes(self):
        def short_w(opening, run):
            return OpenMessage(value=opening.value, w=BitString.zeros(PARAMS.k - 1))

        run = commit_session(PARAMS, 11, edit_opening=short_w)
        assert not run.accepted and run.reason is Reason.MALFORMED_MESSAGE

    def test_malformed_commitment_sticks(self):
        def short_u(msg, run):
            return CommitMessage(masked=msg.masked, digest=msg.digest,
                                 a=msg.a, u=BitString.zeros(3))

        run = commit_session(PARAMS, 12, edit_commitment=short_u)
        assert not run.accepted and run.reason is Reason.MALFORMED_MESSAGE

    def test_check_order_distance_before_digest(self):
        # a flip inside the overlap beyond tolerance also breaks the digest;
        # the distance reason must win
        flip = flip_overlap_beyond_tolerance(PARAMS)

        def flip_and_check_digest(opening, run):
            edited = flip(opening, run)
            assert run.ver.hash(edited.w) != run.commitment.digest
            return edited

        run = commit_session(PARAMS, 13, edit_opening=flip_and_check_digest)
        assert run.reason is Reason.DISTANCE_EXCEEDED


class TestStateMachine:
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
