import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsme.bits import BitString, IndexSet
from bsme.codes import LinearCode
from bsme.infomath import derive_ot_params
from bsme.ot import OTReceiver, OTSender, SetupAbort, TransferPayload
from bsme.reasons import Reason
from bsme.source import SourceConfig, generate

PARAMS = derive_ot_params(n=1024, ell=14, code=LinearCode.hamming_7_4(),
                          delta=0.01)
CLEAN = derive_ot_params(n=1024, ell=8, code=LinearCode.trivial(1),
                         delta=0.0, xi=0.0)


def run_session(params, seed, choice, secrets=None, noisy=True, w_strategy=None):
    rng_s = random.Random(f"{seed}:s")
    rng_r = random.Random(f"{seed}:r")
    pair = generate(SourceConfig(n=params.n, alpha=params.alpha,
                                 delta=params.delta if noisy else 0.0,
                                 seed=f"{seed}:src"))
    if secrets is None:
        rng_i = random.Random(f"{seed}:i")
        secrets = (BitString.random(params.payload_len, rng_i),
                   BitString.random(params.payload_len, rng_i))
    sender = OTSender(params, secrets[0], secrets[1], rng_s)
    receiver = OTReceiver(params, choice, rng_r, w_strategy=w_strategy)
    sender.transmit(pair)
    receiver.transmit(pair)
    receiver.receive_positions(sender.begin_setup())
    while not sender.querier.finished:
        sender.take_response(receiver.respond(sender.next_query()))
    sender.finish_setup()
    e = receiver.finish_setup()
    payload = sender.transfer(e)
    got = receiver.receive_payload(payload)
    return got, secrets, sender, receiver, payload


class TestHonest:
    @pytest.mark.parametrize("choice", [0, 1])
    def test_receiver_gets_chosen_secret(self, choice):
        hits = 0
        for seed in range(12):
            try:
                got, secrets, _, _, _ = run_session(PARAMS, seed, choice)
            except SetupAbort:
                continue
            if got == secrets[choice]:
                hits += 1
        assert hits >= 10

    def test_round_count_matches_encoding_length(self):
        assert PARAMS.m == 2 * PARAMS.ell * math.ceil(math.log2(PARAMS.k))
        got, _, sender, _, _ = run_session(PARAMS, 3, 0)
        assert sender.querier.rounds_done == PARAMS.m - 1

    def test_noise_free_code(self):
        got, secrets, _, _, _ = run_session(CLEAN, 5, 1, noisy=False)
        assert got == secrets[1]

    def test_same_seed_choices_differ_only_in_routing(self):
        # both runs share every coin; only e and hence the z pairing move
        got0, secrets, _, r0, pay0 = run_session(PARAMS, 9, 0)
        got1, secrets1, _, r1, pay1 = run_session(PARAMS, 9, 1)
        assert secrets == secrets1
        assert got0 == secrets[0] and got1 == secrets[1]
        assert r0._d == r1._d
        assert r0._e != r1._e

    def test_candidate_subsets_cover_receiver_choice(self):
        got, _, sender, receiver, _ = run_session(PARAMS, 11, 0)
        cands = tuple(sender.a.select(c) for c in sender._c_rel)
        assert receiver.c_abs in cands
        assert cands[receiver._d] == receiver.c_abs


class TestAborts:
    def test_small_intersection(self):
        params = PARAMS
        rng = random.Random(0)
        pair = generate(SourceConfig(n=params.n, seed=0))
        receiver = OTReceiver(params, 0, rng)
        receiver.transmit(pair)
        # an A disjoint from B except for ell-1 positions
        outside = [i for i in range(params.n) if i not in receiver.b]
        crafted = IndexSet(params.n, sorted(
            outside[: params.k - (params.ell - 1)]
            + list(receiver.b.indices[: params.ell - 1])))
        with pytest.raises(SetupAbort) as info:
            receiver.receive_positions(crafted)
        assert info.value.reason is Reason.SMALL_INTERSECTION

    def test_malformed_positions(self):
        rng = random.Random(1)
        pair = generate(SourceConfig(n=PARAMS.n, seed=1))
        receiver = OTReceiver(PARAMS, 0, rng)
        receiver.transmit(pair)
        with pytest.raises(SetupAbort) as info:
            receiver.receive_positions(IndexSet(PARAMS.n, range(PARAMS.k - 1)))
        assert info.value.reason is Reason.MALFORMED_MESSAGE

    def test_invalid_encoding_via_w_strategy(self):
        # force W into the rejected tail of the dense encoding
        def bad_w(dense, overlap_rel, rng):
            return BitString(dense.m, (1 << dense.m) - 1)

        with pytest.raises(SetupAbort) as info:
            run_session(PARAMS, 21, 0, w_strategy=bad_w)
        assert info.value.reason is Reason.INVALID_ENCODING

    def test_malformed_payload(self):
        got, secrets, sender, receiver, payload = run_session(PARAMS, 23, 0)
        # rebuild a fresh receiver mid-protocol to re-feed a bad payload
        _, _, _, receiver2, payload2 = run_session(PARAMS, 24, 0)
        receiver2._phase = "setup-done"
        bad = TransferPayload(
            z0=BitString.zeros(PARAMS.payload_len + 1), r0=payload2.r0, p0=payload2.p0,
            z1=BitString.zeros(PARAMS.payload_len + 1), r1=payload2.r1, p1=payload2.p1,
        )
        with pytest.raises(SetupAbort) as info:
            receiver2.receive_payload(bad)
        assert info.value.reason is Reason.MALFORMED_MESSAGE

    def test_decode_failure_returns_none(self):
        # radius-0 blocks: any single flip in a block is a detected failure
        params = derive_ot_params(n=1024, ell=16, code=LinearCode.repetition(2),
                                  delta=0.0, xi=0.0)
        got, secrets, sender, receiver, payload = run_session(params, 31, 0, noisy=False)
        assert got == secrets[0]

        _, _, _, receiver2, payload2 = run_session(params, 31, 0, noisy=False)
        receiver2._phase = "setup-done"
        c_in_b = receiver2.c_abs.positions_within(receiver2.b)
        receiver2._xt_b = receiver2._xt_b.flip(c_in_b.indices[0])
        assert receiver2.receive_payload(payload2) is None


class TestValidation:
    def test_secret_lengths(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            OTSender(PARAMS, BitString.zeros(PARAMS.payload_len + 1),
                     BitString.zeros(PARAMS.payload_len), rng)

    def test_choice_is_bit(self):
        with pytest.raises(ValueError):
            OTReceiver(PARAMS, 2, random.Random(0))

    def test_transfer_e_is_bit(self):
        got, _, sender, _, _ = run_session(PARAMS, 41, 0)
        sender._phase = "setup-done"
        with pytest.raises(ValueError):
            sender.transfer(2)

    def test_phase_enforced(self):
        rng = random.Random(0)
        sender = OTSender(PARAMS, BitString.zeros(PARAMS.payload_len),
                          BitString.zeros(PARAMS.payload_len), rng)
        with pytest.raises(RuntimeError):
            sender.begin_setup()
