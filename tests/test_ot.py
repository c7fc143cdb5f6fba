import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _sessions import ot_session

from bsme.app import framing, runner
from bsme.bits import BitString, IndexSet
from bsme.codes import LinearCode
from bsme.ihash import Respondent
from bsme.infomath import IH_SLACK, derive_ot_params
from bsme.ot import EBit, IHQuery, IHResponse, OTReceiver, OTSender, SetA, TransferPayload
from bsme.reasons import Reason, SetupAbort
from bsme.source import SourceConfig, generate

PARAMS = derive_ot_params(n=1024, ell=14, code=LinearCode.hamming_7_4(),
                          delta=0.01)
CLEAN = derive_ot_params(n=1024, ell=8, code=LinearCode.trivial(1),
                         delta=0.0, xi=0.0)


class TestHonest:
    @pytest.mark.parametrize("choice", [0, 1])
    def test_receiver_gets_chosen_secret(self, choice):
        hits = 0
        for seed in range(12):
            try:
                run = ot_session(PARAMS, seed, choice)
            except SetupAbort:
                continue
            if run.output == run.secrets[choice]:
                hits += 1
        assert hits >= 10

    def test_round_count_matches_encoding_length(self):
        assert PARAMS.m == (math.comb(PARAMS.k, PARAMS.ell) - 1).bit_length() + IH_SLACK
        out = runner.run_ot_session(PARAMS, seed=3)
        queries = [f for _, f in out.transcript if f[0] == framing.TAGS[IHQuery]]
        assert len(queries) == PARAMS.m - 1

    def test_c05_transfer_size(self):
        # m = 128 at n=4096, ell=14: 2m+2 frames, counted from the transcript
        c05 = derive_ot_params(n=4096, ell=14, code=LinearCode.hamming_7_4(), delta=0.01)
        out = runner.run_ot_session(c05, seed=0)
        assert out.reason is Reason.OK
        assert len(out.transcript) == 2 * c05.m + 2 == 258
        assert sum(len(frame) for _, frame in out.transcript) <= 5_100

    def test_noise_free_code(self):
        run = ot_session(CLEAN, 5, 1, noisy=False)
        assert run.output == run.secrets[1]

    def test_same_seed_choices_differ_only_in_routing(self):
        # both runs share every coin; only e and hence the z pairing move
        run0, run1 = ot_session(PARAMS, 9, 0), ot_session(PARAMS, 9, 1)
        secrets, pay0, pay1 = run0.secrets, run0.payload, run1.payload
        assert secrets == run1.secrets
        assert run0.output == secrets[0] and run1.output == secrets[1]
        assert run0.receiver._d == run1.receiver._d
        # same pads and seeds on each branch, secrets swapped between them
        assert (pay0.r0, pay0.p0, pay0.r1, pay0.p1) == (pay1.r0, pay1.p0, pay1.r1, pay1.p1)
        assert pay0.z0 ^ pay1.z0 == secrets[0] ^ secrets[1]
        assert pay0.z1 ^ pay1.z1 == secrets[0] ^ secrets[1]

    def test_candidate_subsets_cover_receiver_choice(self):
        run = ot_session(PARAMS, 11, 0)
        sender, receiver = run.sender, run.receiver
        a = sender.a
        cands = tuple(IndexSet(a.ground, [a.indices[j] for j in c]) for c in sender._c_rel)
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

    def test_invalid_encoding_from_swapped_respondent(self):
        # a receiver whose IH input lies in the rejected tail of the dense encoding
        receivers = []

        def swap_respondent(sender, receiver):
            receiver.respondent = Respondent(BitString(PARAMS.m, (1 << PARAMS.m) - 1))
            receivers.append(receiver)

        secrets = (BitString.zeros(PARAMS.payload_len),) * 2
        with pytest.raises(SetupAbort) as info:
            ot_session(PARAMS, 21, 0, secrets, before_hashing=swap_respondent)
        assert info.value.reason is Reason.INVALID_ENCODING
        with pytest.raises(SetupAbort) as info:
            receivers[0].finish_setup()
        assert info.value.reason is Reason.INVALID_ENCODING

    def test_sender_refuses_invalid_encoding(self):
        # a hostile receiver answers from the rejected tail and sends e anyway
        pair = generate(SourceConfig(n=PARAMS.n, alpha=PARAMS.alpha,
                                     delta=PARAMS.delta, seed="21:src"))
        secrets = (BitString.zeros(PARAMS.payload_len),) * 2
        sender = OTSender(PARAMS, *secrets, random.Random("21:s"))
        respondent = Respondent(BitString(PARAMS.m, (1 << PARAMS.m) - 1))
        play = sender.play(pair)
        assert isinstance(next(play), SetA)
        step = next(play)
        while isinstance(step, IHQuery):
            assert next(play) is IHResponse
            step = play.send(IHResponse(respondent.respond(step.q)))
        assert step is EBit and respondent.finished
        with pytest.raises(SetupAbort) as info:
            play.send(EBit(0))
        assert info.value.reason is Reason.INVALID_ENCODING

    def test_malformed_payload(self):
        # re-feed a bad payload to the receiver of a finished session
        run = ot_session(PARAMS, 24, 0)
        receiver2, payload2 = run.receiver, run.payload
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
        run = ot_session(params, 31, 0, noisy=False)
        assert run.output == run.secrets[0]

        run2 = ot_session(params, 31, 0, noisy=False)
        receiver2, payload2 = run2.receiver, run2.payload
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
        sender = ot_session(PARAMS, 41, 0).sender
        with pytest.raises(ValueError):
            sender.transfer(2)
