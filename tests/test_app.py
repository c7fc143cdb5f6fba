import dataclasses
import hashlib
import random
import shlex
import socket
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsme.bits import BitString, IndexSet
from bsme.codes import LinearCode
from bsme.commit import CommitMessage, HashDesc, OpenMessage
from bsme.infomath import derive_commit_params, derive_ot_params
from bsme.ot import EBit, IHQuery, IHResponse, SetA, TransferPayload
from bsme.reasons import Reason, ResultMsg, SetupAbort
from bsme.app import channel, cli, framing, runner
from bsme.app.framing import (
    AbortMsg,
    FrameError,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
    read_frame,
)


class TestReasonCodes:
    def test_values_pinned(self):
        assert [r.value for r in Reason] == list(range(9))
        assert Reason.OK == 0
        assert Reason.SMALL_INTERSECTION == 1
        assert Reason.INVALID_ENCODING == 2
        assert Reason.MALFORMED_MESSAGE == 3
        assert Reason.DISTANCE_EXCEEDED == 4
        assert Reason.DIGEST_MISMATCH == 5
        assert Reason.VALUE_MISMATCH == 6
        assert Reason.DECODE_FAILURE == 7
        assert Reason.DEPENDENT_QUERY == 8

    def test_labels(self):
        assert Reason.SMALL_INTERSECTION.label == "small-intersection"
        assert Reason.OK.label == "ok"


class TestFrameGoldens:
    def test_e_bit(self):
        data = encode_message(EBit(1))
        assert data == bytes.fromhex("05 00000001 00000001 01".replace(" ", ""))

    def test_set_a(self):
        data = encode_message(SetA(IndexSet(4, (0, 2))))
        assert data == bytes.fromhex("04 00000001 00000004 05".replace(" ", ""))

    def test_abort(self):
        data = encode_message(AbortMsg(Reason.SMALL_INTERSECTION))
        assert data == bytes.fromhex("09 00000001 00000008 01".replace(" ", ""))

    def test_ih_response(self):
        data = encode_message(IHResponse(0))
        assert data == bytes.fromhex("07 00000001 00000001 00".replace(" ", ""))

    def test_multibyte_field_is_lsb_first(self):
        data = encode_message(IHQuery(BitString(12, 0x5A3)))
        assert data == bytes.fromhex("06 00000001 0000000C A305".replace(" ", ""))

    # One literal golden per message shape: tag, field count, then each
    # field's bit length and LSB-first body, in the message's field order.
    GOLDENS = [
        (HashDesc(BitString(9, 0x1AB)), "01 00000001 00000009 AB01"),
        (
            CommitMessage(masked=BitString(2, 1), digest=BitString(4, 9),
                          a=IndexSet(8, (0, 3, 7)), u=BitString(5, 22)),
            "02 00000004 00000002 01 00000004 09 00000008 89 00000005 16",
        ),
        (OpenMessage(value=BitString(2, 3), w=BitString(6, 44)),
         "03 00000002 00000002 03 00000006 2C"),
        (SetA(IndexSet(0, ())), "04 00000001 00000000"),
        (IHQuery(BitString(5, 17)), "06 00000001 00000005 11"),
        (IHResponse(1), "07 00000001 00000001 01"),
        (
            TransferPayload(z0=BitString(2, 1), r0=BitString(3, 4), p0=BitString(3, 7),
                            z1=BitString(2, 2), r1=BitString(3, 0), p1=BitString(3, 1)),
            "08 00000006 00000002 01 00000003 04 00000003 07"
            " 00000002 02 00000003 00 00000003 01",
        ),
        (ResultMsg(ok=True, reason=Reason.OK, value=BitString(3, 5)),
         "0A 00000003 00000001 01 00000008 00 00000003 05"),
        (ResultMsg(ok=False, reason=Reason.DIGEST_MISMATCH, value=BitString(0, 0)),
         "0A 00000003 00000001 00 00000008 05 00000000"),
    ]

    @pytest.mark.parametrize("msg,golden", GOLDENS, ids=[type(m).__name__ for m, _ in GOLDENS])
    def test_golden_per_message(self, msg, golden):
        data = bytes.fromhex(golden.replace(" ", ""))
        assert encode_message(msg) == data
        assert decode_message(data) == msg


class TestFrameCodec:
    def test_roundtrip_messages(self):
        msgs = [
            HashDesc(BitString(9, 0x1AB)),
            SetA(IndexSet(10, (1, 4, 9))),
            EBit(0),
            IHQuery(BitString(5, 17)),
            IHResponse(1),
            AbortMsg(Reason.DECODE_FAILURE),
            ResultMsg(ok=True, reason=Reason.OK, value=BitString(3, 5)),
            CommitMessage(masked=BitString(2, 1), digest=BitString(4, 9),
                          a=IndexSet(8, (0, 3, 7)), u=BitString(5, 22)),
            OpenMessage(value=BitString(2, 3), w=BitString(6, 44)),
            TransferPayload(z0=BitString(2, 1), r0=BitString(3, 4), p0=BitString(3, 7),
                            z1=BitString(2, 2), r1=BitString(3, 0), p1=BitString(3, 1)),
        ]
        for msg in msgs:
            assert decode_message(encode_message(msg)) == msg

    @given(st.integers(0, 2**20), st.integers(1, 24))
    def test_frame_roundtrip_property(self, value, bits):
        f = BitString(bits, value % (1 << bits))
        tag, fields = decode_frame(encode_frame(framing.TAGS[IHQuery], [f]))
        assert tag == framing.TAGS[IHQuery]
        assert fields == [f]

    def test_unknown_tag(self):
        with pytest.raises(FrameError):
            encode_frame(0x7F, [])
        data = bytearray(encode_message(EBit(1)))
        data[0] = 0x7F
        with pytest.raises(FrameError):
            decode_frame(bytes(data))

    def test_wrong_field_count(self):
        with pytest.raises(FrameError):
            encode_frame(framing.TAGS[EBit], [BitString(1, 1), BitString(1, 0)])
        # header rewritten to claim two fields
        data = bytearray(encode_message(EBit(1)))
        data[4] = 2
        with pytest.raises(FrameError):
            decode_frame(bytes(data))

    def test_nonzero_padding_rejected(self):
        # 4-bit field packed into one byte: the top nibble must be zero
        good = encode_frame(framing.TAGS[IHQuery], [BitString(4, 0xF)])
        bad = bytearray(good)
        bad[-1] |= 0xF0
        with pytest.raises(FrameError):
            decode_frame(bytes(bad))

    def test_trailing_bytes_rejected(self):
        data = encode_message(EBit(1)) + b"\x00"
        with pytest.raises(FrameError):
            decode_frame(data)

    def test_truncated_rejected(self):
        data = encode_message(EBit(1))
        with pytest.raises(FrameError):
            decode_frame(data[:-1])
        with pytest.raises(FrameError):
            decode_frame(b"")

    @pytest.mark.parametrize("msg", [EBit(2), EBit(-1), IHResponse(3),
                                     ResultMsg(ok=2, reason=Reason.OK, value=BitString(0, 0))])
    def test_flag_out_of_range_refused(self, msg):
        # flags are exactly 0 or 1 on both sides of the wire; nothing is masked
        with pytest.raises(FrameError):
            encode_message(msg)

    def test_flag_must_be_one_bit(self):
        for tag in (framing.TAGS[EBit], framing.TAGS[IHResponse]):
            with pytest.raises(FrameError):
                decode_message(encode_frame(tag, [BitString(2, 1)]))
        bad_ok = encode_frame(framing.TAGS[ResultMsg],
                              [BitString(0, 0), BitString(8, 0), BitString(0, 0)])
        with pytest.raises(FrameError):
            decode_message(bad_ok)

    def test_flags_decode_to_their_types(self):
        assert type(decode_message(encode_message(EBit(1))).e) is int
        ok = decode_message(encode_message(ResultMsg(True, Reason.OK, BitString(0, 0)))).ok
        assert ok is True

    def test_every_message_has_a_row(self):
        # one tag per message class, and each tag's field count is its class's arity
        classes = [HashDesc, CommitMessage, OpenMessage, SetA, EBit, IHQuery, IHResponse,
                   TransferPayload, AbortMsg, ResultMsg]
        assert sorted(framing.TAGS.values()) == list(range(1, 11))
        assert set(framing.TAGS) == set(classes)
        for cls in classes:
            arity = len(dataclasses.fields(cls))
            fields = [BitString(0, 0)] * arity
            with pytest.raises(FrameError, match="fields"):
                encode_frame(framing.TAGS[cls], fields + [BitString(0, 0)])
            encode_frame(framing.TAGS[cls], fields)

    def test_encode_refuses_unknown_class(self):
        with pytest.raises(FrameError):
            encode_message(object())

    def test_result_bit_strictness(self):
        # ok field must be exactly one bit on the wire
        msg = ResultMsg(ok=False, reason=Reason.OK, value=BitString(0, 0))
        back = decode_message(encode_message(msg))
        assert back == msg

    def test_unknown_reason_code_rejected(self):
        data = bytearray(encode_message(AbortMsg(Reason.DEPENDENT_QUERY)))
        data[-1] = 200
        with pytest.raises(FrameError):
            decode_message(bytes(data))

    def test_oversize_field_rejected(self):
        header = bytes([framing.TAGS[IHQuery]]) + (1).to_bytes(4, "big")
        huge = (framing.MAX_FIELD_BITS + 1).to_bytes(4, "big")
        with pytest.raises(FrameError):
            decode_frame(header + huge)

    def test_oversize_field_not_encoded(self):
        # the encoder holds fields to the limit the decoder enforces
        huge = BitString(framing.MAX_FIELD_BITS + 1, 0)
        with pytest.raises(FrameError, match="field too large"):
            encode_frame(framing.TAGS[IHQuery], [huge])
        with pytest.raises(FrameError, match="field too large"):
            encode_message(IHQuery(huge))
        largest = BitString(framing.MAX_FIELD_BITS, 0)
        assert decode_message(encode_message(IHQuery(largest))) == IHQuery(largest)


def _claim_16_fields(msg):
    data = bytearray(encode_message(msg))
    data[1:5] = (16).to_bytes(4, "big")
    return bytes(data)


# (stream, byte counts the reader may ask for before it refuses)
_REFUSED_EARLY = [
    (_claim_16_fields(EBit(1)), [5]),
    (_claim_16_fields(AbortMsg(Reason.OK)), [5]),
    (_claim_16_fields(IHQuery(BitString(3, 1))), [5]),
    (bytes([0x7F]) + (1).to_bytes(4, "big") + bytes(5), [5]),
    (bytes([framing.TAGS[IHQuery]]) + (1).to_bytes(4, "big")
     + (framing.MAX_FIELD_BITS + 1).to_bytes(4, "big"), [5, 4]),
]
_REFUSED_EARLY_IDS = ["count-ebit", "count-abort", "count-query", "unknown-tag", "oversize-field"]


class TestReadFrame:
    def test_reassembles_from_stream(self):
        msg = encode_message(SetA(IndexSet(12, (0, 5, 11))))
        buf = bytearray(msg)

        def read_exact(nbytes):
            out = bytes(buf[:nbytes])
            del buf[:nbytes]
            return out

        assert read_frame(read_exact) == msg
        assert not buf

    @pytest.mark.parametrize("data,asked", _REFUSED_EARLY, ids=_REFUSED_EARLY_IDS)
    def test_bad_header_refused_before_body(self, data, asked):
        # The stream reader stops at the first bad header or field length,
        # before it asks for anything the lying header would have it read.
        sizes = []

        def read_exact(nbytes):
            start = sum(sizes)
            sizes.append(nbytes)
            return data[start : start + nbytes]

        with pytest.raises(FrameError):
            read_frame(read_exact)
        assert sizes == asked


class TestChannels:
    def test_memory_pair_duplex(self):
        a, b = channel.memory_pair()
        a.send(b"ping")
        assert b.recv() == b"ping"
        b.send(b"pong")
        assert a.recv() == b"pong"

    def test_memory_close_unblocks_peer(self):
        a, b = channel.memory_pair()
        a.close()
        with pytest.raises(channel.ChannelClosed):
            b.recv()

    def test_memory_recv_times_out(self, monkeypatch):
        monkeypatch.setattr(channel, "RECV_TIMEOUT", 0.01)
        _, b = channel.memory_pair()
        with pytest.raises(channel.ChannelClosed, match="timed out"):
            b.recv()

    def test_empty_send_refused(self):
        a, _ = channel.memory_pair()
        with pytest.raises(ValueError):
            a.send(b"")

    def test_socketpair_roundtrip(self):
        a, b = channel.socketpair_channels()
        try:
            frame = encode_message(EBit(1))
            a.send(frame)
            assert b.recv() == frame
        finally:
            a.close()
            b.close()

    def test_stream_close_breaks_recv(self):
        a, b = channel.socketpair_channels()
        a.close()
        with pytest.raises(ConnectionError):
            b.recv()


COMMIT_PARAMS = derive_commit_params(n=512, ell=8, alpha=1.0, gamma=0.25,
                                     delta=0.0, zeta=0.05)
OT_PARAMS = derive_ot_params(n=1024, ell=14, code=LinearCode.hamming_7_4(),
                             delta=0.0)


class TestRunner:
    def test_commit_session_accepts(self):
        out = runner.run_commit_session(COMMIT_PARAMS, seed=1)
        assert out.accepted and out.reason is Reason.OK
        assert out.opened == out.value

    def test_commit_session_deterministic(self):
        a = runner.run_commit_session(COMMIT_PARAMS, seed=2)
        b = runner.run_commit_session(COMMIT_PARAMS, seed=2)
        assert a.transcript == b.transcript
        assert a.value == b.value

    def test_commit_memory_socket_identical(self):
        a = runner.run_commit_session(COMMIT_PARAMS, seed=3, transport="memory")
        b = runner.run_commit_session(COMMIT_PARAMS, seed=3, transport="socket")
        assert a.transcript == b.transcript

    def test_ot_session_correct(self):
        out = runner.run_ot_session(OT_PARAMS, seed=4)
        assert out.completed
        assert out.correct

    def test_ot_memory_socket_identical(self):
        a = runner.run_ot_session(OT_PARAMS, seed=5, transport="memory")
        b = runner.run_ot_session(OT_PARAMS, seed=5, transport="socket")
        assert a.transcript == b.transcript
        assert a.output == b.output

    def test_ot_transcripts_differ_only_in_e_bit(self):
        # The receiver's frames hide its choice except through e = choice xor d.
        # The secrets differ, so the sender's payload frame differs as well.
        secrets = (BitString(OT_PARAMS.payload_len, 0), BitString(OT_PARAMS.payload_len, 1))
        a = runner.run_ot_session(OT_PARAMS, seed=6, choice=0, secrets=secrets)
        b = runner.run_ot_session(OT_PARAMS, seed=6, choice=1, secrets=secrets)
        assert a.correct and b.correct
        diffs = [
            (fa, fb)
            for (la, fa), (lb, fb) in zip(a.transcript, b.transcript)
            if la == lb == "B" and fa != fb
        ]
        assert len(diffs) == 1
        assert diffs[0][0][0] == framing.TAGS[EBit]
        assert diffs[0][1][0] == framing.TAGS[EBit]

    def test_wire_is_frozen(self):
        # Frozen digests of the seed-42 transcripts: a change to any frame,
        # or to the order of frames, fails here.
        def digest(transcript):
            h = hashlib.sha256()
            for label, frame in transcript:
                h.update(label.encode() + len(frame).to_bytes(4, "big") + frame)
            return h.hexdigest()

        commit = runner.run_commit_session(COMMIT_PARAMS, seed=42)
        ot = runner.run_ot_session(OT_PARAMS, seed=42)
        assert len(commit.transcript) == 4
        assert digest(commit.transcript) == (
            "61ce4cfb260312842340e76f76407d095c53abdad5508356d2aee4092bc39122")
        assert len(ot.transcript) == 450
        assert digest(ot.transcript) == (
            "576e6af04bfce4d603658d9cffbef418cdd8451b0f85a5dd6cbbf59417c23ce6")

    @pytest.mark.parametrize("party,method,reason,session", [
        ("Verifier", "verify", Reason.DIGEST_MISMATCH,
         lambda transport: runner.run_commit_session(COMMIT_PARAMS, seed=7, transport=transport)),
        ("OTReceiver", "receive_payload", Reason.MALFORMED_MESSAGE,
         lambda transport: runner.run_ot_session(OT_PARAMS, seed=7, transport=transport)),
    ], ids=["commit", "transfer"])
    def test_refused_transcript_ends_with_closing_frame(
            self, monkeypatch, party, method, reason, session):
        # The runner records the refusing party's closing frame as it sends it.
        # (A refusal during the receiver's set-up races the sender's first query.)
        def refuse(*args):
            raise SetupAbort(reason)

        monkeypatch.setattr(getattr(runner, party), method, refuse)
        memory, socket_ = session("memory"), session("socket")
        assert memory.reason is socket_.reason is reason
        assert memory.transcript == socket_.transcript
        closing = encode_message(ResultMsg(False, reason, BitString.zeros(0)))
        assert memory.transcript[-1] == ("B", closing)

    def test_cross_host_parties_agree(self):
        # drive commit_party on both ends of one socket pair
        lhs, rhs = socket.socketpair()
        results = {}

        def run(role, sock):
            chan = channel.StreamChannel(sock)
            try:
                results[role] = runner.commit_party(
                    role, chan, COMMIT_PARAMS, seed=9,
                    value=BitString(COMMIT_PARAMS.m, 1) if role == "committer" else None,
                )
            finally:
                chan.close()

        t1 = threading.Thread(target=run, args=("committer", lhs))
        t2 = threading.Thread(target=run, args=("verifier", rhs))
        t1.start(); t2.start()
        t1.join(30); t2.join(30)
        assert results["verifier"]["reason"] is Reason.OK
        assert results["verifier"]["opened"] == BitString(COMMIT_PARAMS.m, 1)

    def test_tcp_parties_match_in_process(self):
        # listen_channel and connect_channel over a real loopback port
        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]
        results = {}

        def dial():
            for _ in range(100):
                try:
                    return channel.connect_channel("127.0.0.1", port)
                except ConnectionRefusedError:
                    time.sleep(0.05)
            raise ConnectionRefusedError(f"nothing listens on port {port}")

        def run(role, open_channel):
            chan = open_channel()
            try:
                results[role] = runner.commit_party(role, chan, COMMIT_PARAMS, seed=9)
            finally:
                chan.close()

        threads = [
            threading.Thread(target=run, daemon=True, args=(
                "verifier", lambda: channel.listen_channel("127.0.0.1", port))),
            threading.Thread(target=run, daemon=True, args=("committer", dial)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        ref = runner.run_commit_session(COMMIT_PARAMS, seed=9)
        assert ref.reason is Reason.OK
        assert results["committer"]["reason"] is results["verifier"]["reason"] is ref.reason
        assert results["committer"]["value"] == ref.value
        assert results["verifier"]["opened"] == ref.opened == ref.value

    def test_cross_host_ot_matches_in_process(self):
        # Both halves derive the same default secrets as the in-process run
        # when only the choice is given.
        chans = dict(zip(("sender", "receiver"), channel.socketpair_channels()))
        transcript, lock = [], threading.Lock()
        for label, chan in zip("AB", chans.values()):
            def send(frame, label=label, send=chan.send):
                with lock:
                    transcript.append((label, frame))
                send(frame)
            chan.send = send
        results = {}

        def run(role):
            try:
                results[role] = runner.ot_party(
                    role, chans[role], OT_PARAMS, seed=3,
                    choice=1 if role == "receiver" else None,
                )
            finally:
                chans[role].close()

        threads = [threading.Thread(target=run, args=(role,)) for role in chans]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        ref = runner.run_ot_session(OT_PARAMS, choice=1, seed=3)
        assert results["sender"]["secrets"] == ref.secrets
        assert results["receiver"]["output"] == ref.output
        assert results["receiver"]["choice"] == 1
        assert tuple(transcript) == ref.transcript


HOSTILE_SEED = 11
_PADDED = bytes.fromhex("06 00000001 00000003 ff".replace(" ", ""))  # padding bits set
_SHORT_QUERY = encode_message(IHQuery(BitString(3, 5)))
_PEER_ABORT = encode_message(AbortMsg(Reason.DIGEST_MISMATCH))
_PEER_ABORT_OK = encode_message(AbortMsg(Reason.OK))  # an abort that claims success


def _honest_peer_frames(role):
    """The frames an honest peer of `role` sends in the seeded session."""
    if role in ("committer", "verifier"):
        out = runner.run_commit_session(COMMIT_PARAMS, seed=HOSTILE_SEED)
    else:
        out = runner.run_ot_session(OT_PARAMS, seed=HOSTILE_SEED)
    own = "A" if role in ("committer", "sender") else "B"
    return [frame for label, frame in out.transcript if label != own]


def _bad_frame(kind, honest):
    if kind == "padding":
        return _PADDED
    if kind == "wrong-type":
        return encode_message(IHResponse(0) if honest[0] == framing.TAGS[EBit] else EBit(0))
    if kind == "short-query":
        return _SHORT_QUERY
    if kind == "peer-abort-ok":
        return _PEER_ABORT_OK
    return _PEER_ABORT


class TestHostilePeer:
    """One party against a peer that replays an honest session, then sends
    one bad frame at a chosen receive step."""

    M = OT_PARAMS.m
    # Commit parties receive twice.  A transfer party receives m+1 times:
    # the sender m-1 IH responses, the e bit and the result; the receiver
    # the set A, m-1 IH queries and the payload.  The steps cover each
    # message type and the first and last IH rounds.
    CASES = [
        (role, step)
        for role, steps in (
            ("committer", (0, 1)),
            ("verifier", (0, 1)),
            ("sender", (0, 1, M // 2, M - 2, M - 1, M)),
            ("receiver", (0, 1, M // 2, M - 2, M - 1, M)),
        )
        for step in steps
    ]

    @staticmethod
    def _drive(role, incoming, seed=HOSTILE_SEED, choice=None, ot_params=OT_PARAMS):
        """Run `role` against a peer that has sent `incoming` and closed;
        return the party's result and the messages it sent.  The party's
        inbox is unbounded, so the peer's frames all wait there before it
        starts and no second thread is needed; the party's own frames wait
        in the peer's inbox until the party's end is closed."""
        mine, peer = channel.memory_pair()
        for frame in incoming:
            peer.send(frame)
        peer.close()
        if role in ("committer", "verifier"):
            out = runner.commit_party(role, mine, COMMIT_PARAMS, seed)
        else:
            out = runner.ot_party(role, mine, ot_params, seed, choice)
        mine.close()
        sent = []
        with pytest.raises(channel.ChannelClosed):
            while True:
                sent.append(decode_message(peer.recv()))
        return out, sent

    @classmethod
    def _run(cls, role, incoming, seed=HOSTILE_SEED, choice=None):
        """`_drive` against a peer that the party must refuse."""
        out, sent = cls._drive(role, incoming, seed, choice)
        assert out["reason"] is not Reason.OK
        return out, sent

    @pytest.mark.parametrize(
        "kind", ["padding", "wrong-type", "short-query", "peer-abort", "peer-abort-ok"])
    @pytest.mark.parametrize("role,step", CASES)
    def test_bad_frame_ends_in_named_reason(self, role, step, kind):
        honest = _honest_peer_frames(role)
        out, sent = self._run(role, honest[:step] + [_bad_frame(kind, honest[step])])
        if kind == "peer-abort":
            assert out["reason"] is Reason.DIGEST_MISMATCH
            assert not any(isinstance(m, (AbortMsg, ResultMsg)) for m in sent)
        elif role == "verifier":
            assert out["reason"] is Reason.MALFORMED_MESSAGE
            assert sent[-1] == ResultMsg(False, Reason.MALFORMED_MESSAGE, BitString.zeros(0))
        else:
            assert out["reason"] is Reason.MALFORMED_MESSAGE
            assert sent[-1] == AbortMsg(Reason.MALFORMED_MESSAGE)

    STRETCH_CASES = [
        ("committer", 0), ("verifier", 0), ("verifier", 1),
        *(("receiver", step) for step in (0, 1, M // 2, M - 1, M)),
    ]

    @pytest.mark.parametrize("role,step", STRETCH_CASES)
    def test_stretched_fields_end_in_malformed(self, role, step):
        # Every field one bit longer (a mask's ground grows by one).  The
        # honest frames after it let a verifier holding a bad commitment
        # reach the opening.
        honest = _honest_peer_frames(role)
        tag, fields = decode_frame(honest[step])
        stretched = encode_frame(tag, [BitString(f.length + 1, f.to_int()) for f in fields])
        out, sent = self._run(role, honest[:step] + [stretched] + honest[step + 1:])
        assert out["reason"] is Reason.MALFORMED_MESSAGE
        if role == "verifier" or (role, step) == ("receiver", self.M):
            assert sent[-1] == ResultMsg(False, Reason.MALFORMED_MESSAGE, BitString.zeros(0))
        else:
            assert sent[-1] == AbortMsg(Reason.MALFORMED_MESSAGE)

    @pytest.mark.parametrize("field", ["z", "r", "p"])
    @pytest.mark.parametrize("choice", [0, 1])
    @pytest.mark.parametrize("seed", [HOSTILE_SEED, 15])  # d = 1 and d = 0
    def test_stretched_unchosen_branch_ends_in_malformed(self, seed, choice, field):
        # A receiver that refused only a bad chosen branch would complete on
        # a bad unchosen one, and so tell the sender d and with it the choice.
        out = runner.run_ot_session(OT_PARAMS, choice=choice, seed=seed)
        honest = [frame for label, frame in out.transcript if label == "A"]
        e = next(m.e for m in (decode_message(f) for label, f in out.transcript if label == "B")
                 if isinstance(m, EBit))
        name = f"{field}{1 - (choice ^ e)}"
        payload = decode_message(honest[self.M])
        f = getattr(payload, name)
        stretched = dataclasses.replace(payload, **{name: BitString(f.length + 1, f.to_int())})
        out, sent = self._run("receiver", honest[:self.M] + [encode_message(stretched)],
                              seed=seed, choice=choice)
        assert out["reason"] is Reason.MALFORMED_MESSAGE
        assert sent[-1] == ResultMsg(False, Reason.MALFORMED_MESSAGE, BitString.zeros(0))

    def test_spoiled_helper_closes_alike_for_either_d(self):
        # With a code that detects instead of corrects (radius 0), a sender
        # that spoils branch 0's helper fails exactly the receivers that
        # decode branch 0.  The closing frame must not tell it which did.
        code = LinearCode(7, LinearCode.hamming_7_4().rows, radius=0)
        params = derive_ot_params(n=4096, ell=14, code=code, delta=0.0, xi=0.0)
        closings, reasons = {0: set(), 1: set()}, set()
        for seed in range(12):
            honest = runner.run_ot_session(params, seed=seed)
            sender = [frame for label, frame in honest.transcript if label == "A"]
            payload = decode_message(sender[params.m])
            spoiled = dataclasses.replace(payload, p0=payload.p0 ^ BitString(params.p_len, 1))
            out, sent = self._drive("receiver", sender[:params.m] + [encode_message(spoiled)],
                                    seed=seed, ot_params=params)
            e = next(m.e for m in sent if isinstance(m, EBit))
            closings[e ^ out["choice"]].add(encode_message(sent[-1]))
            reasons.add(out["reason"])
        assert reasons == {Reason.OK, Reason.DECODE_FAILURE}
        ok = encode_message(ResultMsg(True, Reason.OK, BitString.zeros(0)))
        assert closings == {0: {ok}, 1: {ok}}

    @pytest.mark.parametrize("role,ok,reason,reported", [
        ("committer", True, Reason.DIGEST_MISMATCH, Reason.DIGEST_MISMATCH),
        ("sender", True, Reason.DECODE_FAILURE, Reason.DECODE_FAILURE),
        ("committer", False, Reason.OK, Reason.MALFORMED_MESSAGE),
        ("sender", False, Reason.OK, Reason.MALFORMED_MESSAGE),
    ], ids=["committer", "sender", "committer-false-ok", "sender-false-ok"])
    def test_contradictory_result_reports_only_its_reason(self, role, ok, reason, reported):
        # A closing result whose ok bit contradicts its reason.  A failure
        # reason is reported as it stands; an ok reason beside a clear bit is
        # refused as malformed.  Either way no output is reported beside it.
        honest = _honest_peer_frames(role)
        lying = ResultMsg(ok, reason, decode_message(honest[-1]).value)
        out, _ = self._run(role, honest[:-1] + [encode_message(lying)])
        inputs = {"value", "secrets"}
        assert {k: v for k, v in out.items() if k not in inputs and v is not None} == {
            "reason": reported}

    def test_refused_hash_aborts_committer(self):
        # A well-formed HashDesc whose diagonal does not fit k and the digest length
        out, sent = self._run("committer", [encode_message(HashDesc(BitString(3, 5)))])
        assert out["reason"] is Reason.MALFORMED_MESSAGE
        assert sent == [AbortMsg(Reason.MALFORMED_MESSAGE)]

    @pytest.mark.parametrize("cls,method", [("OTSender", "take_response"),
                                            ("OTReceiver", "respond")])
    def test_internal_error_propagates(self, monkeypatch, cls, method):
        # a ValueError inside a party is a bug, not the peer's malformed message
        def broken(*args):
            raise ValueError("internal bug")

        monkeypatch.setattr(getattr(runner, cls), method, broken)
        with pytest.raises(ValueError, match="internal bug"):
            runner.run_ot_session(OT_PARAMS, seed=HOSTILE_SEED)

    def test_dependent_query_aborts_receiver(self):
        honest = _honest_peer_frames("receiver")
        zero = encode_message(IHQuery(BitString.zeros(OT_PARAMS.m)))
        out, sent = self._run("receiver", honest[:1] + [zero])
        assert out["reason"] is Reason.DEPENDENT_QUERY
        assert sent == [AbortMsg(Reason.DEPENDENT_QUERY)]


class TestCLI:
    def test_feasibility_ok(self, capsys):
        assert cli.main(["feasibility", "--alpha", "1.0", "--gamma", "0.25",
                         "--delta", "0.02", "--n", "4096"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "rho" in out

    def test_feasibility_infeasible_exit(self, capsys):
        code = cli.main(["feasibility", "--alpha", "0.5", "--gamma", "0.45",
                         "--delta", "0.2", "--n", "4096"])
        assert code == cli.EXIT_BOUND

    def test_feasibility_past_quarter_delta_infeasible(self, capsys):
        import json
        code = cli.main(["feasibility", "--alpha", "1", "--gamma", "0.25",
                         "--delta", "0.3", "--json"])
        assert code == cli.EXIT_BOUND
        assert json.loads(capsys.readouterr().out)["ot_gv"]["feasible"] is False

    def test_port_out_of_range_is_usage_error(self, monkeypatch):
        def no_socket(*args):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr(cli, "listen_channel", no_socket)
        with pytest.raises(SystemExit) as info:
            cli.main(["ot", "--n", "1024", "--ell", "14", "--code", "hamming",
                      "--listen", "127.0.0.1:99999", "--role", "sender"])
        assert info.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("flag,role,sent", [
        ("--listen", "verifier", b""),
        ("--connect", "committer", bytes.fromhex("0100000001")),  # a header, then nothing
    ], ids=["closed", "cut-frame"])
    def test_peer_hangup_aborts_session(self, monkeypatch, capsys, flag, role, sent):
        # once the channel is open, a peer that hangs up ends the session (exit 1), not usage
        near, far = socket.socketpair()
        far.sendall(sent)
        far.close()
        opened = lambda host, port: channel.StreamChannel(near)
        monkeypatch.setattr(cli, "listen_channel", opened)
        monkeypatch.setattr(cli, "connect_channel", opened)
        code = cli.main(["commit", "--n", "512", "--ell", "8", flag, "127.0.0.1:9",
                         "--role", role])
        assert code == cli.EXIT_REJECTED
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "127.0.0.1:9" in err

    def test_bare_ot_completes(self, capsys):
        # the transfer's own ell default derives a stock code at the default noise
        import json
        assert cli.main(["ot", "--json"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["completed"] is True

    def test_readme_examples(self, capsys):
        # each `$ bsme ...` block of the README's command-line section prints
        # exactly the lines under it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        examples = [block.splitlines() for block in section.split("```")[1::2]]
        examples = [lines[1:] for lines in examples if lines[1].startswith("$ bsme ")]
        assert len(examples) == 3
        for command, *expected in examples:
            assert cli.main(shlex.split(command)[2:]) == cli.EXIT_OK
            assert capsys.readouterr().out.splitlines() == expected, command

    def test_commit_session(self, capsys):
        assert cli.main(["commit", "--n", "512", "--ell", "8",
                         "--seed", "3"]) == cli.EXIT_OK
        assert "accept" in capsys.readouterr().out

    def test_ot_session(self, capsys):
        assert cli.main(["ot", "--n", "1024", "--ell", "14", "--code", "hamming",
                         "--delta", "0.0", "--seed", "3"]) == cli.EXIT_OK

    def test_usage_error(self):
        assert cli.main(["commit", "--n", "-5"]) == cli.EXIT_USAGE

    def test_unknown_code_is_usage_error(self):
        # argparse rejects out-of-catalog codes with the usage exit status
        with pytest.raises(SystemExit) as info:
            cli.main(["ot", "--n", "512", "--ell", "6", "--code", "repetition4"])
        assert info.value.code == cli.EXIT_USAGE

    def test_no_stock_code_fits(self):
        # ell=6 divides rep3 but the noise budget rules every catalog entry out
        assert cli.main(["ot", "--n", "4096", "--ell", "6", "--delta", "0.4",
                         "--xi", "0.05"]) == cli.EXIT_USAGE

    def test_json_output(self, capsys):
        import json
        assert cli.main(["commit", "--n", "512", "--ell", "8", "--seed", "4",
                         "--json"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is True

    def test_config_file_defaults_and_override(self, tmp_path, capsys):
        # an argument file: flags split on whitespace, `#` comments, blank lines
        cfg = tmp_path / "session.args"
        cfg.write_text("# session defaults\n\n--n 512 --ell 8\n--seed=6  # inline\n--json\n")
        import json
        assert cli.main(["commit", f"@{cfg}"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is True
        assert doc["params"]["n"] == 512
        # a flag after the file wins: seed 7 must reproduce a plain seed-7 run
        assert cli.main(["commit", f"@{cfg}", "--seed", "7"]) == cli.EXIT_OK
        doc2 = json.loads(capsys.readouterr().out)
        assert cli.main(["commit", "--n", "512", "--ell", "8", "--seed", "7",
                         "--json"]) == cli.EXIT_OK
        direct = json.loads(capsys.readouterr().out)
        assert doc2["value"] == direct["value"]
        assert doc2["value"] != doc["value"]

    @pytest.mark.parametrize("command, line, offending", [
        ("commit", "--gama 0.5", "--gama"),  # misspelt
        ("commit", "--trials 5", "--trials"),  # another subcommand's flag
        ("commit", "n 512", "n 512"),  # not a flag
        # tau, omega and m_F are derived, not flags
        ("commit", "--omega 0.3", "--omega"),
        ("ot", "--m-f 0.1", "--m-f"),
    ], ids=["misspelt", "other-subcommand", "not-a-flag", "commit-omega", "ot-m-f"])
    def test_argument_file_refusals(self, tmp_path, capsys, command, line, offending):
        cfg = tmp_path / "bad.args"
        cfg.write_text(f"--n 512 --ell 8\n{line}\n")
        with pytest.raises(SystemExit) as info:
            cli.main([command, f"@{cfg}"])
        assert info.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert offending in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, offending", [
        (["commit", "--n", "512", "--ell", "8", "--se", "3", "--val", "1011011101", "--js"],
         "--se"),
        (["attack", "--which", "binding", "--tri", "5"], "--tri"),
        (["commit", "--n", "512", "--ell", "8", "@FILE"], "--se"),
    ], ids=["commit", "attack", "argument-file"])
    def test_abbreviated_flag_exits_usage(self, tmp_path, capsys, argv, offending):
        # a unique prefix of a flag is refused, not taken for the flag
        cfg = tmp_path / "abbrev.args"
        cfg.write_text("--se 3\n")
        with pytest.raises(SystemExit) as info:
            cli.main([f"@{cfg}" if arg == "@FILE" else arg for arg in argv])
        assert info.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert offending in captured.err
        assert captured.out == ""

    def test_config_file_errors_exit_usage(self, tmp_path, capsys):
        # a file that cannot be read: missing, or a directory
        for path in (tmp_path / "missing.args", tmp_path):
            with pytest.raises(SystemExit) as info:
                cli.main(["commit", f"@{path}"])
            assert info.value.code == cli.EXIT_USAGE
            captured = capsys.readouterr()
            assert str(path) in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("argv, value", [
        # an unchecked `which` would run no attack at all and report a pass
        (["attack", "--which", "bogus", "--trials", "5", "--json"], "bogus"),
        (["ot", "--code", "bogus"], "bogus"),
    ], ids=["which", "code"])
    def test_value_outside_choices_exits_usage(self, tmp_path, capsys, argv, value):
        # refused on the command line and from a file alike
        cfg = tmp_path / "choices.args"
        cfg.write_text(" ".join(argv[1:]))
        for args in (argv, [argv[0], f"@{cfg}"]):
            with pytest.raises(SystemExit) as info:
                cli.main(args)
            assert info.value.code == cli.EXIT_USAGE
            captured = capsys.readouterr()
            assert argv[1] in captured.err and value in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("argv, named", [
        (["commit", "--n", "512", "--ell", "8", "--role", "verifier"], "--listen"),
        (["ot", "--role", "receiver"], "--listen"),
        (["ot", "--listen", "127.0.0.1:9", "--connect", "127.0.0.1:9", "--role", "sender"],
         "--listen"),
        (["commit", "--n", "512", "--ell", "8", "--connect", "127.0.0.1:9"], "--listen"),
        (["ot", "--s0", "1"], "pass both --s0 and --s1"),
    ], ids=["commit-role-alone", "ot-role-alone", "both-addresses", "address-alone",
            "s0-alone"])
    def test_network_flags_go_together(self, monkeypatch, capsys, argv, named):
        def no_socket(*args):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr(cli, "listen_channel", no_socket)
        monkeypatch.setattr(cli, "connect_channel", no_socket)
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
        assert code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""

    def test_nan_rate_exits_usage(self, capsys):
        # NaN fails every comparison, so each check must be written to fail it
        assert cli.main(["ot", "--code", "hamming", "--xi", "nan", "--json"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "delta >= 0 and xi >= 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["lemmas", "--trials", "0"],
        ["attack", "--trials", "0"],
        ["attack", "--which", "theta", "--trials", "-3"],
    ])
    def test_nonpositive_trials_exit_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "positive integer" in captured.err
        assert captured.out == ""

    def test_network_ot_parties(self, monkeypatch, capsys):
        # --listen/--connect over the two ends of a socket pair, one party per thread
        import json
        params = derive_ot_params(n=1024, ell=14, code=LinearCode.hamming_7_4())
        s0 = BitString.zeros(params.payload_len).to_str()
        s1 = "1" * params.payload_len
        listener, dialer = channel.socketpair_channels()
        monkeypatch.setattr(cli, "listen_channel", lambda host, port: listener)
        monkeypatch.setattr(cli, "connect_channel", lambda host, port: dialer)
        argv = ["ot", "--n", "1024", "--ell", "14", "--code", "hamming", "--seed", "3",
                "--choice", "1", "--s0", s0, "--s1", s1, "--json"]
        codes = {}

        def party(role, flag):
            codes[role] = cli.main(argv + [flag, "127.0.0.1:9", "--role", role])

        threads = [threading.Thread(target=party, args=("sender", "--listen")),
                   threading.Thread(target=party, args=("receiver", "--connect"))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert codes == {"sender": cli.EXIT_OK, "receiver": cli.EXIT_OK}
        # the two JSON documents may share a line when the threads' prints interleave
        text, docs, pos = capsys.readouterr().out, [], 0
        decoder = json.JSONDecoder()
        while text[pos:].strip():
            pos += len(text[pos:]) - len(text[pos:].lstrip())
            doc, pos = decoder.raw_decode(text, pos)
            docs.append(doc)
        sender, receiver = sorted(docs, key=lambda d: "choice" in d)
        assert set(sender) == {"reason", "secrets"}
        assert set(receiver) == {"reason", "output", "choice"}
        assert sender["secrets"] == [s0, s1]
        direct = runner.run_ot_session(
            params, choice=1, secrets=(BitString.from_str(s0), BitString.from_str(s1)), seed=3)
        assert direct.completed
        assert receiver["output"] == direct.output.to_str() == s1

    def test_selftest(self, capsys):
        assert cli.main(["selftest"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") >= 4

    def test_underivable_parameters_exit_usage(self, capsys):
        # gamma=0.9 leaves the source no entropy to beat: derive_commit_params refuses
        assert cli.main(["commit", "--n", "64", "--ell", "8", "--gamma", "0.9",
                         "--value", "1"]) == cli.EXIT_USAGE
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, keys", [
        (["feasibility", "--alpha", "1.0", "--gamma", "0.25", "--delta", "0.02",
          "--n", "4096"], {"rho", "commit", "ot_gv"}),
        (["commit", "--n", "512", "--ell", "8", "--seed", "4"],
         {"params", "value", "accepted", "reason", "opened", "frames"}),
        (["ot", "--n", "1024", "--ell", "14", "--code", "hamming", "--delta", "0.0",
          "--seed", "3"],
         {"params", "choice", "completed", "reason", "output", "correct", "frames"}),
        (["attack", "--trials", "40"], {"checks", "passed"}),
        (["lemmas", "--trials", "40"], {"checks", "passed"}),
        (["selftest"], {"checks", "passed"}),
    ])
    def test_json_top_level_keys(self, capsys, argv, keys):
        import json
        assert cli.main(argv + ["--json"]) == cli.EXIT_OK
        assert set(json.loads(capsys.readouterr().out)) == keys

    @pytest.mark.parametrize("argv", [
        ["attack", "--trials", "40"],
        ["lemmas", "--trials", "40"],
        ["selftest"],
    ])
    def test_json_is_one_object(self, capsys, argv):
        import json
        assert cli.main(argv + ["--json"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert len(doc["checks"]) >= 4
        for check in doc["checks"]:
            assert check["name"] and check["passed"] is True
            if argv[0] != "selftest":
                # every check row carries its bound, and either a Monte
                # Carlo count or an exact value
                assert {"bound", "bound_formula"} <= set(check)
                assert {"trials", "successes"} <= set(check) or "value" in check
