import dataclasses
import hashlib
import random
import socket
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsme.bits import BitString, IndexSet
from bsme.codes import LinearCode
from bsme.commit import CommitMessage, OpenMessage
from bsme.infomath import derive_commit_params, derive_ot_params
from bsme.ot import TransferPayload
from bsme.reasons import Reason
from bsme.app import channel, cli, framing, runner
from bsme.app.framing import (
    AbortMsg,
    EBit,
    FrameError,
    HashDesc,
    IHQuery,
    IHResponse,
    ResultMsg,
    SetA,
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

    def test_empty_send_refused(self):
        a, _ = channel.memory_pair()
        with pytest.raises(ValueError):
            a.send(b"")

    def test_transcript_records_at_send(self):
        transcript = []
        a, b = channel.memory_pair(transcript)
        a.send(b"x")
        b.send(b"y")
        b.recv()  # order is fixed by send time, not receive time
        assert transcript == [("A", b"x"), ("B", b"y")]

    def test_socketpair_roundtrip(self):
        transcript = []
        a, b = channel.socketpair_channels(transcript)
        try:
            frame = encode_message(EBit(1))
            a.send(frame)
            assert b.recv() == frame
        finally:
            a.close()
            b.close()
        assert transcript == [("A", frame)]

    def test_stream_close_breaks_recv(self):
        a, b = channel.socketpair_channels(None)
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
            "17052b04041ef6949f5531b0628b860614acb46063edea7f1228d45391ddf8f9")
        assert len(ot.transcript) == 450
        assert digest(ot.transcript) == (
            "552095e842308c5707025164b8900a287eacfc2eac2b32eaf700978f25cd46b0")

    def test_cross_host_parties_agree(self):
        # drive commit_party on both ends of one socket pair
        lhs, rhs = socket.socketpair()
        results = {}

        def run(role, sock):
            chan = channel.StreamChannel(sock, role, None, threading.Lock())
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
        assert results["verifier"]["accepted"]
        assert results["verifier"]["opened"] == BitString(COMMIT_PARAMS.m, 1)

    def test_cross_host_ot_matches_in_process(self):
        # Both halves derive the same default secrets as the in-process run
        # when only the choice is given.
        transcript = []
        chans = dict(zip(("sender", "receiver"), channel.socketpair_channels(transcript)))
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
HOSTILE_JOIN_TIMEOUT = 10.0
_PADDED = bytes.fromhex("06 00000001 00000003 ff".replace(" ", ""))  # padding bits set
_SHORT_QUERY = encode_message(IHQuery(BitString(3, 5)))
_PEER_ABORT = encode_message(AbortMsg(Reason.DIGEST_MISMATCH))


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
    def _run(role, incoming):
        """Run `role` against a peer that sends `incoming` and then closes;
        return the party's result and the messages it sent."""
        transcript = []
        mine, peer = channel.memory_pair(transcript)
        result = {}

        def run():
            try:
                if role in ("committer", "verifier"):
                    result["out"] = runner.commit_party(role, mine, COMMIT_PARAMS, HOSTILE_SEED)
                else:
                    result["out"] = runner.ot_party(role, mine, OT_PARAMS, HOSTILE_SEED)
            except BaseException as exc:
                result["exc"] = exc

        party = threading.Thread(target=run, daemon=True)
        party.start()
        for frame in incoming:
            peer.send(frame)
        peer.close()
        party.join(HOSTILE_JOIN_TIMEOUT)
        assert not party.is_alive()
        assert "exc" not in result, result.get("exc")
        out = result["out"]
        assert not out.get("accepted", out.get("completed"))
        return out, [decode_message(frame) for label, frame in transcript if label == "A"]

    @pytest.mark.parametrize("kind", ["padding", "wrong-type", "short-query", "peer-abort"])
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

    def test_refused_hash_aborts_committer(self):
        # A well-formed HashDesc whose diagonal does not fit k and the digest length
        out, sent = self._run("committer", [encode_message(HashDesc(BitString(3, 5)))])
        assert out["reason"] is Reason.MALFORMED_MESSAGE
        assert sent == [AbortMsg(Reason.MALFORMED_MESSAGE)]

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
        cfg = tmp_path / "session.cfg"
        cfg.write_text("# session defaults\nn = 512\nell = 8\nseed = 6\njson = true\n")
        import json
        assert cli.main(["commit", "--config", str(cfg)]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is True
        # explicit flag beats the file: seed 7 must reproduce a plain seed-7 run
        assert cli.main(["commit", "--config", str(cfg), "--seed", "7"]) == cli.EXIT_OK
        doc2 = json.loads(capsys.readouterr().out)
        assert cli.main(["commit", "--n", "512", "--ell", "8", "--seed", "7",
                         "--json"]) == cli.EXIT_OK
        direct = json.loads(capsys.readouterr().out)
        assert doc2["value"] == direct["value"]
        assert doc2["value"] != doc["value"]

    def test_config_unknown_key_exits_usage(self, tmp_path, capsys):
        # a misspelt key fails loudly instead of running at the default
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("n = 512\nell = 8\ngama = 0.5\n")
        assert cli.main(["commit", "--config", str(cfg)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "gama" in captured.err
        assert captured.out == ""

    def test_config_key_of_another_subcommand_accepted(self, tmp_path, capsys):
        # `trials` belongs to attack and lemmas; commit ignores it
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("n = 512\nell = 8\nseed = 3\ntrials = 5\n")
        assert cli.main(["commit", "--config", str(cfg)]) == cli.EXIT_OK
        assert "accept" in capsys.readouterr().out

    def test_config_file_errors_exit_usage(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n 512\n")
        assert cli.main(["commit", "--config", str(bad)]) == cli.EXIT_USAGE
        assert cli.main(["commit", f"--config={tmp_path / 'missing.cfg'}"]) == cli.EXIT_USAGE

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
