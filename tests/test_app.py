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
        tag, fields = decode_frame(encode_frame(framing.TAG_IH_QUERY, [f]))
        assert tag == framing.TAG_IH_QUERY
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
            encode_frame(framing.TAG_E_BIT, [BitString(1, 1), BitString(1, 0)])
        # header rewritten to claim two fields
        data = bytearray(encode_message(EBit(1)))
        data[4] = 2
        with pytest.raises(FrameError):
            decode_frame(bytes(data))

    def test_nonzero_padding_rejected(self):
        # 4-bit field packed into one byte: the top nibble must be zero
        good = encode_frame(framing.TAG_IH_QUERY, [BitString(4, 0xF)])
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
        header = bytes([framing.TAG_IH_QUERY]) + (1).to_bytes(4, "big")
        huge = (framing.MAX_FIELD_BITS + 1).to_bytes(4, "big")
        with pytest.raises(FrameError):
            decode_frame(header + huge)


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
        a = runner.run_ot_session(OT_PARAMS, seed=6, choice=0)
        b = runner.run_ot_session(OT_PARAMS, seed=6, choice=1)
        assert a.correct and b.correct
        diffs = [
            (fa, fb)
            for (la, fa), (lb, fb) in zip(a.transcript, b.transcript)
            if fa != fb
        ]
        assert len(diffs) == 1
        assert diffs[0][0][0] == framing.TAG_E_BIT
        assert diffs[0][1][0] == framing.TAG_E_BIT

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

    def test_selftest(self, capsys):
        assert cli.main(["selftest"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") >= 4

    def test_underivable_parameters_exit_usage(self, capsys):
        # gamma=0.9 leaves the source no entropy to beat: derive_commit_params refuses
        assert cli.main(["commit", "--n", "64", "--ell", "8", "--gamma", "0.9",
                         "--value", "1"]) == cli.EXIT_USAGE
        assert "infeasible" in capsys.readouterr().err

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
