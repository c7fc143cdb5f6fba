"""Drive full protocol sessions over a channel, in-process or across hosts.

Randomness is compartmentalized per role: each party draws from
random.Random(f"{seed}:{role}"), the broadcast source from
random.Random(f"{seed}:source"), and default inputs from
random.Random(f"{seed}:input") in a fixed order: the commitment value; for a
transfer, the choice bit (drawn even when a choice is given) and then s0 and
s1.  Two runs with the same seed therefore produce byte-identical transcripts
on either transport, and the two halves of a cross-host session regenerate
the same broadcast and the same default inputs locally.

Each party's message order is written once, as straight-line code.  A frame
that does not parse, a frame of the wrong type, a peer's abort, or a check of
the party's own that refuses the peer's data (a `SetupAbort` carrying its
reason) ends the party in one place, ``_play``: it sends the party's closing
frame (if any), reads until the peer closes, and reports the reason.  Any
other exception is a bug and propagates to the caller.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from ..bits import BitString
from ..commit import CommitMessage, Committer, OpenMessage, Verifier
from ..infomath import CommitParams, OTParams
from ..ot import OTReceiver, OTSender, TransferPayload
from ..reasons import Reason, SetupAbort
from ..source import SourceConfig, SourcePair, generate
from .channel import ChannelClosed, memory_pair, socketpair_channels
from .framing import (
    AbortMsg,
    EBit,
    FrameError,
    HashDesc,
    IHQuery,
    IHResponse,
    ResultMsg,
    SetA,
    decode_message,
    encode_message,
)

__all__ = [
    "CommitOutcome",
    "OTOutcome",
    "run_commit_session",
    "run_ot_session",
    "commit_party",
    "ot_party",
    "role_rng",
    "build_source",
]

JOIN_TIMEOUT = 60.0


def role_rng(seed: int, role: str) -> random.Random:
    return random.Random(f"{seed}:{role}")


def build_source(n: int, alpha: float, delta: float, seed: int) -> SourcePair:
    return generate(SourceConfig(n=n, alpha=alpha, delta=delta, seed=f"{seed}:source"))


@dataclass(frozen=True)
class CommitOutcome:
    value: BitString
    accepted: bool
    reason: Reason
    opened: BitString | None
    transcript: tuple[tuple[str, bytes], ...]


@dataclass(frozen=True)
class OTOutcome:
    """``completed`` needs the receiver's success: the sender only learns
    that the payload was accepted in shape, not whether it decoded."""

    choice: int
    secrets: tuple[BitString, BitString]
    completed: bool
    reason: Reason
    output: BitString | None
    transcript: tuple[tuple[str, bytes], ...]

    @property
    def correct(self) -> bool:
        return self.completed and self.output == self.secrets[self.choice]


# --------------------------------------------------------------------------
# reading, sending and aborting


class _Abort(Exception):
    """Ends a party early with `reason`, sending `reply` first unless None."""

    def __init__(self, reason: Reason, reply: object | None):
        super().__init__(reason.label)
        self.reason = reason
        self.reply = reply


def _closing(ok: bool, reason: Reason) -> ResultMsg:
    return ResultMsg(ok, reason, BitString.zeros(0))


_MALFORMED = AbortMsg(Reason.MALFORMED_MESSAGE)


def _send(chan, msg) -> None:
    chan.send(encode_message(msg))


def _expect(chan, cls, reply: object = _MALFORMED):
    """The peer's next message, which must be a `cls`; anything else aborts."""
    try:
        msg = decode_message(chan.recv())
    except FrameError:
        raise _Abort(Reason.MALFORMED_MESSAGE, reply) from None
    if isinstance(msg, AbortMsg):
        raise _Abort(msg.reason, None)
    if not isinstance(msg, cls):
        raise _Abort(Reason.MALFORMED_MESSAGE, reply)
    return msg


def _play(chan, party, pair: SourcePair, steps, failed: dict) -> dict:
    """Run one party's message order; on an abort, report the failed result."""
    party.transmit(pair)
    try:
        return steps(chan, party)
    except _Abort as abort:
        reason, reply = abort.reason, abort.reply
    except SetupAbort as abort:
        reason, reply = abort.reason, AbortMsg(abort.reason)
    if reply is not None:
        _send(chan, reply)
        # The peer may still have frames in flight; read until it sees the
        # reply and closes, so our close does not reset its last send.
        try:
            while True:
                chan.recv()
        except (ConnectionError, FrameError):
            pass
    return dict(failed, reason=reason)


# --------------------------------------------------------------------------
# message order of each role


def _committer(chan, party: Committer) -> dict:
    _send(chan, party.make_commitment(_expect(chan, HashDesc).diag))
    _send(chan, party.open())
    result = _expect(chan, ResultMsg)
    opened = result.value if result.ok else None
    return {"accepted": result.ok, "reason": result.reason, "opened": opened}


def _verifier(chan, party: Verifier) -> dict:
    _send(chan, HashDesc(party.choose_hash()))
    reject = _closing(False, Reason.MALFORMED_MESSAGE)
    party.receive_commitment(_expect(chan, CommitMessage, reject))
    opening = _expect(chan, OpenMessage, reject)
    res = party.verify(opening)
    opened = opening.value if res.accept else None
    _send(chan, ResultMsg(res.accept, res.reason, opened or BitString.zeros(0)))
    return {"accepted": res.accept, "reason": res.reason, "opened": opened}


def _sender(chan, party: OTSender) -> dict:
    _send(chan, SetA(party.begin_setup()))
    while not party.querier.finished:
        _send(chan, IHQuery(party.next_query()))
        party.take_response(_expect(chan, IHResponse).bit)
    e = _expect(chan, EBit).e
    party.finish_setup()
    _send(chan, party.transfer(e))
    result = _expect(chan, ResultMsg)  # ok: the payload was accepted in shape
    return {"completed": result.ok, "reason": result.reason}


def _receiver(chan, party: OTReceiver) -> dict:
    party.receive_positions(_expect(chan, SetA).positions)
    for _ in range(party.params.m - 1):
        _send(chan, IHResponse(party.respond(_expect(chan, IHQuery).q)))
    _send(chan, EBit(party.finish_setup()))
    payload = _expect(chan, TransferPayload)
    try:
        output = party.receive_payload(payload)
    except SetupAbort as abort:  # a shape check over both branches, the same for either d
        raise _Abort(abort.reason, _closing(False, abort.reason)) from None
    # The same reply whatever the decode gives: a failure only on the
    # receiver's own branch would tell the sender d, and so the choice.
    _send(chan, _closing(True, Reason.OK))
    reason = Reason.OK if output is not None else Reason.DECODE_FAILURE
    return {"completed": output is not None, "reason": reason, "output": output}


# --------------------------------------------------------------------------
# one builder per protocol: inputs, broadcast, and each role bound to a channel


def _commit_roles(params: CommitParams, seed: int, value: BitString | None):
    if value is None:
        value = BitString.random(params.m, role_rng(seed, "input"))
    pair = build_source(params.n, params.alpha, params.delta, seed)
    failed = {"accepted": False, "opened": None}
    return value, {
        "committer": lambda chan: _play(
            chan, Committer(params, value, role_rng(seed, "alice")), pair, _committer, failed),
        "verifier": lambda chan: _play(
            chan, Verifier(params, role_rng(seed, "bob")), pair, _verifier, failed),
    }


def _ot_roles(
    params: OTParams,
    seed: int,
    choice: int | None,
    secrets: tuple[BitString, BitString] | None,
):
    rng_in = role_rng(seed, "input")
    drawn = rng_in.getrandbits(1)  # drawn even when given: the secrets come after it
    choice = drawn if choice is None else choice
    if secrets is None:
        secrets = (
            BitString.random(params.payload_len, rng_in),
            BitString.random(params.payload_len, rng_in),
        )
    pair = build_source(params.n, params.alpha, params.delta, seed)
    s0, s1 = secrets
    return choice, secrets, {
        "sender": lambda chan: _play(
            chan, OTSender(params, s0, s1, role_rng(seed, "alice")), pair, _sender,
            {"completed": False}),
        "receiver": lambda chan: _play(
            chan, OTReceiver(params, choice, role_rng(seed, "bob")), pair, _receiver,
            {"completed": False, "output": None}),
    }


# --------------------------------------------------------------------------
# in-process sessions


def _run_pair(side_a, side_b, chan_a, chan_b) -> tuple[dict, dict]:
    results: dict[str, object] = {}

    def wrap(name, fn, chan):
        try:
            results[name] = fn(chan)
        except BaseException as exc:  # propagated after join
            results[name] = exc
        finally:
            chan.close()

    ta = threading.Thread(target=wrap, args=("a", side_a, chan_a), daemon=True)
    tb = threading.Thread(target=wrap, args=("b", side_b, chan_b), daemon=True)
    ta.start()
    tb.start()
    ta.join(JOIN_TIMEOUT)
    tb.join(JOIN_TIMEOUT)
    if ta.is_alive() or tb.is_alive():
        raise RuntimeError("session deadlocked")
    # A party that raised closed its channel, so its peer's ChannelClosed is
    # only the consequence: raise the cause.
    errors = sorted((r for r in results.values() if isinstance(r, BaseException)),
                    key=lambda exc: isinstance(exc, ChannelClosed))
    if errors:
        raise errors[0]
    return results["a"], results["b"]  # type: ignore[return-value]


def _make_channels(transport: str, transcript: list):
    if transport == "memory":
        return memory_pair(transcript)
    if transport == "socket":
        return socketpair_channels(transcript)
    raise ValueError(f"unknown transport {transport!r}")


def run_commit_session(
    params: CommitParams,
    value: BitString | None = None,
    seed: int = 0,
    transport: str = "memory",
) -> CommitOutcome:
    value, roles = _commit_roles(params, seed, value)
    transcript: list = []
    chans = _make_channels(transport, transcript)
    _, res_b = _run_pair(roles["committer"], roles["verifier"], *chans)
    return CommitOutcome(
        value=value,
        accepted=bool(res_b["accepted"]),
        reason=res_b["reason"],
        opened=res_b["opened"],
        transcript=tuple(transcript),
    )


def run_ot_session(
    params: OTParams,
    choice: int | None = None,
    secrets: tuple[BitString, BitString] | None = None,
    seed: int = 0,
    transport: str = "memory",
) -> OTOutcome:
    choice, secrets, roles = _ot_roles(params, seed, choice, secrets)
    transcript: list = []
    chans = _make_channels(transport, transcript)
    res_a, res_b = _run_pair(roles["sender"], roles["receiver"], *chans)
    return OTOutcome(
        choice=choice,
        secrets=secrets,
        completed=bool(res_a["completed"]) and bool(res_b["completed"]),
        reason=res_b["reason"] if res_b["reason"] != Reason.OK else res_a["reason"],
        output=res_b["output"],
        transcript=tuple(transcript),
    )


# --------------------------------------------------------------------------
# single-party entry points (cross-host sessions)


def _role(roles: dict, role: str, protocol: str):
    if role not in roles:
        raise ValueError(f"unknown {protocol} role {role!r}")
    return roles[role]


def commit_party(
    role: str,
    chan,
    params: CommitParams,
    seed: int,
    value: BitString | None = None,
) -> dict:
    """Run one side of a commitment over an established channel.  Both hosts
    must share seed and parameters so they regenerate the same broadcast."""
    value, roles = _commit_roles(params, seed, value)
    out = _role(roles, role, "commit")(chan)
    if role == "committer":
        out["value"] = value
    return out


def ot_party(
    role: str,
    chan,
    params: OTParams,
    seed: int,
    choice: int | None = None,
    secrets: tuple[BitString, BitString] | None = None,
) -> dict:
    """Run one side of a transfer; see `commit_party`."""
    choice, secrets, roles = _ot_roles(params, seed, choice, secrets)
    out = _role(roles, role, "transfer")(chan)
    if role == "sender":
        out["secrets"] = secrets
    else:
        out["choice"] = choice
    return out
