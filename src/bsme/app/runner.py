"""Drive full protocol sessions over a channel, in-process or across hosts.

Randomness is compartmentalized per role: each party draws from
random.Random(f"{seed}:{role}"), the broadcast source from
random.Random(f"{seed}:source"), and default inputs from
random.Random(f"{seed}:input") in a fixed order: the commitment value; for a
transfer, the choice bit (drawn even when a choice is given) and then s0 and
s1.  Two runs with the same seed therefore produce byte-identical transcripts
on either transport, and the two halves of a cross-host session regenerate
the same broadcast and the same default inputs locally.

Each party's message order lives in its ``play`` generator; ``_play`` carries
any of them over a channel, framing what the party yields and reading what
it waits for.  It is the one place frames are made, read and recorded: an
in-process session appends (sender label, frame) to its transcript, under
one lock per session, just before each send, the closing frame included; a
cross-host party records nothing, and a channel only carries the bytes.

A frame that does not parse, or is of the wrong type, is thrown into the
party as a `SetupAbort`, so it ends like a check of the party's own that
refuses the peer's data: in one place, which sends the closing frame (the
party's failed result if the abort is marked ``reported``, else an abort),
reads until the peer closes, and reports the reason.  A peer's abort ends
the party without a reply.  Any other exception is a bug and propagates to
the caller.  A closing frame that claims ok against its own type or bit (an
abort with reason ok, or a result with reason ok and its ok bit clear) is
refused as a malformed message.

A party's result is a dict whose ``reason`` is the one record of how it
ended: ``Reason.OK`` on success, and then its output (``opened`` or
``output``) beside it.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from ..bits import BitString
from ..commit import Committer, Verifier
from ..infomath import CommitParams, OTParams
from ..ot import OTReceiver, OTSender
from ..reasons import Reason, ResultMsg, SetupAbort
from ..source import SourceConfig, SourcePair, generate
from .channel import ChannelClosed, memory_pair, socketpair_channels
from .framing import AbortMsg, FrameError, decode_message, encode_message

__all__ = [
    "CommitOutcome",
    "OTOutcome",
    "run_commit_session",
    "run_ot_session",
    "commit_party",
    "ot_party",
    "role_rng",
]

JOIN_TIMEOUT = 60.0


def role_rng(seed: int, role: str) -> random.Random:
    return random.Random(f"{seed}:{role}")


@dataclass(frozen=True)
class CommitOutcome:
    value: BitString
    reason: Reason
    opened: BitString | None
    transcript: tuple[tuple[str, bytes], ...]

    @property
    def accepted(self) -> bool:
        return self.reason is Reason.OK


@dataclass(frozen=True)
class OTOutcome:
    """``reason`` is the receiver's unless that is ok: the sender only
    learns that the payload was accepted in shape, not whether it decoded."""

    choice: int
    secrets: tuple[BitString, BitString]
    reason: Reason
    output: BitString | None
    transcript: tuple[tuple[str, bytes], ...]

    @property
    def completed(self) -> bool:
        return self.reason is Reason.OK

    @property
    def correct(self) -> bool:
        return self.completed and self.output == self.secrets[self.choice]


# --------------------------------------------------------------------------
# carrying one party's play over a channel


def _play(chan, party, pair: SourcePair, record) -> dict:
    """Carry `party.play(pair)` over `chan`, handing each frame to `record`
    (if any) just before it is sent; on a refusal, report its reason."""
    game = party.play(pair)
    try:
        step = next(game)
        while True:
            if not isinstance(step, type):
                frame = encode_message(step)
                if record:
                    record(frame)
                chan.send(frame)
                step = next(game)
                continue
            try:
                msg = decode_message(chan.recv())
            except FrameError:
                msg = None
            if isinstance(msg, AbortMsg) and msg.reason is not Reason.OK:
                return {"reason": msg.reason}
            if isinstance(msg, ResultMsg) and not msg.ok and msg.reason is Reason.OK:
                msg = None  # claims ok against its own bit
            if isinstance(msg, step):
                step = game.send(msg)
            else:
                step = game.throw(SetupAbort(Reason.MALFORMED_MESSAGE))
    except StopIteration as done:
        return done.value
    except SetupAbort as abort:
        reason = abort.reason
        failure = ResultMsg(False, reason, BitString.zeros(0))
        frame = encode_message(failure if abort.reported else AbortMsg(reason))
        if record:
            record(frame)
        chan.send(frame)
    # The peer may still have frames in flight; read until it sees the
    # closing frame and closes, so our close does not reset its last send.
    try:
        while True:
            chan.recv()
    except (ConnectionError, FrameError):
        pass
    return {"reason": reason}


# --------------------------------------------------------------------------
# one builder per protocol: inputs, broadcast, and each role bound to a channel


def _commit_roles(params: CommitParams, seed: int, value: BitString | None):
    if value is None:
        value = BitString.random(params.m, role_rng(seed, "input"))
    pair = generate(SourceConfig(params.n, params.alpha, params.delta, f"{seed}:source"))
    return value, {
        "committer": lambda chan, record: _play(
            chan, Committer(params, value, role_rng(seed, "alice")), pair, record),
        "verifier": lambda chan, record: _play(
            chan, Verifier(params, role_rng(seed, "bob")), pair, record),
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
    pair = generate(SourceConfig(params.n, params.alpha, params.delta, f"{seed}:source"))
    s0, s1 = secrets
    return choice, secrets, {
        "sender": lambda chan, record: _play(
            chan, OTSender(params, s0, s1, role_rng(seed, "alice")), pair, record),
        "receiver": lambda chan, record: _play(
            chan, OTReceiver(params, choice, role_rng(seed, "bob")), pair, record),
    }


# --------------------------------------------------------------------------
# in-process sessions


_CHANNELS = {"memory": memory_pair, "socket": socketpair_channels}


def _run_pair(side_a, side_b, transport: str, transcript: list) -> tuple[dict, dict]:
    """Run side A and side B on their own threads over a new channel pair,
    appending each frame to `transcript` under its sender's label as it is sent."""
    if transport not in _CHANNELS:
        raise ValueError(f"unknown transport {transport!r}")
    lock = threading.Lock()
    results: dict[str, object] = {}

    def wrap(label, side, chan):
        def record(frame: bytes) -> None:
            with lock:
                transcript.append((label, frame))

        try:
            results[label] = side(chan, record)
        except BaseException as exc:  # propagated after join
            results[label] = exc
        finally:
            chan.close()

    chan_a, chan_b = _CHANNELS[transport]()
    ta = threading.Thread(target=wrap, args=("A", side_a, chan_a), daemon=True)
    tb = threading.Thread(target=wrap, args=("B", side_b, chan_b), daemon=True)
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
    return results["A"], results["B"]  # type: ignore[return-value]


def run_commit_session(
    params: CommitParams,
    value: BitString | None = None,
    seed: int = 0,
    transport: str = "memory",
) -> CommitOutcome:
    value, roles = _commit_roles(params, seed, value)
    transcript: list = []
    _, res_b = _run_pair(roles["committer"], roles["verifier"], transport, transcript)
    return CommitOutcome(
        value=value,
        reason=res_b["reason"],
        opened=res_b.get("opened"),
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
    res_a, res_b = _run_pair(roles["sender"], roles["receiver"], transport, transcript)
    return OTOutcome(
        choice=choice,
        secrets=secrets,
        reason=res_b["reason"] if res_b["reason"] != Reason.OK else res_a["reason"],
        output=res_b.get("output"),
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
    out = _role(roles, role, "commit")(chan, None)
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
    out = _role(roles, role, "transfer")(chan, None)
    if role == "sender":
        out["secrets"] = secrets
    else:
        out["choice"] = choice
    return out
