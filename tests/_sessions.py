"""One direct driver per protocol, shared by the tests.

Each driver builds the parties from their own seed labels and runs both
parties' ``play`` generators through one pump, in one thread and with no wire
in between; the session runner is the one driver that frames messages.
Edits apply to a message as it is delivered.  A commit session records how
it ended as ``run.reason``; a transfer session lets a ``SetupAbort``
propagate.  The labels: ``{seed}:src`` the broadcast, ``{seed}:val`` the
committed value, ``{seed}:c`` and ``{seed}:v`` the committer and the
verifier, ``{seed}:tamper`` the coins of an edit in transit, ``{seed}:i`` the
two secrets and then the choice, and ``{seed}:s`` and ``{seed}:r`` the sender
and the receiver.
"""

import random
from dataclasses import dataclass

from bsme.bits import BitString
from bsme.commit import CommitMessage, Committer, OpenMessage, Verifier
from bsme.ot import IHQuery, OTReceiver, OTSender, TransferPayload
from bsme.reasons import Reason, SetupAbort
from bsme.source import SourceConfig, generate


def _broadcast(params, seed, noisy):
    return generate(SourceConfig(n=params.n, alpha=params.alpha,
                                 delta=params.delta if noisy else 0.0,
                                 seed=f"{seed}:src"))


def _pump(first, second, deliver):
    """Run two ``play`` generators to their ends and return what each returns.

    A message one yields waits in the other's inbox, and reaches it through
    ``deliver`` when it takes it.  A party waiting on an empty inbox gives
    the turn to its peer; a ``SetupAbort`` from either propagates.
    """
    games, steps, inboxes, results = (first, second), [next(first), next(second)], ([], []), {}

    def waits(side):
        return side in results or isinstance(steps[side], type) and not inboxes[side]

    side = 0
    while len(results) < 2:
        if waits(side):
            if waits(1 - side):
                raise RuntimeError("both parties wait")
            side = 1 - side
            continue
        try:
            if isinstance(steps[side], type):
                steps[side] = games[side].send(deliver(inboxes[side].pop(0)))
            else:
                inboxes[1 - side].append(steps[side])
                steps[side] = next(games[side])
        except StopIteration as done:
            results[side] = done.value
    return results[0], results[1]


@dataclass
class CommitRun:
    com: Committer
    ver: Verifier
    tamper: random.Random
    commitment: CommitMessage | None = None
    opening: OpenMessage | None = None
    reason: Reason | None = None

    @property
    def accepted(self) -> bool:
        return self.reason is Reason.OK


def _keep(msg, run):
    return msg


def commit_session(params, seed, value=None, noisy=True,
                   edit_commitment=_keep, edit_opening=_keep) -> CommitRun:
    """One commit session, its value drawn from ``{seed}:val`` unless given.

    Each edit hook takes the message in transit and the run so far, and
    returns the message the verifier receives in its place; ``run.tamper``
    holds the ``{seed}:tamper`` coins for it.  A refusal by either party
    ends the run with its reason.
    """
    pair = _broadcast(params, seed, noisy)
    if value is None:
        value = BitString.random(params.m, random.Random(f"{seed}:val"))
    run = CommitRun(Committer(params, value, random.Random(f"{seed}:c")),
                    Verifier(params, random.Random(f"{seed}:v")),
                    random.Random(f"{seed}:tamper"))

    def deliver(msg):
        if isinstance(msg, CommitMessage):
            run.commitment = msg = edit_commitment(msg, run)
        elif isinstance(msg, OpenMessage):
            run.opening = msg = edit_opening(msg, run)
        return msg

    try:
        run.reason = _pump(run.com.play(pair), run.ver.play(pair), deliver)[1]["reason"]
    except SetupAbort as refusal:
        run.reason = refusal.reason
    return run


@dataclass
class OTRun:
    secrets: tuple[BitString, BitString]
    choice: int
    sender: OTSender
    receiver: OTReceiver
    payload: TransferPayload
    output: BitString | None


def ot_session(params, seed, choice=None, secrets=None, noisy=True,
               before_hashing=None) -> OTRun:
    """One transfer session; a ``SetupAbort`` propagates.

    Secrets left out are drawn from ``{seed}:i``, and a choice left out is
    drawn from the same stream after them.  ``before_hashing(sender,
    receiver)`` runs as the first query is delivered: after the receiver has
    taken the positions and before it answers.
    """
    pair = _broadcast(params, seed, noisy)
    rng_i = random.Random(f"{seed}:i")
    if secrets is None:
        secrets = (BitString.random(params.payload_len, rng_i),
                   BitString.random(params.payload_len, rng_i))
    if choice is None:
        choice = rng_i.getrandbits(1)
    sender = OTSender(params, secrets[0], secrets[1], random.Random(f"{seed}:s"))
    receiver = OTReceiver(params, choice, random.Random(f"{seed}:r"))
    delivered = {}

    def deliver(msg):
        if isinstance(msg, IHQuery) and IHQuery not in delivered and before_hashing:
            before_hashing(sender, receiver)
        delivered[type(msg)] = msg
        return msg

    _, out = _pump(sender.play(pair), receiver.play(pair), deliver)
    return OTRun(secrets, choice, sender, receiver, delivered[TransferPayload], out["output"])
