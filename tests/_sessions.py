"""One direct driver per protocol, shared by the tests.

Each driver builds the parties from their own seed labels and passes every
message between them in the protocol's order, with no wire in between; the
session runner is the one driver that frames messages.  The labels:
``{seed}:src`` the broadcast, ``{seed}:val`` the committed value, ``{seed}:c``
and ``{seed}:v`` the committer and the verifier, ``{seed}:tamper`` the coins
of an edit in transit, ``{seed}:i`` the two secrets and then the choice, and
``{seed}:s`` and ``{seed}:r`` the sender and the receiver.
"""

import random
from dataclasses import dataclass

from bsme.bits import BitString
from bsme.commit import CommitMessage, Committer, OpenMessage, Verifier, VerifyResult
from bsme.ot import OTReceiver, OTSender, TransferPayload
from bsme.source import SourceConfig, generate


def _broadcast(params, seed, noisy):
    return generate(SourceConfig(n=params.n, alpha=params.alpha,
                                 delta=params.delta if noisy else 0.0,
                                 seed=f"{seed}:src"))


@dataclass
class CommitRun:
    com: Committer
    ver: Verifier
    tamper: random.Random
    commitment: CommitMessage | None = None
    opening: OpenMessage | None = None
    result: VerifyResult | None = None


def commit_session(params, seed, value=None, noisy=True,
                   edit_commitment=None, edit_opening=None) -> CommitRun:
    """One commit session, its value drawn from ``{seed}:val`` unless given.

    Each edit hook takes the message in transit and the run so far, and
    returns the message the verifier receives in its place; ``run.tamper``
    holds the ``{seed}:tamper`` coins for it.
    """
    pair = _broadcast(params, seed, noisy)
    if value is None:
        value = BitString.random(params.m, random.Random(f"{seed}:val"))
    run = CommitRun(Committer(params, value, random.Random(f"{seed}:c")),
                    Verifier(params, random.Random(f"{seed}:v")),
                    random.Random(f"{seed}:tamper"))
    run.com.transmit(pair)
    run.ver.transmit(pair)
    run.commitment = run.com.make_commitment(run.ver.choose_hash())
    if edit_commitment is not None:
        run.commitment = edit_commitment(run.commitment, run)
    run.ver.receive_commitment(run.commitment)
    run.opening = run.com.open()
    if edit_opening is not None:
        run.opening = edit_opening(run.opening, run)
    run.result = run.ver.verify(run.opening)
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
    receiver)`` runs after the receiver has taken the positions and before
    the first query.
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
    sender.transmit(pair)
    receiver.transmit(pair)
    receiver.receive_positions(sender.begin_setup())
    if before_hashing is not None:
        before_hashing(sender, receiver)
    while not sender.querier.finished:
        sender.take_response(receiver.respond(sender.next_query()))
    sender.finish_setup()
    payload = sender.transfer(receiver.finish_setup())
    return OTRun(secrets, choice, sender, receiver, payload,
                 receiver.receive_payload(payload))
