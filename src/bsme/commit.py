"""Bit-string commitment over the shared noisy source.

Both parties watch the public string and keep k sampled bits each.  The
verifier picks the binding hash g.  To commit to v, the committer sends its
sample positions A, a fresh extractor seed u, the masked value
``v xor extract(X[A], u)``, and the digest ``g(X[A])``.  To open, it reveals
v and claims W for X[A]; the verifier checks W against its own noisy sample
on the overlap, checks the digest, and re-derives the masked value:

  accept iff  |A & B| >= ell
          and HD(W on overlap, noisy sample on overlap) <= floor((delta+zeta)*|overlap|)
          and g(W) == digest
          and extract(W, u) xor masked == claimed value

Each party's ``play`` generator is the one place its message order is written.
A refusal at any check raises `SetupAbort` with that check's reason, and a
party's result is that reason: ``Reason.OK`` when the value was opened.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bits import BitString, IndexSet
from .hashing import ToeplitzHash, random_seed, seed_length, strong_extract
from .infomath import CommitParams, floor_tol
from .reasons import Reason, ResultMsg, SetupAbort
from .source import SourcePair, sample_positions

__all__ = [
    "HashDesc",
    "CommitMessage",
    "OpenMessage",
    "Committer",
    "Verifier",
]


@dataclass(frozen=True)
class HashDesc:
    """Verifier's hash choice, carried as the Toeplitz diagonal."""

    diag: BitString


@dataclass(frozen=True)
class CommitMessage:
    masked: BitString      # v xor extract(X[A], u)
    digest: BitString      # g(X[A])
    a: IndexSet            # the committer's sample positions
    u: BitString           # extractor seed


@dataclass(frozen=True)
class OpenMessage:
    value: BitString       # claimed v
    w: BitString           # claimed X[A]


class Committer:
    def __init__(self, params: CommitParams, value: BitString, rng: random.Random):
        if value.length != params.m:
            raise ValueError(f"value must have m={params.m} bits")
        self.params = params
        self.value = value
        self._rng = rng
        self.a: IndexSet | None = None
        self._x_a: BitString | None = None

    def play(self, pair: SourcePair):
        """The committer's message order, as a generator.

        It yields each message the party sends and the class of each message
        it waits for; that message comes back through ``send()``.  It returns
        the reason the verifier reports, and the value it opened when that
        reason is ok.  A refusal raises `SetupAbort`.
        """
        self.transmit(pair)
        yield self.make_commitment((yield HashDesc).diag)
        yield self.open()
        result = yield ResultMsg
        ok = result.reason is Reason.OK
        return {"reason": result.reason, "opened": result.value if ok else None}

    def transmit(self, pair: SourcePair) -> None:
        """Sample k positions of the clean view; only those bits are kept."""
        p = self.params
        self.a = sample_positions(p.n, p.k, self._rng)
        self._x_a = pair.x.restrict(self.a)

    def make_commitment(self, diag: BitString) -> CommitMessage:
        """Commit under the verifier's hash g, given by its Toeplitz diagonal."""
        p = self.params
        if diag.length != seed_length(p.k, p.digest_len):
            raise SetupAbort(Reason.MALFORMED_MESSAGE)
        g = ToeplitzHash(p.k, p.digest_len, diag)
        u = random_seed(p.k, p.m, self._rng)
        masked = self.value ^ strong_extract(self._x_a, u, p.m)
        return CommitMessage(masked=masked, digest=g(self._x_a), a=self.a, u=u)

    def open(self) -> OpenMessage:
        return OpenMessage(value=self.value, w=self._x_a)


class Verifier:
    def __init__(self, params: CommitParams, rng: random.Random):
        self.params = params
        self._rng = rng
        self.b: IndexSet | None = None
        self._xt_b: BitString | None = None
        self.hash: ToeplitzHash | None = None
        self._commitment: CommitMessage | None = None

    def play(self, pair: SourcePair):
        """The verifier's message order; see `Committer.play`.  It answers
        any refusal with its failed result rather than an abort."""
        self.transmit(pair)
        yield HashDesc(self.choose_hash())
        try:
            self.receive_commitment((yield CommitMessage))
            opening = yield OpenMessage
            self.verify(opening)
        except SetupAbort as abort:
            abort.reported = True
            raise
        yield ResultMsg(True, Reason.OK, opening.value)
        return {"reason": Reason.OK, "opened": opening.value}

    def transmit(self, pair: SourcePair) -> None:
        """Sample k positions of the noisy view; only those bits are kept."""
        p = self.params
        self.b = sample_positions(p.n, p.k, self._rng)
        self._xt_b = pair.x_tilde.restrict(self.b)

    def choose_hash(self) -> BitString:
        """Draw the binding hash g; its Toeplitz diagonal is what is sent."""
        p = self.params
        self.hash = ToeplitzHash(p.k, p.digest_len, random_seed(p.k, p.digest_len, self._rng))
        return self.hash.diag

    def receive_commitment(self, msg: CommitMessage) -> None:
        """Keep the commitment; its shape is checked with the opening, since
        the committer sends that without waiting for an answer."""
        self._commitment = msg

    def verify(self, opening: OpenMessage) -> None:
        """Raise `SetupAbort` at the first check the opening fails."""
        p = self.params
        msg = self._commitment
        shapes = ((msg.masked, p.m), (msg.digest, p.digest_len), (msg.u, seed_length(p.k, p.m)),
                  (opening.w, p.k), (opening.value, p.m))
        if msg.a.ground != p.n or len(msg.a) != p.k or any(f.length != n for f, n in shapes):
            raise SetupAbort(Reason.MALFORMED_MESSAGE)
        overlap = msg.a.intersect(self.b)
        c = len(overlap)
        if c < p.ell:
            raise SetupAbort(Reason.SMALL_INTERSECTION)
        w_c = opening.w.restrict(overlap.positions_within(msg.a))
        mine_c = self._xt_b.restrict(overlap.positions_within(self.b))
        if w_c.hamming(mine_c) > floor_tol((p.delta + p.zeta) * c):
            raise SetupAbort(Reason.DISTANCE_EXCEEDED)
        if self.hash(opening.w) != msg.digest:
            raise SetupAbort(Reason.DIGEST_MISMATCH)
        if strong_extract(opening.w, msg.u, p.m) ^ msg.masked != opening.value:
            raise SetupAbort(Reason.VALUE_MISMATCH)
