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
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bits import BitString, IndexSet
from .hashing import ToeplitzHash, random_seed, seed_length, strong_extract
from .infomath import CommitParams, floor_tol
from .reasons import Reason, SetupAbort, _Phased
from .source import SourcePair, sample_positions

__all__ = [
    "CommitMessage",
    "OpenMessage",
    "VerifyResult",
    "Committer",
    "Verifier",
]


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


@dataclass(frozen=True)
class VerifyResult:
    accept: bool
    reason: Reason


class Committer(_Phased):
    def __init__(self, params: CommitParams, value: BitString, rng: random.Random):
        super().__init__()
        if value.length != params.m:
            raise ValueError(f"value must have m={params.m} bits")
        self.params = params
        self.value = value
        self._rng = rng
        self.a: IndexSet | None = None
        self._x_a: BitString | None = None

    def transmit(self, pair: SourcePair) -> None:
        """Sample k positions of the clean view; only those bits are kept."""
        p = self.params
        self._advance("new", "transmitted")
        self.a = sample_positions(p.n, p.k, self._rng)
        self._x_a = pair.x.restrict(self.a)

    def make_commitment(self, diag: BitString) -> CommitMessage:
        """Commit under the verifier's hash g, given by its Toeplitz diagonal."""
        p = self.params
        self._advance("transmitted", "committed")
        if diag.length != seed_length(p.k, p.digest_len):
            raise SetupAbort(Reason.MALFORMED_MESSAGE)
        g = ToeplitzHash(p.k, p.digest_len, diag)
        u = random_seed(p.k, p.m, self._rng)
        masked = self.value ^ strong_extract(self._x_a, u, p.m)
        return CommitMessage(masked=masked, digest=g(self._x_a), a=self.a, u=u)

    def open(self) -> OpenMessage:
        self._advance("committed", "opened")
        return OpenMessage(value=self.value, w=self._x_a)


class Verifier(_Phased):
    def __init__(self, params: CommitParams, rng: random.Random):
        super().__init__()
        self.params = params
        self._rng = rng
        self.b: IndexSet | None = None
        self._xt_b: BitString | None = None
        self.hash: ToeplitzHash | None = None
        self._commitment: CommitMessage | None = None
        self._malformed = False

    def transmit(self, pair: SourcePair) -> None:
        """Sample k positions of the noisy view; only those bits are kept."""
        p = self.params
        self._advance("new", "transmitted")
        self.b = sample_positions(p.n, p.k, self._rng)
        self._xt_b = pair.x_tilde.restrict(self.b)

    def choose_hash(self) -> BitString:
        """Draw the binding hash g; its Toeplitz diagonal is what is sent."""
        p = self.params
        self._advance("transmitted", "hashed")
        self.hash = ToeplitzHash.random(p.k, p.digest_len, self._rng)
        return self.hash.diag

    def receive_commitment(self, msg: CommitMessage) -> None:
        p = self.params
        self._advance("hashed", "committed")
        ok = (
            msg.masked.length == p.m
            and msg.digest.length == p.digest_len
            and msg.a.ground == p.n
            and len(msg.a) == p.k
            and msg.u.length == seed_length(p.k, p.m)
        )
        self._malformed = not ok
        self._commitment = msg

    def verify(self, opening: OpenMessage) -> VerifyResult:
        p = self.params
        self._advance("committed", "opened")
        msg = self._commitment
        if self._malformed or opening.w.length != p.k or opening.value.length != p.m:
            return VerifyResult(False, Reason.MALFORMED_MESSAGE)
        overlap = msg.a.intersect(self.b)
        c = len(overlap)
        if c < p.ell:
            return VerifyResult(False, Reason.SMALL_INTERSECTION)
        w_c = opening.w.restrict(overlap.positions_within(msg.a))
        mine_c = self._xt_b.restrict(overlap.positions_within(self.b))
        if w_c.hamming(mine_c) > floor_tol((p.delta + p.zeta) * c):
            return VerifyResult(False, Reason.DISTANCE_EXCEEDED)
        if self.hash(opening.w) != msg.digest:
            return VerifyResult(False, Reason.DIGEST_MISMATCH)
        if strong_extract(opening.w, msg.u, p.m) ^ msg.masked != opening.value:
            return VerifyResult(False, Reason.VALUE_MISMATCH)
        return VerifyResult(True, Reason.OK)
