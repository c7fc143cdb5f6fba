"""One-out-of-two oblivious transfer over the shared noisy source.

Setup: the sender reveals its sample positions A; the receiver intersects
them with its own positions, aborts when the overlap is smaller than ell,
and otherwise picks a secret ell-subset C of the overlap.  C is encoded
(with a random copy index) as an m-bit string W of relative positions
within A, and interactive hashing pins W to a pair (W_0, W_1).  Both sides
decode the pair into candidate subsets C_0, C_1; the receiver knows the
index d of its own subset.

Transfer: the receiver sends e = choice xor d.  For each branch i the
sender fuzzy-extracts a pad Y_i from its bits on C_i and sends
Z_i = s_{i xor e} xor Y_i together with the extractor seed and helper
string.  The receiver recovers Y on its branch from its noisy bits and
unmasks Z_d, so it learns s_choice and nothing else is revealed about
which secret it took.

Each party's ``play`` generator is the one place its message order is written.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bits import BitString, IndexSet
from .codes import fuzzy_ext, fuzzy_rec
from .hashing import random_seed, seed_length
from .infomath import OTParams
from .ihash import Querier, Respondent
from .reasons import Reason, ResultMsg, SetupAbort
from .source import SourcePair, sample_positions
from .subsets import DenseCode

__all__ = ["SetA", "IHQuery", "IHResponse", "EBit", "TransferPayload", "OTSender", "OTReceiver"]


@dataclass(frozen=True)
class SetA:
    """Sample-position announcement, carried as a ground-set mask."""

    positions: IndexSet


@dataclass(frozen=True)
class IHQuery:
    q: BitString


@dataclass(frozen=True)
class IHResponse:
    bit: int


@dataclass(frozen=True)
class EBit:
    e: int


@dataclass(frozen=True)
class TransferPayload:
    z0: BitString
    r0: BitString
    p0: BitString
    z1: BitString
    r1: BitString
    p1: BitString


def _decode_pair(dense: DenseCode, w0: BitString, w1: BitString) -> tuple[IndexSet, IndexSet]:
    """The candidate subsets (relative to A) that the hashed pair names.

    Aborts when either word is not a valid encoding, or when both name the
    same subset with different copy indices: that branch pair offers no hiding.
    """
    d0, d1 = dense.decode(w0), dense.decode(w1)
    if d0 is None or d1 is None or d0[0] == d1[0]:
        raise SetupAbort(Reason.INVALID_ENCODING)
    return d0[0], d1[0]


class OTSender:
    def __init__(self, params: OTParams, s0: BitString, s1: BitString, rng: random.Random):
        if s0.length != params.payload_len or s1.length != params.payload_len:
            raise ValueError(f"secrets must have {params.payload_len} bits")
        self.params = params
        self.secrets = (s0, s1)
        self._rng = rng
        self._dense = DenseCode(params.k, params.ell, params.m)
        self.a: IndexSet | None = None
        self._x_a: BitString | None = None
        self.querier: Querier | None = None
        self._c_rel: tuple[IndexSet, IndexSet] | None = None

    def play(self, pair: SourcePair):
        """The sender's message order; see `bsme.commit.Committer.play`."""
        self.transmit(pair)
        yield SetA(self.begin_setup())
        while not self.querier.finished:
            yield IHQuery(self.next_query())
            self.take_response((yield IHResponse).bit)
        e = (yield EBit).e
        self.finish_setup()
        yield self.transfer(e)
        return {"reason": (yield ResultMsg).reason}  # ok: the payload was accepted in shape

    def transmit(self, pair: SourcePair) -> None:
        p = self.params
        self.a = sample_positions(p.n, p.k, self._rng)
        self._x_a = pair.x.restrict(self.a)

    def begin_setup(self) -> IndexSet:
        """Publish A and prepare to drive the interactive hashing rounds."""
        self.querier = Querier(self.params.m, self._rng)
        return self.a

    def next_query(self) -> BitString:
        return self.querier.next_query()

    def take_response(self, bit: int) -> None:
        self.querier.take_response(bit)

    def finish_setup(self) -> tuple[IndexSet, IndexSet]:
        """Decode both candidate subsets (relative to A); abort on bad encodings."""
        self._c_rel = _decode_pair(self._dense, *self.querier.outcome().pair)
        return self._c_rel

    def transfer(self, e: int) -> TransferPayload:
        p = self.params
        if e not in (0, 1):
            raise ValueError("e must be a bit")
        parts = []
        for i in (0, 1):
            x_ci = self._x_a.restrict(self._c_rel[i])
            seed = random_seed(p.ell, p.payload_len, self._rng)
            out = fuzzy_ext(x_ci, seed, p.payload_len, p.code)
            z = self.secrets[i ^ e] ^ out.y
            parts.extend([z, seed, out.p])
        return TransferPayload(*parts)


class OTReceiver:
    def __init__(self, params: OTParams, choice: int, rng: random.Random):
        if choice not in (0, 1):
            raise ValueError("choice must be a bit")
        self.params = params
        self.choice = choice
        self._rng = rng
        self._dense = DenseCode(params.k, params.ell, params.m)
        self.b: IndexSet | None = None
        self._xt_b: BitString | None = None
        self.c_abs: IndexSet | None = None
        self.respondent: Respondent | None = None
        self._d: int | None = None

    def play(self, pair: SourcePair):
        """The receiver's message order; see `bsme.commit.Committer.play`.  It
        answers a payload of the wrong shape with its failed result."""
        self.transmit(pair)
        self.receive_positions((yield SetA).positions)
        for _ in range(self.params.m - 1):
            yield IHResponse(self.respond((yield IHQuery).q))
        yield EBit(self.finish_setup())
        payload = yield TransferPayload
        try:
            output = self.receive_payload(payload)
        except SetupAbort as abort:  # a shape check over both branches, the same for either d
            abort.reported = True
            raise
        # The same reply whatever the decode gives: a failure only on the
        # receiver's own branch would tell the sender d, and so the choice.
        yield ResultMsg(True, Reason.OK, BitString.zeros(0))
        reason = Reason.OK if output is not None else Reason.DECODE_FAILURE
        return {"reason": reason, "output": output}

    def transmit(self, pair: SourcePair) -> None:
        p = self.params
        self.b = sample_positions(p.n, p.k, self._rng)
        self._xt_b = pair.x_tilde.restrict(self.b)

    def receive_positions(self, a: IndexSet) -> None:
        """Intersect with our sample; abort when too small, else pick C."""
        p = self.params
        if a.ground != p.n or len(a) != p.k:
            raise SetupAbort(Reason.MALFORMED_MESSAGE)
        overlap = a.intersect(self.b)
        if len(overlap) < p.ell:
            raise SetupAbort(Reason.SMALL_INTERSECTION)
        self.c_abs = IndexSet(p.n, sorted(self._rng.sample(overlap.indices, p.ell)))
        w = self._dense.encode(self.c_abs.positions_within(a), self._dense.random_copy(self._rng))
        self.respondent = Respondent(w)

    def respond(self, query: BitString) -> int:
        return self.respondent.respond(query)

    def finish_setup(self) -> int:
        """Decode both candidates, remember d, and emit e = choice xor d."""
        out = self.respondent.outcome()
        _decode_pair(self._dense, out.w0, out.w1)
        self._d = out.d
        return self.choice ^ out.d

    def receive_payload(self, payload: TransferPayload) -> BitString | None:
        """Recover the chosen secret, or None when recovery fails."""
        p = self.params
        branch = (payload.z0, payload.r0, payload.p0), (payload.z1, payload.r1, payload.p1)
        # Both branches, so that whether the peer is refused does not depend on d.
        lengths = (p.payload_len, seed_length(p.ell, p.payload_len), p.p_len)
        if any(f.length != n for fields in branch for f, n in zip(fields, lengths)):
            raise SetupAbort(Reason.MALFORMED_MESSAGE)
        z, seed, helper = branch[self._d]
        c_in_b = self.c_abs.positions_within(self.b)
        y = fuzzy_rec(self._xt_b.restrict(c_in_b), seed, helper, p.payload_len, p.code)
        if y is None:
            return None
        return y ^ z
