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
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bits import BitString, IndexSet
from .codes import fuzzy_ext, fuzzy_rec
from .hashing import random_seed
from .infomath import OTParams
from .ihash import Querier, Respondent
from .reasons import Reason, _Phased
from .source import SourcePair, sample_positions
from .subsets import DenseCode

__all__ = ["TransferPayload", "SetupAbort", "OTSender", "OTReceiver"]


@dataclass(frozen=True)
class TransferPayload:
    z0: BitString
    r0: BitString
    p0: BitString
    z1: BitString
    r1: BitString
    p1: BitString


class SetupAbort(Exception):
    def __init__(self, reason: Reason):
        self.reason = reason
        super().__init__(reason.label)


class OTSender(_Phased):
    def __init__(self, params: OTParams, s0: BitString, s1: BitString, rng: random.Random):
        super().__init__()
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

    def transmit(self, pair: SourcePair) -> None:
        p = self.params
        self._advance("new", "transmitted")
        self.a = sample_positions(p.n, p.k, self._rng)
        self._x_a = pair.x.restrict(self.a)

    def begin_setup(self) -> IndexSet:
        """Publish A and prepare to drive the interactive hashing rounds."""
        self._advance("transmitted", "hashing")
        self.querier = Querier(self.params.m, self._rng)
        return self.a

    def next_query(self) -> BitString:
        return self.querier.next_query()

    def take_response(self, bit: int) -> None:
        self.querier.take_response(bit)

    def finish_setup(self) -> tuple[IndexSet, IndexSet]:
        """Decode both candidate subsets (relative to A); abort on bad encodings."""
        self._advance("hashing", "setup-done")
        w0, w1 = self.querier.outcome().pair
        d0 = self._dense.decode(w0)
        d1 = self._dense.decode(w1)
        if d0 is None or d1 is None:
            raise SetupAbort(Reason.INVALID_ENCODING)
        c0, c1 = d0[0], d1[0]
        if c0 == c1:
            # Both encodings name the same subset (copy indices differ);
            # that branch pair offers no hiding, so refuse it.
            raise SetupAbort(Reason.INVALID_ENCODING)
        self._c_rel = (c0, c1)
        return c0, c1

    def transfer(self, e: int) -> TransferPayload:
        p = self.params
        self._advance("setup-done", "transferred")
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


class OTReceiver(_Phased):
    def __init__(
        self,
        params: OTParams,
        choice: int,
        rng: random.Random,
        w_strategy=None,
    ):
        super().__init__()
        if choice not in (0, 1):
            raise ValueError("choice must be a bit")
        self.params = params
        self.choice = choice
        self._rng = rng
        self._dense = DenseCode(params.k, params.ell, params.m)
        # Test/adversary hook: callable(dense, overlap_rel, rng) -> BitString
        # choosing the interactive-hashing input W directly.
        self._w_strategy = w_strategy
        self.b: IndexSet | None = None
        self._xt_b: BitString | None = None
        self._a: IndexSet | None = None
        self.c_abs: IndexSet | None = None
        self.respondent: Respondent | None = None
        self._d: int | None = None
        self._e: int | None = None
        self._c_rel: tuple[IndexSet, IndexSet] | None = None

    def transmit(self, pair: SourcePair) -> None:
        p = self.params
        self._advance("new", "transmitted")
        self.b = sample_positions(p.n, p.k, self._rng)
        self._xt_b = pair.x_tilde.restrict(self.b)

    def receive_positions(self, a: IndexSet) -> None:
        """Intersect with our sample; abort when too small, else pick C."""
        p = self.params
        self._advance("transmitted", "hashing")
        if a.ground != p.n or len(a) != p.k:
            raise SetupAbort(Reason.MALFORMED_MESSAGE)
        self._a = a
        overlap = a.intersect(self.b)
        if len(overlap) < p.ell:
            raise SetupAbort(Reason.SMALL_INTERSECTION)
        if self._w_strategy is not None:
            overlap_rel = overlap.positions_within(a)
            w = self._w_strategy(self._dense, overlap_rel, self._rng)
            decoded = self._dense.decode(w)
            if decoded is not None:
                self.c_abs = a.select(decoded[0])
        else:
            picked = IndexSet(p.n, sorted(self._rng.sample(overlap.indices, p.ell)))
            self.c_abs = picked
            w = self._dense.encode(picked.positions_within(a), self._dense.random_copy(self._rng))
        self.respondent = Respondent(p.m, w)

    def respond(self, query: BitString) -> int:
        return self.respondent.respond(query)

    def finish_setup(self) -> int:
        """Decode both candidates, remember d, and emit e = choice xor d."""
        self._advance("hashing", "setup-done")
        out = self.respondent.outcome()
        d0 = self._dense.decode(out.w0)
        d1 = self._dense.decode(out.w1)
        if d0 is None or d1 is None or d0[0] == d1[0]:
            raise SetupAbort(Reason.INVALID_ENCODING)
        self._c_rel = (d0[0], d1[0])
        self._d = out.d
        self._e = self.choice ^ out.d
        return self._e

    def receive_payload(self, payload: TransferPayload) -> BitString | None:
        """Recover the chosen secret, or None when recovery fails."""
        p = self.params
        self._advance("setup-done", "transferred")
        branch = (payload.z0, payload.r0, payload.p0), (payload.z1, payload.r1, payload.p1)
        z, seed, helper = branch[self._d]
        if (
            z.length != p.payload_len
            or seed.length != p.ell + p.payload_len - 1
            or helper.length != p.p_len
        ):
            raise SetupAbort(Reason.MALFORMED_MESSAGE)
        c_in_b = self.c_abs.positions_within(self.b)
        y = fuzzy_rec(self._xt_b.restrict(c_in_b), seed, helper, p.payload_len, p.code)
        if y is None:
            return None
        return y ^ z
