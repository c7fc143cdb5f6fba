import itertools
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsme.bits import BitString
from bsme.gf2 import Echelon, solve_affine_pair
from bsme.ihash import (
    IHOutcome,
    Querier,
    Respondent,
    solve_pair,
)
from bsme.reasons import Reason, SetupAbort


def run_session(m: int, w: BitString, rng: random.Random):
    q = Querier(m, rng)
    r = Respondent(w)
    while not q.finished:
        q.take_response(r.respond(q.next_query()))
    return q.outcome(), r.outcome()


def recorded_session(m: int, w: BitString, rng: random.Random):
    """Both parties after m-1 rounds, plus the raw queries and responses sent."""
    q = Querier(m, rng)
    r = Respondent(w)
    queries, responses = [], []
    while not q.finished:
        query = q.next_query()
        bit = r.respond(query)
        q.take_response(bit)
        queries.append(query.to_int())
        responses.append(bit)
    return q, r, queries, responses


def display_order(m: int, values) -> list[int]:
    """The values sorted by their display strings (bit 0 first)."""
    return sorted(values, key=lambda v: BitString(m, v).to_str())


def brute_force_pair(m: int, queries: list[int], responses: list[int]) -> list[int]:
    """Every solution of the transcript, in lexicographic order."""
    return display_order(m, (
        v for v in range(1 << m)
        if all((q & v).bit_count() & 1 == c for q, c in zip(queries, responses))))


class TestSolvePair:
    def test_orders_lexicographically(self):
        # transcript q=0b01 (bit0 only), response 1 over m=2:
        # solutions have bit0 = 1, i.e. {01, 11} as displayed strings
        w0, w1 = solve_pair([0b01], [1], 2)
        assert w0.to_str() == "10"
        assert w1.to_str() == "11"

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for m in range(2, 7):
            for _ in range(10):
                w = BitString.random(m, rng)
                q, _, queries, responses = recorded_session(m, w, rng)
                got = q.outcome()
                assert [got.w0.to_int(), got.w1.to_int()] == brute_force_pair(
                    m, queries, responses)

    def test_dependent_transcript_rejected(self):
        # third query is the xor of the first two
        with pytest.raises(ValueError, match="linearly dependent"):
            solve_affine_pair([0b011, 0b101, 0b110], [0, 0, 0], 4)

    def test_wrong_round_count_rejected(self):
        with pytest.raises(ValueError, match="n-1 query/response pairs"):
            solve_affine_pair([0b011], [0], 3)


class TestOutcome:
    def test_order_enforced(self):
        # "010" sorts before "100"
        lo, hi = BitString(3, 2), BitString(3, 1)
        IHOutcome(lo, hi)
        with pytest.raises(ValueError):
            IHOutcome(hi, lo)
        with pytest.raises(ValueError):
            IHOutcome(lo, lo)

    def test_pair_property(self):
        out = IHOutcome(BitString(2, 0), BitString(2, 1))
        assert out.pair == (out.w0, out.w1)


class TestHonestRuns:
    @given(st.integers(2, 9), st.data())
    def test_input_is_one_output(self, m, data):
        rng = random.Random(data.draw(st.integers(0, 2**24)))
        w = BitString(m, data.draw(st.integers(0, 2**m - 1)))
        qo, ro = run_session(m, w, rng)
        assert qo.pair == ro.pair
        assert ro.d in (0, 1)
        assert ro.pair[ro.d] == w
        assert qo.d is None
        assert qo.w0.to_str() < qo.w1.to_str()

    def test_deterministic_given_rng(self):
        w = BitString(5, 19)
        a, _ = run_session(5, w, random.Random(77))
        b, _ = run_session(5, w, random.Random(77))
        assert a.pair == b.pair


class TestStateMachine:
    def test_querier_round_discipline(self):
        q = Querier(3, random.Random(0))
        q.next_query()
        with pytest.raises(ValueError):
            q.take_response(2)
        q.take_response(0)
        assert not q.finished
        q.next_query()
        q.take_response(1)
        assert q.finished
        q.outcome()

    def test_respondent_rejects_dependent_queries(self):
        r = Respondent(BitString(4, 5))
        assert r.respond(BitString(4, 0b0011)) in (0, 1)
        with pytest.raises(SetupAbort, match="dependent-query"):
            r.respond(BitString(4, 0b0011))
        with pytest.raises(SetupAbort, match="dependent-query"):
            r.respond(BitString(4, 0b0000))
        r.respond(BitString(4, 0b0101))
        with pytest.raises(SetupAbort, match="dependent-query"):
            r.respond(BitString(4, 0b0110))  # xor of the first two
        r.respond(BitString(4, 0b1000))
        assert r.finished

    def test_respondent_validation(self):
        with pytest.raises(ValueError):
            Respondent(BitString(1, 0))
        r = Respondent(BitString(2, 0))
        with pytest.raises(SetupAbort) as info:
            r.respond(BitString(3, 1))
        assert info.value.reason is Reason.MALFORMED_MESSAGE
        r.respond(BitString(2, 1))
        assert r.finished

    def test_querier_needs_two_rounds_min(self):
        with pytest.raises(ValueError):
            Querier(1, random.Random(0))


class _WidthLog:
    """Generator stand-in: answers ``getrandbits`` from ``draw`` and logs
    each width asked for."""

    def __init__(self, draw):
        self._draw = draw
        self.widths = []

    def getrandbits(self, k):
        self.widths.append(k)
        return self._draw(k)


class TestTriangularQueries:
    @pytest.mark.parametrize("m", [2, 5, 252])
    def test_query_shape(self, m):
        rng = _WidthLog(random.Random(m).getrandbits)
        _, _, queries, _ = recorded_session(m, BitString.random(m, random.Random(1)), rng)
        assert [q.bit_length() for q in queries] == list(range(m, 1, -1))
        assert rng.widths == list(range(m - 1, 0, -1))

    def test_partner_uniform_off_bit_0(self):
        # every query sequence at m=4: 8 * 4 * 2 choices of the bits below
        # the pivots, each sent against every input W
        m = 4
        for w in range(1 << m):
            partners = Counter()
            for lows in itertools.product(range(8), range(4), range(2)):
                rng = _WidthLog(lambda k, draws=iter(lows): next(draws))
                q, r, _, _ = recorded_session(m, BitString(m, w), rng)
                qo, ro = q.outcome(), r.outcome()
                assert qo.pair == ro.pair
                assert qo.w0.to_int() & 1 == 0
                partners[ro.pair[1 - ro.d].to_int()] += 1
            assert partners == {v: 8 for v in range(1 << m) if (v ^ w) & 1}


class TestHiding:
    def test_transcript_identical_for_both_solutions(self):
        # replaying the same queries against either solution reproduces the
        # responses, so the transcript cannot identify d
        rng = random.Random(123)
        for _ in range(20):
            m = 6
            w = BitString.random(m, rng)
            _, r, queries, responses = recorded_session(m, w, rng)
            out = r.outcome()
            other = out.pair[1 - out.d]
            replay = Respondent(other)
            for qq, rr in zip(queries, responses):
                assert replay.respond(BitString(m, qq)) == rr


class TestReducedRowsSolve:
    """Both parties solve from the reduced rows their rounds built; the pair
    must be the one the raw transcript determines."""

    @given(st.integers(2, 10), st.data())
    def test_outcomes_match_brute_force(self, m, data):
        rng = random.Random(data.draw(st.integers(0, 2**24)))
        w = BitString(m, data.draw(st.integers(0, 2**m - 1)))
        q, r, queries, responses = recorded_session(m, w, rng)
        brute = brute_force_pair(m, queries, responses)
        qo, ro = q.outcome(), r.outcome()
        assert [qo.w0.to_int(), qo.w1.to_int()] == brute
        assert ro.pair == qo.pair
        assert ro.pair[ro.d] == w

    def test_m252_matches_raw_transcript_solve(self):
        m = 252
        for seed in range(40):
            rng = random.Random(seed)
            w = BitString.random(m, rng)
            q, r, queries, responses = recorded_session(m, w, rng)
            a, b = solve_affine_pair(queries, responses, m)
            expect = tuple(BitString(m, v) for v in display_order(m, (a, b)))
            assert q.outcome().pair == expect
            assert r.outcome().pair == expect
            assert len(queries) == m - 1

    def test_query_order_does_not_change_pair(self):
        rng = random.Random(11)
        for m in (3, 8, 40):
            w = BitString.random(m, rng)
            _, _, queries, responses = recorded_session(m, w, rng)
            want = set(solve_affine_pair(queries, responses, m))
            for _ in range(5):
                order = list(range(m - 1))
                rng.shuffle(order)
                got = solve_affine_pair([queries[i] for i in order],
                                        [responses[i] for i in order], m)
                assert set(got) == want
                assert w.to_int() in got

    def test_dependent_combination_rejected_mid_session(self):
        rng = random.Random(4)
        m = 16
        w = BitString.random(m, rng)
        q = Querier(m, rng)
        r = Respondent(w)
        sent = []
        for _ in range(6):
            query = q.next_query()
            q.take_response(r.respond(query))
            sent.append(query.to_int())
        combo = sent[0] ^ sent[2] ^ sent[5]
        with pytest.raises(SetupAbort, match="dependent-query"):
            r.respond(BitString(m, combo))
        # the refused query left the respondent's state untouched
        while not q.finished:
            q.take_response(r.respond(q.next_query()))
        assert r.outcome().pair == q.outcome().pair


def independent_queries(m: int, draws: list[int]) -> list[int]:
    """m-1 independent queries from arbitrary drawn ones.

    A draw that depends on the earlier queries is XORed with the lowest unit
    vector outside their span, so every draw is kept and the set is
    generally not triangular.
    """
    ech, out = Echelon(), []
    for d in draws[: m - 1]:
        if not ech.reduce(d):
            d ^= next(1 << j for j in range(m) if ech.reduce(d ^ (1 << j)))
        ech.add(d)
        out.append(d)
    return out


class TestOrdering:
    """The pair is published in display-string order whatever the queries."""

    @pytest.mark.parametrize("m", [1, 3, 4])
    def test_outcome_order_matches_strings(self, m):
        for a, b in itertools.permutations(range(1 << m), 2):
            x, y = BitString(m, a), BitString(m, b)
            if x.to_str() < y.to_str():
                assert IHOutcome(x, y).pair == (x, y)
            else:
                with pytest.raises(ValueError):
                    IHOutcome(x, y)

    def test_wide_pairs_order_like_text(self):
        rng = random.Random(5)
        for _ in range(50):
            a, b = rng.getrandbits(200), rng.getrandbits(200)
            lo, hi = display_order(200, (a, b))
            IHOutcome(BitString(200, lo), BitString(200, hi))
            with pytest.raises(ValueError):
                IHOutcome(BitString(200, hi), BitString(200, lo))

    def test_outcome_refuses_mixed_lengths(self):
        with pytest.raises(ValueError):
            IHOutcome(BitString(2, 0), BitString(3, 1))

    @given(st.integers(2, 10), st.data())
    def test_hostile_queries_pair_in_string_order(self, m, data):
        draws = data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=m - 1, max_size=m - 1))
        queries = independent_queries(m, draws)
        w = data.draw(st.integers(0, (1 << m) - 1))
        r = Respondent(BitString(m, w))
        responses = [r.respond(BitString(m, q)) for q in queries]
        expect = tuple(BitString(m, v) for v in brute_force_pair(m, queries, responses))
        assert solve_pair(queries, responses, m) == expect
        out = r.outcome()
        assert out.pair == expect
        assert out.pair[out.d] == BitString(m, w)
        lo, hi = expect
        with pytest.raises(ValueError):
            IHOutcome(hi, lo)
        with pytest.raises(ValueError):
            IHOutcome(lo, lo)

    def test_hostile_generator_is_not_triangular(self):
        # the two solutions of the drawn systems do not always first differ at bit 0
        rng = random.Random(8)
        first_diff = set()
        for _ in range(200):
            m = rng.randint(2, 10)
            queries = independent_queries(m, [rng.getrandbits(m) for _ in range(m - 1)])
            a, b = solve_affine_pair(queries, [0] * (m - 1), m)
            first_diff.add(((a ^ b) & -(a ^ b)).bit_length() - 1)
        assert len(first_diff) > 3
