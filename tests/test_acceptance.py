"""End-to-end acceptance checks, one test per criterion.

Each test computes its measurement, records a single PASS/FAIL line (printed
in the terminal summary), and then asserts.  Bounds are stated next to the
measurements so the lines are self-contained.
"""

import itertools
import math
import time
from fractions import Fraction

from _criteria import record
from _sessions import commit_session, ot_session

from bsme.bits import BitString, IndexSet
from bsme.codes import LinearCode, fuzzy_ext, fuzzy_rec
from bsme.commit import OpenMessage
from bsme.harness import (
    binding_attack,
    hiding_distance,
    ih_theta_attack,
    lemma_binom_bound,
    lemma_birthday,
    lemma_entropy_hd,
    lemma_subset_hd,
)
from bsme.hashing import seed_length
from bsme.ihash import Respondent, solve_pair
from bsme.infomath import (
    commit_delta_threshold,
    derive_commit_params,
    derive_ot_params,
    inv_binary_entropy,
    ot_gv_delta_threshold,
    zyablov_delta,
)
from bsme.ot import EBit, SetA, SetupAbort
from bsme.subsets import DenseCode, subset_rank
from bsme.app import framing, runner
from bsme.app.framing import AbortMsg, encode_message
from bsme.reasons import Reason

COMMIT_PARAMS = derive_commit_params(n=4096, ell=16, alpha=1.0, gamma=0.25,
                                     delta=0.02, zeta=0.05)
OT_PARAMS = derive_ot_params(n=4096, ell=14, code=LinearCode.hamming_7_4(),
                             gamma=0.0, delta=0.01, tau=0.02,
                             m_f=Fraction(1, 7), eps_hat=0.25)


def test_c01_commit_honest_runs():
    t0 = time.perf_counter()
    sessions = 500
    accepted = sum(commit_session(COMMIT_PARAMS, seed).accepted
                   for seed in range(sessions))
    elapsed = time.perf_counter() - t0
    rate = accepted / sessions
    p = COMMIT_PARAMS
    theory = math.exp(-p.ell / 4.0) + math.exp(-p.ell * p.zeta**2 / 2.0)
    ok = rate >= 0.95 and elapsed < 120.0
    record(1, "commit honest runs", ok,
           f"accept_rate={rate:.4f} (need >= 0.95, n=4096 ell=16 k={p.k}, "
           f"{sessions} sessions; theory failure <= {theory:.4f}, vacuous at "
           f"this scale) time={elapsed:.1f}s (< 120s)")
    assert ok


def test_c02_commit_tamper_rejection():
    t0 = time.perf_counter()
    sessions = 200

    def tamper_w(opening, run):
        return OpenMessage(value=opening.value,
                           w=opening.w.flip(run.tamper.randrange(opening.w.length)))

    def tamper_value(opening, run):
        return OpenMessage(value=opening.value.flip(run.tamper.randrange(opening.value.length)),
                           w=opening.w)

    rejected = 0
    for seed in range(sessions):
        tamper = tamper_w if seed % 2 == 0 else tamper_value
        run = commit_session(COMMIT_PARAMS, 10_000 + seed, edit_opening=tamper)
        rejected += not run.accepted
    elapsed = time.perf_counter() - t0
    rate = rejected / sessions
    ok = rate >= 0.99
    record(2, "commit tamper rejection", ok,
           f"reject_rate={rate:.4f} (need >= 0.99, one-bit tamper in W or "
           f"claimed value, {sessions} sessions, digest miss bound "
           f"2^-{COMMIT_PARAMS.digest_len}) time={elapsed:.1f}s")
    assert ok


def test_c03_binding_bound():
    # stated micro parameters: omega=12/16 < 2h(0.125), so the formal bound
    # is vacuous (> 1); measured rate is reported against it honestly
    stated = binding_attack(k=16, digest_len=12, sigma=0.125, trials=200, seed=0)
    # inverted regime witness: shrink the digest until the radius-2 ball
    # (137 strings) outnumbers the 2^4 digests, forcing collisions
    inverted = binding_attack(k=16, digest_len=4, sigma=0.125, trials=200, seed=0)
    ok = stated.passed and inverted.rate >= 0.5
    record(3, "binding bound", ok,
           f"stated rate={stated.rate:.4f} <= bound={stated.bound:.4g} "
           f"(vacuous: omega < 2h(sigma) already at k=16 digest=12); "
           f"inverted(digest=4) rate={inverted.rate:.4f} (need >= 0.5)")
    assert ok


def test_c04_hiding_exact():
    t0 = time.perf_counter()
    a = IndexSet(12, (2, 3, 6, 7, 10, 11))
    # adversary keeps a 4-bit prefix (gamma*n = 4)
    stored = hiding_distance(a_positions=a,
                             stored_positions=IndexSet(12, (0, 1, 2, 3)),
                             stored_value=BitString.zeros(4),
                             digest_len=2)
    # gamma*n = 0: nothing stored
    empty = hiding_distance(a_positions=a,
                            stored_positions=IndexSet(12, ()),
                            stored_value=BitString.zeros(0),
                            digest_len=2)
    same_v = hiding_distance(a_positions=a,
                             stored_positions=IndexSet(12, (0, 1, 2, 3)),
                             stored_value=BitString.zeros(4),
                             digest_len=2,
                             v0=BitString(1, 1), v1=BitString(1, 1))
    elapsed = time.perf_counter() - t0
    ok = (stored.passed and empty.passed and same_v.value == 0.0
          and elapsed < 300.0)
    record(4, "hiding exact enumeration", ok,
           f"gamma_n=4: dist={stored.value:.6f} <= "
           f"bound={stored.bound:.6f} (Hmin={stored.min_entropy:.3g}); "
           f"gamma_n=0: dist={empty.value:.6f} <= bound={empty.bound:.6f} "
           f"(Hmin={empty.min_entropy:.3g}); equal-values dist="
           f"{same_v.value} (must be 0) time={elapsed:.1f}s (< 300s)")
    assert ok


def test_c05_ot_honest_runs():
    t0 = time.perf_counter()
    p = OT_PARAMS
    assert p.m == 2 * p.ell * math.ceil(math.log2(p.k))
    sessions = 500
    tally = {"correct": 0, "wrong": 0, "abort": 0}
    for seed in range(sessions):
        try:
            run = ot_session(p, seed)
        except SetupAbort:
            tally["abort"] += 1
            continue
        tally["correct" if run.output == run.secrets[run.choice] else "wrong"] += 1
    elapsed = time.perf_counter() - t0
    rate = tally["correct"] / sessions
    abort_rate = tally["abort"] / sessions
    abort_bound = 2.0 * (math.exp(-p.ell / 4.0) + 4.0 * p.k ** (-p.ell))
    ok = rate >= 0.95 and abort_rate <= abort_bound
    record(5, "transfer honest runs", ok,
           f"correct_rate={rate:.4f} (need >= 0.95), abort_rate="
           f"{abort_rate:.4f} <= {abort_bound:.4f}, wrong={tally['wrong']}, "
           f"n=4096 ell=14 k={p.k} m={p.m}, {sessions} sessions "
           f"time={elapsed:.1f}s")
    assert ok


def test_c06_fuzzy_zero_failure():
    t0 = time.perf_counter()
    code = LinearCode.hamming_7_4()
    out_len = 4
    slen = seed_length(7, out_len)
    seeds = [BitString(slen, (s * 2654435761) % (1 << slen)) for s in range(16)]
    total = failures = 0
    errors = [BitString(7, 0)] + [BitString(7, 1 << i) for i in range(7)]
    for xv in range(128):
        x = BitString(7, xv)
        for seed in seeds:
            out = fuzzy_ext(x, seed, out_len, code)
            for e in errors:
                total += 1
                if fuzzy_rec(x ^ e, seed, out.p, out_len, code) != out.y:
                    failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0
    record(6, "fuzzy extractor zero-failure regime", ok,
           f"recoveries={total - failures}/{total} (all 2^7 inputs x all "
           f"weight<=1 errors x 16 seeds, need 100%) time={elapsed:.1f}s")
    assert ok


def test_c07_interactive_hashing_exact():
    # querier randomness at m=4 is exactly the ordered independent triples
    # of nonzero queries: 15 * 14 * 12 = 2520 of them
    t0 = time.perf_counter()
    m = 4
    triples = []
    for q1 in range(1, 16):
        span1 = {0, q1}
        for q2 in range(1, 16):
            if q2 in span1:
                continue
            span2 = {0, q1, q2, q1 ^ q2}
            for q3 in range(1, 16):
                if q3 not in span2:
                    triples.append((q1, q2, q3))
    size_ok = len(triples) == 2520

    pair_sizes_ok = True
    membership_ok = True
    transcripts_ok = True
    partner_counts = {w: {} for w in range(16)}
    for queries in triples:
        for w in range(16):
            resp = Respondent(BitString(m, w))
            responses = [resp.respond(BitString(m, q)) for q in queries]
            out = resp.outcome()
            # brute-force the solution set of this transcript
            sols = [v for v in range(16)
                    if all((q & v).bit_count() & 1 == r
                           for q, r in zip(queries, responses))]
            if len(sols) != 2:
                pair_sizes_ok = False
            if out.pair[out.d].to_int() != w:
                membership_ok = False
            partner = out.pair[1 - out.d].to_int()
            partner_counts[w][partner] = partner_counts[w].get(partner, 0) + 1
            # both solutions answer every query identically
            for q in queries:
                if (q & sols[0]).bit_count() & 1 != (q & sols[1]).bit_count() & 1:
                    transcripts_ok = False

    uniform_ok = all(
        sorted(counts) == [v for v in range(16) if v != w]
        and set(counts.values()) == {168}
        for w, counts in partner_counts.items()
    )
    elapsed = time.perf_counter() - t0
    ok = (size_ok and pair_sizes_ok and membership_ok and transcripts_ok
          and uniform_ok and elapsed < 60.0)
    record(7, "interactive hashing exact (m=4)", ok,
           f"triples={len(triples)} (=2520), pair size always 2: "
           f"{pair_sizes_ok}, input in pair: {membership_ok}, partner "
           f"uniform 168 each: {uniform_ok}, transcripts blind to branch: "
           f"{transcripts_ok} time={elapsed:.1f}s (< 60s)")
    assert ok


def test_c08_interactive_hashing_theta():
    t0 = time.perf_counter()
    rep = ih_theta_attack(m=12, t=6, trials=100_000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = rep.passed
    record(8, "interactive hashing theta bound", ok,
           f"both_in_target_rate={rep.rate:.5f} <= {rep.bound:.4f} "
           f"(4 * 2^-(12-6), member strategy, 10^5 runs) time={elapsed:.1f}s")
    assert ok


def test_c09_dense_encoding_exhaustive():
    t0 = time.perf_counter()
    configs = checked = 0
    all_ok = True
    for k in range(1, 13):
        for ell in range(1, min(k, 4) + 1):
            base = math.comb(k, ell)
            m0 = 0
            while (1 << m0) < base:
                m0 += 1
            for m in (m0, m0 + 1, m0 + 2):
                dc = DenseCode(k, ell, m)
                configs += 1
                seen = set()
                for subset in itertools.combinations(range(k), ell):
                    s = IndexSet(k, subset)
                    for copy in range(dc.t_m):
                        word = dc.encode(s, copy)
                        if word in seen:
                            all_ok = False
                        seen.add(word)
                        if dc.decode(word) != (s, copy):
                            all_ok = False
                        checked += 1
                invalid = sum(1 for v in range(1 << m)
                              if dc.decode(BitString(m, v)) is None)
                if invalid != dc.invalid_count or invalid >= base:
                    all_ok = False
    elapsed = time.perf_counter() - t0
    record(9, "dense subset encoding exhaustive", all_ok,
           f"{configs} (k<=12, ell<=4, m in {{ceil(log2 C), +1, +2}}) "
           f"configurations, {checked} encode/decode pairs: injective, "
           f"identity, invalid fraction < C/2^m time={elapsed:.1f}s")
    assert all_ok


def test_c10_lemma_oracles():
    t0 = time.perf_counter()
    birthday = lemma_birthday(n=4096, ell=16, trials=10_000, seed=0)
    upper, lower = lemma_subset_hd(n=4096, r=256, delta=0.15, nu=0.1,
                                   trials=4000, seed=0)
    binom = lemma_binom_bound(24)
    entropy8 = lemma_entropy_hd(8, 0.75, 0.125)
    entropy10 = lemma_entropy_hd(10, 0.8, 0.1)
    elapsed = time.perf_counter() - t0
    ok = (birthday.passed and upper.passed and lower.passed and binom.passed
          and entropy8.passed and entropy10.passed and elapsed < 180.0)
    record(10, "lemma oracles", ok,
           f"birthday rate={birthday.rate:.4g} <= {birthday.bound:.4g} "
           f"(10^4 trials); subset-HD upper={upper.successes} "
           f"lower={lower.successes} of 4000 vs bound "
           f"{upper.bound:.3g}; binom worst_ratio={binom.value:.4f} <= 1 "
           f"(k<=24); entropy-HD n=8: {entropy8.value:.4f} >= {entropy8.bound:.4f}, "
           f"n=10: {entropy10.value:.4f} >= {entropy10.bound:.4f} "
           f"time={elapsed:.1f}s (< 180s)")
    assert ok


def test_c11_feasibility_separation():
    worst_gap = float("inf")
    sep_ok = True
    for i in range(1, 20):
        s = i * 0.05
        commit_thr = commit_delta_threshold(s)
        ot_thr = ot_gv_delta_threshold(s)
        assert commit_thr == inv_binary_entropy(s / 2.0)
        assert ot_thr == inv_binary_entropy(s) / 2.0
        gap = ot_thr - commit_thr
        worst_gap = min(worst_gap, gap)
        if commit_thr >= ot_thr - 1e-6:
            sep_ok = False
    zy_ok = True
    for j in range(1, 10):
        rate = j * 0.1
        if zyablov_delta(rate) > inv_binary_entropy(1.0 - rate) / 2.0 + 1e-6:
            zy_ok = False
    ok = sep_ok and zy_ok
    record(11, "feasibility separation", ok,
           f"commit threshold inv_h(s/2) < transfer-GV threshold inv_h(s)/2 "
           f"for s in 0.05..0.95 (min gap {worst_gap:.6f}); "
           f"zyablov(R,0) <= inv_h(1-R)/2 for R in 0.1..0.9; tol 1e-6")
    assert ok


def test_c12_transport_equivalence():
    t0 = time.perf_counter()
    ca = runner.run_commit_session(COMMIT_PARAMS, seed=42, transport="memory")
    cb = runner.run_commit_session(COMMIT_PARAMS, seed=42, transport="socket")
    oa = runner.run_ot_session(OT_PARAMS, seed=42, transport="memory")
    ob = runner.run_ot_session(OT_PARAMS, seed=42, transport="socket")
    goldens_ok = (
        encode_message(EBit(1)) == bytes.fromhex("0500000001000000010 1".replace(" ", ""))
        and encode_message(SetA(IndexSet(4, (0, 2)))) == bytes.fromhex("040000000100000004 05".replace(" ", ""))
        and encode_message(AbortMsg(Reason.SMALL_INTERSECTION)) == bytes.fromhex("090000000100000008 01".replace(" ", ""))
    )
    elapsed = time.perf_counter() - t0
    commit_same = ca.transcript == cb.transcript
    ot_same = oa.transcript == ob.transcript
    ok = (commit_same and ot_same and goldens_ok
          and ca.accepted and oa.completed and oa.correct)
    record(12, "transport equivalence", ok,
           f"commit transcripts identical ({len(ca.transcript)} frames): "
           f"{commit_same}; transfer transcripts identical "
           f"({len(oa.transcript)} frames): {ot_same}; frame goldens stable: "
           f"{goldens_ok} time={elapsed:.1f}s")
    assert ok
