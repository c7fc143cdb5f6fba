import itertools
import math
import random
from collections import Counter

import pytest

from bsme.bits import BitString, IndexSet
from bsme.codes import LinearCode
from bsme.harness import (
    AttackReport,
    ExactReport,
    RegimeError,
    binding_attack,
    hiding_distance,
    ih_theta_attack,
    lemma_binom_bound,
    lemma_birthday,
    lemma_entropy_hd,
    lemma_subset_hd,
    ot_offbranch_distance,
    _uniform_subset,
)
from bsme.infomath import binary_entropy


class TestReports:
    def test_attack_report_math(self):
        r = AttackReport(name="x", trials=200, successes=10, bound=0.1,
                         bound_formula="f")
        assert r.rate == 0.05 and r.passed
        assert "pass=True" in r.line()
        for trials in (0, -1):
            with pytest.raises(ValueError, match="trial"):
                AttackReport(name="x", trials=trials, successes=0, bound=0.0,
                             bound_formula="f")

    def test_exact_report_math(self):
        r = ExactReport(name="x", value=0.2, bound=0.1, bound_formula="f",
                        min_entropy=1.0)
        assert not r.passed and "pass=False" in r.line()
        assert "min_entropy=1" in r.line()
        assert "min_entropy" not in ExactReport("x", 0.1, 0.1, "f").line()
        # at_least forgives float dust below the bound, and only dust
        assert ExactReport("x", 3.0, 3.0000000000000004, "f", at_least=True).passed
        assert not ExactReport("x", 2.9, 3.0, "f", at_least=True).passed
        assert ExactReport("x", 3.1, 3.0, "f", at_least=True).passed
        assert not ExactReport("x", 3.1, 3.0, "f").passed


class TestBinding:
    def test_nonvacuous_config(self):
        # omega=1 vs 2h(1/16): real separation, and the search finds nothing
        rep = binding_attack(k=16, digest_len=16, sigma=1.0 / 16.0,
                             trials=40, seed=5)
        expected = 4.0 * 2 ** (-(1.0 - 2 * binary_entropy(1.0 / 16.0)) * 16)
        assert rep.bound == pytest.approx(expected, rel=1e-12)
        assert rep.bound == pytest.approx(0.108313, abs=1e-6)
        assert rep.successes == 0 and rep.passed

    def test_pigeonhole_inversion(self):
        # ball size 137 > 2**4 digests: a collision always exists
        rep = binding_attack(k=16, digest_len=4, sigma=0.125, trials=30, seed=1)
        assert rep.rate == 1.0

    def test_regime_refusal(self):
        with pytest.raises(RegimeError):
            binding_attack(k=17, digest_len=4, sigma=0.1, trials=1)


HIDE_A = IndexSet(12, (2, 3, 6, 7, 10, 11))


class TestHiding:
    def test_prefix_storage_frozen(self):
        rep = hiding_distance(
            a_positions=HIDE_A,
            stored_positions=IndexSet(12, (0, 1, 2, 3)),
            stored_value=BitString.zeros(4), digest_len=2,
        )
        assert rep.value == pytest.approx(0.232422, abs=1e-6)
        assert rep.min_entropy == pytest.approx(2.0, abs=1e-9)
        assert rep.bound == pytest.approx(0.5 * 2 ** ((1 - 2.0) / 2), abs=1e-12)
        assert rep.passed

    def test_no_storage_frozen(self):
        rep = hiding_distance(
            a_positions=HIDE_A,
            stored_positions=IndexSet(12, ()),
            stored_value=BitString.zeros(0), digest_len=2,
        )
        assert rep.value == pytest.approx(503 / 8192, abs=1e-9)
        assert rep.min_entropy == pytest.approx(4.0, abs=1e-9)
        assert rep.passed

    def test_equal_values_distance_zero(self):
        v = BitString(1, 1)
        rep = hiding_distance(
            a_positions=HIDE_A,
            stored_positions=IndexSet(12, (0, 1, 2, 3)),
            stored_value=BitString.zeros(4), digest_len=2,
            v0=v, v1=v,
        )
        assert rep.value == 0.0

    def test_full_storage_inversion(self):
        # the adversary keeps all six sampled bits: distance hits 1
        rep = hiding_distance(
            a_positions=HIDE_A,
            stored_positions=HIDE_A,
            stored_value=BitString.zeros(6), digest_len=2,
        )
        assert rep.value == pytest.approx(1.0)
        assert rep.min_entropy == pytest.approx(0.0)
        assert not rep.passed

    def test_stored_positions_on_another_ground_refused(self):
        with pytest.raises(ValueError, match="ground"):
            hiding_distance(
                a_positions=HIDE_A,
                stored_positions=IndexSet(13, (0, 1, 2, 3)),
                stored_value=BitString.zeros(4), digest_len=2,
            )

    def test_stored_value_shorter_than_positions_refused(self):
        with pytest.raises(ValueError, match="ground"):
            hiding_distance(
                a_positions=HIDE_A,
                stored_positions=IndexSet(12, (0, 1, 2, 3)),
                stored_value=BitString.zeros(3), digest_len=2,
            )

    def test_regime_refusal(self):
        with pytest.raises(RegimeError):
            hiding_distance(a_positions=IndexSet(13, range(6)),
                            stored_positions=IndexSet(13, ()),
                            stored_value=BitString.zeros(0), digest_len=2)


class TestOffbranch:
    def test_honest_gap(self):
        rep = ot_offbranch_distance(LinearCode.repetition(3), out_len=1)
        assert rep.value == pytest.approx(0.25, abs=1e-12)
        assert rep.bound == pytest.approx(0.5)
        assert rep.passed

    def test_stored_all_inversion(self):
        # keeping the whole view makes the pad deterministic: distance
        # doubles to the 1-bit maximum (the formal bound goes vacuous here)
        rep = ot_offbranch_distance(LinearCode.repetition(3), out_len=1,
                                    stored_all=True)
        assert rep.value == pytest.approx(0.5, abs=1e-12)
        assert rep.min_entropy == pytest.approx(0.0)
        assert rep.bound > 0.5

    def test_regime_refusal(self):
        with pytest.raises(RegimeError):
            ot_offbranch_distance(LinearCode.repetition(3), out_len=3)


class TestTheta:
    def test_member_strategy_bounded(self):
        rep = ih_theta_attack(m=12, t=6, trials=3000, seed=2)
        assert rep.bound == pytest.approx(4.0 * 2.0**-6)
        assert rep.passed

    def test_regime_refusal(self):
        with pytest.raises(RegimeError):
            ih_theta_attack(m=17, t=6, trials=1)


class TestLemmas:
    def test_birthday(self):
        rep = lemma_birthday(n=2048, ell=16, trials=2000, seed=3)
        assert rep.passed
        assert rep.bound >= 2.0 * math.exp(-16 / 4.0)

    def test_subset_hd_two_sided(self):
        upper, lower = lemma_subset_hd(n=2048, r=192, delta=0.15, nu=0.1,
                                       trials=1500, seed=4)
        assert (upper.name, lower.name) == ("lemma-subset-hd-upper", "lemma-subset-hd-lower")
        assert upper.trials == lower.trials == 1500
        assert upper.passed and lower.passed
        assert upper.bound == lower.bound == pytest.approx(2.0 * math.exp(-192 * 0.01 / 2.0))

    def test_binom_exhaustive(self):
        rep = lemma_binom_bound(24)
        assert rep.passed and rep.bound == 1.0
        assert rep.value == pytest.approx(0.519928, abs=1e-6)

    def test_entropy_hd(self):
        rep = lemma_entropy_hd(8, 0.75, 0.125)
        assert rep.value == pytest.approx(3.19265, abs=1e-4)
        assert rep.bound == pytest.approx(1.65148, abs=1e-4)
        assert rep.at_least and rep.passed

    def test_entropy_support_ignores_float_dust(self):
        # 3 * 0.1 * 10 == 3.0000000000000004: three support bits, not four,
        # and the bound that holds with equality passes
        rep = lemma_entropy_hd(10, 3 * 0.1, 0.0)
        assert rep.value == pytest.approx(3.0)
        assert rep.passed

    def test_entropy_regime(self):
        with pytest.raises(RegimeError):
            lemma_entropy_hd(11, 0.75, 0.1)


class TestUniformSubset:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 4095, 4096, 4097])
    def test_k_distinct_values_in_range(self, n):
        rng = random.Random(n)
        for k in sorted({0, 1, n // 2, n}):
            got = _uniform_subset(n, k, rng)
            assert len(got) == k
            assert all(type(v) is int and 0 <= v < n for v in got)

    @pytest.mark.parametrize("n,k", [(5, -1), (5, 6), (0, 1), (1, 2)])
    def test_bad_k_refused(self, n, k):
        with pytest.raises(ValueError):
            _uniform_subset(n, k, random.Random(0))

    def test_same_seed_same_set(self):
        for n, k in ((4096, 64), (4097, 300), (5, 2)):
            assert _uniform_subset(n, k, random.Random(9)) == _uniform_subset(n, k, random.Random(9))
        assert _uniform_subset(4096, 64, random.Random(9)) != _uniform_subset(4096, 64, random.Random(10))

    def test_every_pair_equally_likely(self):
        # n=5 keeps the top 3 bits of each word and rejects 5, 6 and 7
        n, k, draws = 5, 2, 20_000
        rng = random.Random(12)
        counts = Counter(frozenset(_uniform_subset(n, k, rng)) for _ in range(draws))
        subsets = [frozenset(c) for c in itertools.combinations(range(n), k)]
        assert set(counts) == set(subsets)
        p = 1 / len(subsets)
        half = 4.0 * math.sqrt(draws * p * (1.0 - p))
        for sub in subsets:
            assert abs(counts[sub] - draws * p) <= half, (sorted(sub), counts[sub])


class TestTrialCount:
    @pytest.mark.parametrize("trials", [0, -1])
    def test_fewer_than_one_trial_refused(self, trials):
        with pytest.raises(ValueError, match="trial"):
            ih_theta_attack(m=12, t=6, trials=trials)
        with pytest.raises(ValueError, match="trial"):
            binding_attack(k=8, digest_len=4, sigma=0.125, trials=trials)
        with pytest.raises(ValueError, match="trial"):
            lemma_birthday(n=2048, ell=16, trials=trials)
        with pytest.raises(ValueError, match="trial"):
            lemma_subset_hd(n=2048, r=192, delta=0.15, nu=0.1, trials=trials)
