import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsme.codes import LinearCode
from bsme.harness import ih_theta_attack
from bsme.infomath import (
    EPS_PRIME,
    IH_SLACK,
    ZETA_IH,
    CommitParams,
    Distribution,
    ParameterError,
    binary_entropy,
    commit_delta_threshold,
    commit_feasible,
    cond_min_entropy,
    derive_commit_params,
    derive_ot_params,
    floor_tol,
    inv_binary_entropy,
    ot_feasible_gv,
    ot_gv_delta_threshold,
    rho,
    statistical_distance,
    subset_size_for,
    zyablov_delta,
)
from bsme.subsets import DenseCode


class TestScalars:
    def test_floor_tol_absorbs_float_dust(self):
        assert floor_tol(0.07 * 100) == 7  # 0.07*100 == 7.000000000000001
        assert floor_tol(6.999999999) == 7
        assert floor_tol(2.5) == 2
        assert floor_tol(-0.5) == -1

    def test_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_entropy_known_value(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)

    @given(st.floats(0.0, 1.0))
    def test_entropy_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    def test_entropy_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    def test_inverse_entropy_known_value(self):
        assert inv_binary_entropy(0.5) == pytest.approx(0.11002786443835955, abs=1e-12)
        assert inv_binary_entropy(0.0) == 0.0
        assert inv_binary_entropy(1.0) == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(0.0, 1.0))
    def test_inverse_entropy_roundtrip(self, y):
        assert binary_entropy(inv_binary_entropy(y)) == pytest.approx(y, abs=1e-9)


class TestDistributions:
    def test_validation(self):
        with pytest.raises(ValueError):
            Distribution({0: 0.5, 1: 0.6})
        with pytest.raises(ValueError):
            Distribution({0: -0.1, 1: 1.1})
        with pytest.raises(ValueError):
            Distribution({})

    def test_statistical_distance_extremes(self):
        p = Distribution({0: 1.0})
        q = Distribution({1: 1.0})
        assert statistical_distance(p, p) == 0.0
        assert statistical_distance(p, q) == pytest.approx(1.0)

    def test_statistical_distance_half_l1(self):
        p = Distribution({0: 0.5, 1: 0.5})
        q = Distribution({0: 0.25, 1: 0.25, 2: 0.5})
        # L1 = 0.25 + 0.25 + 0.5
        assert statistical_distance(p, q) == pytest.approx(0.5)

    def test_cond_min_entropy_is_worst_case(self):
        # given y=0 the value is fully determined, so the worst case is 0
        joint = Distribution({(0, 0): 0.5, (1, 1): 0.25, (2, 1): 0.25})
        assert cond_min_entropy(joint) == pytest.approx(0.0)
        flat = Distribution({(x, y): 0.25 for x in (0, 1) for y in (0, 1)})
        assert cond_min_entropy(flat) == pytest.approx(1.0)


class TestFeasibility:
    def test_rho_pinned(self):
        assert rho(1.0, 0.25, 4096) == 0.741943359375

    def test_rho_formula(self):
        assert rho(0.9, 0.1, 100) == pytest.approx(0.8 - 33 / 100)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            rho(0.5, 0.5, 100)
        with pytest.raises(ValueError):
            rho(1.0, 0.0, 0)

    def test_commit_margin_pinned(self):
        f = commit_feasible(0.75, 0.05)
        assert f.feasible
        assert f.margin == pytest.approx(0.1772060857680875, abs=1e-12)

    def test_commit_infeasible(self):
        f = commit_feasible(0.3, 0.2)
        assert not f.feasible and f.margin < 0

    def test_ot_gv(self):
        f = ot_feasible_gv(0.75, 0.05)
        assert f.feasible
        assert f.margin == pytest.approx(0.75 - binary_entropy(0.1), abs=1e-12)
        # no positive-rate code corrects relative distance 2*delta >= 1/2
        for delta in (0.25, 0.3, 0.5):
            f = ot_feasible_gv(0.75, delta)
            assert not f.feasible and f.margin == pytest.approx(0.75 - 1.0, abs=1e-12)
        with pytest.raises(ValueError):
            ot_feasible_gv(0.75, 0.6)

    @given(st.floats(0.01, 1.0))
    def test_thresholds_invert_the_conditions(self, s):
        d_commit = commit_delta_threshold(s)
        assert 2.0 * binary_entropy(d_commit) == pytest.approx(s, abs=1e-8)
        d_ot = ot_gv_delta_threshold(s)
        assert binary_entropy(2.0 * d_ot) == pytest.approx(s, abs=1e-8)

    def test_zyablov_shape(self):
        mid = zyablov_delta(0.5)
        assert 0.0 < mid < inv_binary_entropy(0.5) / 2.0
        assert zyablov_delta(0.1) > mid > zyablov_delta(0.9)
        # rates past 0.999 still have a small positive maximum
        assert 0.0 < zyablov_delta(0.9995) < zyablov_delta(0.99)
        with pytest.raises(ValueError):
            zyablov_delta(0.0)

    @pytest.mark.parametrize("rate", [0.01, 0.1, 0.37, 0.5, 0.8, 0.99])
    def test_zyablov_matches_dense_grid(self, rate):
        # the search finds the objective's maximum over (rate, 1), which a
        # 5,000-point grid approaches from below
        def value(r):
            return (1.0 - r) * inv_binary_entropy(1.0 - rate / r) / 2.0

        grid = max(value(rate + (1.0 - rate) * i / 5_000) for i in range(1, 5_000))
        got = zyablov_delta(rate)
        assert grid <= got + 1e-15
        assert got == pytest.approx(grid, rel=1e-5, abs=1e-12)

    @given(st.integers(1, 400), st.integers(1, 40))
    def test_subset_size_even_floor(self, n, ell):
        k = subset_size_for(n, ell)
        assert k % 2 == 0
        assert k * k <= 4 * ell * n
        assert (k + 2) * (k + 2) > 4 * ell * n

    def test_subset_size_pinned(self):
        assert subset_size_for(4096, 16) == 512
        assert subset_size_for(4096, 14) == 478


class TestDeriveCommit:
    def test_reference_chain(self):
        # recompute the whole derivation independently
        p = derive_commit_params(n=4096, ell=16, alpha=1.0, gamma=0.25,
                                 delta=0.02, zeta=0.05)
        assert isinstance(p, CommitParams)
        assert p.k == 512
        r = 0.75 - 33.0 / 4096.0
        assert p.rho == r
        noise = 2.0 * binary_entropy(0.07)
        gap = r - noise
        assert p.tau == pytest.approx(gap / 32.0, abs=1e-15)
        assert p.omega == pytest.approx(noise + gap / 32.0, abs=1e-15)
        assert p.k_e == math.floor((r - 3.0 * p.tau - p.omega) * 512 + 1e-9)
        assert p.k_e == 4
        assert p.m == 3
        assert p.digest_len == math.floor(p.omega * 512 + 1e-9)
        assert p.digest_len == 374

    def test_noiseless_defaults(self):
        p = derive_commit_params(n=4096, ell=16)
        assert p.delta == 0.0
        assert p.m >= 1 and p.digest_len >= 1 and p.ell <= p.k <= p.n

    def test_requirement_auto_gap(self):
        # the derived tau/omega need headroom between rho and the noise term
        with pytest.raises(ParameterError) as info:
            derive_commit_params(n=4096, ell=16, gamma=0.25, delta=0.08, zeta=0.05)
        assert info.value.requirement == "2*h(delta+zeta) < rho"

    def test_requirement_sample_fits(self):
        with pytest.raises(ParameterError) as info:
            derive_commit_params(n=4, ell=4)
        assert info.value.requirement == "k <= n"

    def test_requirement_ell_le_k(self):
        # ell > 4n makes the derived sample smaller than ell
        with pytest.raises(ParameterError) as info:
            derive_commit_params(n=1, ell=5)
        assert info.value.requirement == "ell <= k"

    def test_requirement_delta_zeta_band(self):
        with pytest.raises(ParameterError) as info:
            derive_commit_params(n=4096, ell=16, delta=0.3, zeta=0.2)
        assert "delta + zeta < 1/2" in info.value.requirement

    def test_requirement_rho_positive(self):
        with pytest.raises(ParameterError) as info:
            derive_commit_params(n=256, ell=4, alpha=0.3, gamma=0.2)
        assert info.value.requirement == "rho > 0"

    @pytest.mark.parametrize("zeta,gamma,requirement", [
        (0.037, 0.0, "k_E >= 1"),
        (0.033, 0.0, "m >= 1"),
        (0.001, 0.25, "floor(omega*k) >= 1"),
    ], ids=["k_E", "m", "digest"])
    def test_requirement_at_derived_point(self, zeta, gamma, requirement):
        # a small sample leaves too few bits after the derived split
        with pytest.raises(ParameterError) as info:
            derive_commit_params(n=64, ell=4, gamma=gamma, delta=0.0, zeta=zeta)
        assert info.value.requirement == requirement

    def test_split_meets_inequalities(self):
        # The derivation checks none of these: the split must meet them at
        # every point it derives.
        derived = 0
        for n, ell, alpha, gamma, delta, zeta in itertools.product(
                (64, 256, 1024, 4096, 16384, 65536), (4, 8, 16, 32), (0.5, 0.75, 1.0),
                (0.0, 0.1, 0.25, 0.4), (0.0, 0.01, 0.02, 0.04), (0.001, 0.01, 0.05, 0.1)):
            try:
                p = derive_commit_params(n=n, ell=ell, alpha=alpha, gamma=gamma,
                                         delta=delta, zeta=zeta)
            except ParameterError:
                continue
            derived += 1
            noise = 2.0 * binary_entropy(delta + zeta)
            assert 0.0 < p.tau <= p.rho / 3.0, p
            assert noise < p.omega < p.rho - 3.0 * p.tau, p
        assert derived >= 1000

    @pytest.mark.parametrize("name", ["alpha", "gamma", "delta", "zeta"])
    def test_nan_refused(self, name):
        with pytest.raises(ParameterError):
            derive_commit_params(n=4096, ell=16, **{name: math.nan})


class TestDeriveOT:
    def test_reference_chain(self):
        code = LinearCode.hamming_7_4()
        p = derive_ot_params(n=4096, ell=14, code=code, gamma=0.0, delta=0.01,
                             tau=0.02, m_f=Fraction(1, 7), eps_hat=0.25)
        assert p.k == 478
        assert p.m == math.ceil(math.log2(math.comb(478, 14))) + IH_SLACK
        assert p.m == 128
        assert p.rate == Fraction(4, 7)
        assert p.payload_len == 2
        assert p.p_len == 6
        r = 1.0 - 33.0 / 4096.0
        assert p.rho == r
        hat = (1.0 + 2.0) / 14.0
        k_f = r + 4.0 / 7.0 - 3.0 * 0.02 - 2.0 / 7.0 - 1.0 - hat
        assert p.k_f == pytest.approx(k_f, abs=1e-12)
        assert p.k_f == pytest.approx(0.003372, abs=1e-6)
        nu = 0.02 / math.log2(50.0)
        assert p.eps_dprime == pytest.approx(math.exp(-14 * nu * nu / 2.0), abs=1e-15)
        assert 0 <= p.t <= p.m

    def test_auto_rates(self):
        p = derive_ot_params(n=4096, ell=14, code=LinearCode.hamming_7_4())
        assert p.tau == 0.02  # min(0.02, rho/6)
        budget = p.rho + 4.0 / 7.0 - 1.0 - 3.0 * p.tau - (1.0 + 2.0) / 14.0
        assert p.m_f == pytest.approx(0.475 * budget, abs=1e-12)
        assert p.payload_len >= 1

    def test_requirement_block_divides(self):
        with pytest.raises(ParameterError) as info:
            derive_ot_params(n=4096, ell=15, code=LinearCode.hamming_7_4())
        assert info.value.requirement == "code length divides ell"

    def test_requirement_radius(self):
        with pytest.raises(ParameterError) as info:
            derive_ot_params(n=4096, ell=14, code=LinearCode.hamming_7_4(),
                             delta=0.1, xi=0.1)
        assert info.value.requirement == "delta + xi <= radius / code length"

    def test_requirement_budget(self):
        # gamma pushes rho so low the whole entropy budget is negative
        with pytest.raises(ParameterError) as info:
            derive_ot_params(n=4096, ell=14, code=LinearCode.hamming_7_4(),
                             gamma=0.6)
        assert info.value.requirement == "k_F > 0"

    def test_requirement_payload(self):
        with pytest.raises(ParameterError) as info:
            derive_ot_params(n=4096, ell=14, code=LinearCode.hamming_7_4(),
                             m_f=0.01)
        assert info.value.requirement == "floor(m_F*ell) >= 1"

    def test_requirement_kf_with_explicit_mf(self):
        with pytest.raises(ParameterError) as info:
            derive_ot_params(n=4096, ell=14, code=LinearCode.hamming_7_4(),
                             m_f=0.45)
        assert info.value.requirement == "k_F > 0"

    @pytest.mark.parametrize("eps_hat", [0.0, 1.0])
    def test_requirement_eps_hat_band(self, eps_hat):
        with pytest.raises(ParameterError) as info:
            derive_ot_params(n=4096, ell=14, code=LinearCode.hamming_7_4(),
                             eps_hat=eps_hat)
        assert info.value.requirement == "0 < eps_hat < 1"

    @pytest.mark.parametrize("tau", [0.0, 0.34])
    def test_requirement_tau_band(self, tau):
        # rho < 1, so tau <= rho/3 already keeps tau below 1
        with pytest.raises(ParameterError) as info:
            derive_ot_params(n=4096, ell=14, code=LinearCode.hamming_7_4(), tau=tau)
        assert info.value.requirement == "0 < tau <= rho/3"

    def test_trivial_code_noise_free_only(self):
        p = derive_ot_params(n=4096, ell=14, code=LinearCode.trivial(1),
                             delta=0.0, xi=0.0)
        assert p.p_len == 0
        with pytest.raises(ParameterError):
            derive_ot_params(n=4096, ell=14, code=LinearCode.trivial(1),
                             delta=0.0, xi=0.01)

    @pytest.mark.parametrize(
        "name", ["alpha", "gamma", "delta", "xi", "tau", "m_f", "eps_hat"])
    def test_nan_refused(self, name):
        with pytest.raises(ParameterError):
            derive_ot_params(n=4096, ell=14, code=LinearCode.hamming_7_4(),
                             **{name: math.nan})


class TestIHLength:
    """m = ceil(log2 C(k, ell)) + IH_SLACK: the encoding's length, not the
    hashing target's density m - t, is what the slack sets."""

    @staticmethod
    def _grid():
        for n in (128, 512, 1024, 4096, 16384, 65536):
            for eps_hat in (0.25, 0.9):
                for code, ells in ((LinearCode.trivial(1), range(4, 17)),
                                   (LinearCode.hamming_7_4(), (7, 14, 28, 56))):
                    for ell in ells:
                        try:
                            yield derive_ot_params(n=n, ell=ell, code=code, delta=0.0,
                                                   xi=0.0, eps_hat=eps_hat)
                        except ParameterError:
                            continue

    @pytest.mark.parametrize("m", [12, 14, 16])
    def test_theta_bound_depends_on_m_minus_t_only(self, m):
        rep = ih_theta_attack(m=m, t=m - 6, trials=10_000, seed=m)
        assert rep.bound == 4 * 2.0**-6
        assert rep.passed, (m, rep.rate)

    def test_grid_invalid_fraction_and_target_gap(self):
        derived = 0
        for p in self._grid():
            derived += 1
            assert p.ih_slack == IH_SLACK
            dc = DenseCode(p.k, p.ell, p.m)
            assert dc.invalid_count / 2**p.m < 2.0**-IH_SLACK, p
            tail = math.log2(1.0 / (EPS_PRIME + p.eps_dprime))
            gap = math.ceil(ZETA_IH * tail)
            # under m = 2*ell*ceil(log2 k), t = m - gap clamped at 0: the same gap
            old_m = 2 * p.ell * math.ceil(math.log2(p.k))
            assert p.m - p.t == gap == min(old_m, gap), p
        assert derived >= 100

    def test_toy_point_grows(self):
        # ell=4, k=90: 2*ell*ceil(log2 k) = 56, ceil(log2 C(90, 4)) + 40 = 62
        p = derive_ot_params(n=512, ell=4, code=LinearCode.trivial(1), delta=0.0,
                             xi=0.0, eps_hat=0.9)
        assert (p.k, p.m) == (90, 62)
        assert 2 * p.ell * math.ceil(math.log2(p.k)) == 56
