import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy.special import exp1

from cumasim.analytic import ChannelStats, ExactLaw, exact_er, exact_pdf_zI, sop_lower_numeric
from cumasim.approx import (
    approx_cdf_z,
    approx_er,
    approx_op,
    approx_pdf_z,
    approx_pdf_zI,
    beta_I,
    sop_lower_closed,
)
from cumasim.geometry import PRESETS, preset_grid
from cumasim.specfun import DomainError


def exponential_law(beta):
    """Tabulated law of the exponential fit Exp(beta), the closed forms' reference."""
    return ExactLaw(lambda z: np.exp(-z / beta) / beta, beta, -40.0, 40.0)


def random_stats(rng, n=20):
    """(stats, delta) pairs of valid parameters spanning the supported magnitude range."""
    out = []
    for _ in range(n):
        nbar = int(rng.integers(1, 220))
        mu = 0.5 * nbar * math.sqrt(1.0 / math.pi)
        # keep the tail exponent below ~150 so linear-domain identities
        # stay representable
        expo = float(rng.uniform(0.2, 140.0))
        sigma1_sq = mu * mu / (2.0 * expo)
        sigma2_sq = float(rng.uniform(0.05, 12.0)) * max(nbar, 4) / 4.0
        stats = ChannelStats(nbar=nbar, sigma1_sq=sigma1_sq, sigma2_sq=sigma2_sq, interferers=int(rng.integers(1, 40)))
        out.append((stats, float(rng.uniform(0.05, 1.0))))
    return out


class TestAsymptoteCoeffs:
    def test_scale_identity(self, rng):
        # the paper's a0 at delta, computed apart from the package's _log_a0
        for st, d in random_stats(rng, 20):
            a0 = paper_a0(st.mu, st.sigma1_sq, st.sigma2_sq, d, st.interferers)
            assert abs(beta_I(st, d) * math.pi * a0**2 - 1.0) < 1e-12

    def test_matches_extracted_slope(self, case1_stats):
        # numerically extract lim z->0 f(z) sqrt(z) from the exact density
        st = case1_stats
        a0 = paper_a0(st.mu, st.sigma1_sq, st.sigma2_sq, 1.0, st.interferers)
        z = 1e-12
        slope = exact_pdf_zI(z, case1_stats) * math.sqrt(z)
        assert slope == pytest.approx(a0, rel=1e-5)


def paper_a0(mu, sigma1_sq, sigma2_sq, delta, interferers):
    """The paper's a0 at explicit moments, in the linear domain.

    a0 = exp(-mu^2 / (2 sigma1^2)) sqrt(delta) sigma2 E[sqrt Q] / (sqrt(2 pi) sigma1)
    with E[sqrt Q] = sqrt(2) Gamma((I + 1)/2) / Gamma(I/2).
    """
    e_sqrt_q = math.sqrt(2.0) * math.gamma(0.5 * (interferers + 1)) / math.gamma(0.5 * interferers)
    tail = math.exp(-mu * mu / (2.0 * sigma1_sq))
    return tail * math.sqrt(delta * sigma2_sq) * e_sqrt_q / math.sqrt(2.0 * math.pi * sigma1_sq)


class TestBetaI:
    @pytest.mark.parametrize("omega", [1e-3, 1.0, 2.5, 40.0])
    def test_channel_power_cancels(self, case1_stats, omega):
        # mu scales with sqrt(omega) and both variances with omega, so the
        # paper's a0, and with it beta = 1 / (pi a0^2), is the unit-power one
        st = case1_stats
        a0 = paper_a0(math.sqrt(omega) * st.mu, omega * st.sigma1_sq, omega * st.sigma2_sq, 0.3, st.interferers)
        assert -math.log(math.pi) - 2.0 * math.log(a0) == pytest.approx(math.log(beta_I(st, 0.3)), rel=1e-13)

    def test_inverse_delta_scaling(self, case1_stats):
        assert beta_I(case1_stats, 0.5) == pytest.approx(2.0 * beta_I(case1_stats), rel=1e-12)

    def test_delta_times_beta_constant(self, case1_stats):
        ref = beta_I(case1_stats)
        for d in (0.07, 0.3, 0.9):
            assert d * beta_I(case1_stats, d) == pytest.approx(ref, rel=1e-12)

    def test_case_value_frozen(self, case1_stats):
        # golden value extracted from the exact density's small-z slope
        # with a 40-digit evaluator
        assert beta_I(case1_stats) == pytest.approx(865114.532156, rel=1e-9)


class TestApproxPdfZI:
    @pytest.mark.parametrize("beta", [0.7, 1.0, 12.0])
    def test_normalizes(self, beta):
        total = integrate.quad(lambda u: 2 * u * approx_pdf_zI(u * u, beta), 0, math.sqrt(60 * beta))[0]
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_mean_is_half_beta(self):
        beta = 2.3
        mean = integrate.quad(lambda u: 2 * u * u * u * approx_pdf_zI(u * u, beta), 0, math.sqrt(90 * beta))[0]
        assert mean == pytest.approx(beta / 2.0, rel=1e-8)

    def test_tracks_exact_density_near_zero(self, case1_stats):
        beta = beta_I(case1_stats)
        z = 1e-10
        ratio = approx_pdf_zI(z, beta) / exact_pdf_zI(z, case1_stats)
        assert ratio == pytest.approx(1.0, abs=0.02)

    def test_domain(self):
        for z in (-1.0, 0.0, math.nan):
            with pytest.raises(DomainError, match="requires z > 0"):
                approx_pdf_zI(z, 1.0)
        for beta in (0.0, math.nan):
            with pytest.raises(DomainError):
                approx_pdf_zI(1.0, beta)


class TestApproxPdfZ:
    def test_cdf_limits(self):
        assert approx_cdf_z(0.0, 2.0) == 0.0
        assert approx_cdf_z(1e9, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_survival_is_exact_exponential(self):
        beta = 1.7
        for z in (0.1, 1.0, 5.0):
            assert 1.0 - approx_cdf_z(z, beta) == pytest.approx(math.exp(-z / beta), rel=1e-12)

    def test_cdf_monotone(self):
        zs = np.linspace(0, 30, 200)
        vals = [approx_cdf_z(float(z), 2.2) for z in zs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("beta", [0.8, 3.0])
    def test_self_convolution_gives_exponential(self, beta):
        # two i.i.d. half-shape gammas add to an exponential, exactly
        for z in np.geomspace(0.01 * beta, 10 * beta, 25):
            conv = 2.0 * integrate.quad(
                lambda u: 2.0 * u * approx_pdf_zI(u * u, beta) * approx_pdf_zI(z - u * u, beta),
                0.0,
                math.sqrt(z / 2.0),
                epsabs=1e-14,
                epsrel=1e-11,
            )[0]
            assert abs(conv - approx_pdf_z(float(z), beta)) < 1e-6

    def test_median(self):
        beta = 2.9
        z = beta * math.log(2.0)
        assert approx_cdf_z(z, beta) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0, math.nan])
    def test_scale_domain(self, beta):
        # a NaN scale fails "beta > 0" like a zero one
        for fn in (approx_pdf_z, approx_cdf_z, approx_op):
            with pytest.raises(DomainError, match="beta must be positive"):
                fn(1.0, beta)

    @pytest.mark.parametrize("z", [-1.0, math.nan])
    def test_argument_domain(self, z):
        # a NaN argument fails "z >= 0" like a negative one
        with pytest.raises(DomainError, match="requires z >= 0"):
            approx_pdf_z(z, 1.0)


class TestApproxEr:
    # (users, paper-unit scale, sigma2^2): the raw-SIR scale is their ratio
    @pytest.mark.parametrize(
        "users,beta,sigma2",
        [
            (4, 0.5, 1.0),
            (10, 2.0, 7.0),
            (20, 865114.5, 5.81),
            (20, 50.0, 5.81),
            (40, 1.0, 30.0),
            (8, 12.0, 0.7),
            (2, 3.0, 3.0),
            (16, 0.08, 0.9),
            (30, 400.0, 60.0),
            (12, 7.7, 7.7),
        ],
    )
    def test_matches_quadrature(self, users, beta, sigma2):
        want = exact_er(users, exponential_law(beta / sigma2))
        assert approx_er(users, beta / sigma2) == pytest.approx(want, rel=1e-6)

    def test_linear_in_users(self):
        assert approx_er(20, 2.0) == pytest.approx(2 * approx_er(10, 2.0), rel=1e-14)

    def test_decreasing_in_interference_ratio(self):
        assert approx_er(10, 0.01) < approx_er(10, 0.1)

    def test_extreme_ratio_uses_stable_branch(self):
        # x = 1/beta beyond 700 must not overflow
        val = approx_er(10, 1.0 / 900.0)
        want = float(10 * mp.exp(900) * mp.e1(900) / mp.log(2))
        assert val == pytest.approx(want, rel=1e-10)

    def test_tiny_ratio_uses_log_asymptote(self):
        val = approx_er(10, 1e20)
        want = float(10 * (-mp.log(mp.mpf(1e-20)) - mp.euler) / mp.log(2))
        assert val == pytest.approx(want, rel=1e-9)


class TestApproxOp:
    def test_zero_threshold(self):
        assert approx_op(0.0, 2.0) == 0.0

    def test_unit_scale_point(self):
        # gamma_th = 1 and beta = 1 puts the threshold at one scale
        assert approx_op(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        assert approx_op(1.0, 1.0) == pytest.approx(0.6321206, abs=1e-7)

    def test_matches_cdf(self):
        beta = 3.0 / 1.4
        for g in (0.2, 1.0, 3.3):
            assert approx_op(g, beta) == approx_cdf_z(2.0**g - 1.0, beta)

    def test_monotone_limits(self):
        assert approx_op(1e-12, 2.0) < 1e-12
        assert approx_op(40.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gamma_th", [-0.5, math.nan, math.inf])
    def test_domain(self, gamma_th):
        with pytest.raises(DomainError):
            approx_op(gamma_th, 2.0)

    @pytest.mark.parametrize("gamma_th", [1024.0, 1e308])
    def test_overflowing_threshold_is_certain_outage(self, gamma_th):
        # 2^gamma_th is past the largest double: the SIR threshold is inf
        assert approx_op(gamma_th, 2.0) == 1.0


def paper_er(users, beta_scaled, sigma2_sq):
    """The paper's closed-form rate on its sigma2^2-scaled SIR, x = sigma2^2 / beta_scaled."""
    x = sigma2_sq / beta_scaled
    return users * math.exp(x) * float(exp1(x)) / math.log(2.0)


def paper_op(gamma_th, beta_scaled, sigma2_sq):
    """The paper's closed-form outage 1 - exp(-(2^g - 1) sigma2^2 / beta_scaled)."""
    return -math.expm1(-(2.0**gamma_th - 1.0) * sigma2_sq / beta_scaled)


@pytest.mark.parametrize("preset", list(PRESETS))
def test_raw_unit_closed_forms_match_the_paper_form(preset):
    # the paper scales the SIR by sigma2^2 and the fit with it; the raw-unit
    # forms must give the same rate and outage
    base = ChannelStats.from_grid(preset_grid(preset), users=2)
    for delta in (1.0, 0.1):
        for users in range(2, 61):
            st = dataclasses.replace(base, interferers=users - 1)
            beta, s2 = beta_I(st, delta), st.sigma2_sq
            assert approx_er(users, beta) == pytest.approx(paper_er(users, s2 * beta, s2), rel=1e-14)
            for g in (0.3, 1.0, 4.0):
                assert approx_op(g, beta) == pytest.approx(paper_op(g, s2 * beta, s2), rel=1e-14)


class TestSopLowerClosed:
    def test_symmetric_point_exact(self):
        assert sop_lower_closed(3.7, 3.7, 0.0) == 0.5

    def test_worked_example(self):
        assert sop_lower_closed(2.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_monotone_directions(self, rng):
        for _ in range(5):
            bb = float(rng.uniform(0.2, 5.0))
            be = float(rng.uniform(0.2, 5.0))
            rs = float(rng.uniform(0.0, 3.0))
            h = 1e-6
            base = sop_lower_closed(bb, be, rs)
            assert sop_lower_closed(bb, be, rs + h) > base
            assert sop_lower_closed(bb, be + h, rs) > base
            assert sop_lower_closed(bb + h, be, rs) < base

    @pytest.mark.parametrize(
        "bb,be,rs",
        [(1.0, 1.0, 0.0), (2.0, 1.0, 1.0), (0.3, 2.2, 0.5), (5.0, 0.1, 2.0), (1.4, 1.4, 3.0)],
    )
    def test_matches_double_quadrature(self, bb, be, rs):
        want = sop_lower_numeric(exponential_law(bb), exponential_law(be), rs)
        assert sop_lower_closed(bb, be, rs) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("be,rs", [(1.0, 1e308), (1e300, 1000.0)])
    def test_overflowing_eve_scale_is_certain_outage(self, be, rs):
        # 2^rs beta_E overflows, from the rate alone or with a huge scale
        assert sop_lower_closed(1.0, be, rs) == 1.0

    def test_domain(self):
        for scales in ((0.0, 1.0), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError):
                sop_lower_closed(*scales, 1.0)
        with pytest.raises(DomainError):
            sop_lower_closed(1.0, 1.0, -0.5)
