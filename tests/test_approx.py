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
    asymptote_a0,
    beta_I,
    log_beta_I,
    sop_lower_closed,
)
from cumasim.geometry import preset_grid, preset_names
from cumasim.specfun import DomainError


def exponential_law(beta):
    """Tabulated law of the exponential fit Exp(beta), the closed forms' reference."""
    return ExactLaw.from_pdf(lambda z: np.exp(-z / beta) / beta, beta)


def random_stats(rng, n=20):
    """Valid parameter bundles spanning the supported magnitude range."""
    out = []
    for _ in range(n):
        nbar = int(rng.integers(1, 220))
        omega = float(rng.uniform(0.25, 4.0))
        mu = 0.5 * nbar * math.sqrt(omega / math.pi)
        # keep the tail exponent below ~150 so linear-domain identities
        # stay representable
        expo = float(rng.uniform(0.2, 140.0))
        sigma1_sq = mu * mu / (2.0 * expo)
        sigma2_sq = float(rng.uniform(0.2, 3.0)) * max(nbar, 4) * omega / 4.0
        out.append(
            ChannelStats(
                omega=omega,
                nbar=nbar,
                mu=mu,
                sigma1_sq=sigma1_sq,
                sigma2_sq=sigma2_sq,
                interferers=int(rng.integers(1, 40)),
                delta=float(rng.uniform(0.05, 1.0)),
            )
        )
    return out


class TestAsymptoteCoeffs:
    def test_scale_identity(self, rng):
        for st in random_stats(rng, 20):
            assert abs(beta_I(st) * math.pi * asymptote_a0(st) ** 2 - 1.0) < 1e-12

    def test_matches_extracted_slope(self, case1_stats):
        # numerically extract lim z->0 f(z) sqrt(z) from the exact density
        a0 = asymptote_a0(case1_stats)
        z = 1e-12
        slope = exact_pdf_zI(z, case1_stats) * math.sqrt(z)
        assert slope == pytest.approx(a0, rel=1e-5)


class TestBetaI:
    def test_inverse_delta_scaling(self, case1_stats):
        half = dataclasses.replace(case1_stats, delta=0.5)
        assert beta_I(half) == pytest.approx(2.0 * beta_I(case1_stats), rel=1e-12)

    def test_delta_times_beta_constant(self, case1_stats):
        ref = case1_stats.delta * beta_I(case1_stats)
        for d in (0.07, 0.3, 0.9):
            st = dataclasses.replace(case1_stats, delta=d)
            assert d * beta_I(st) == pytest.approx(ref, rel=1e-12)

    def test_case_value_frozen(self, case1_stats):
        # golden value extracted from the exact density's small-z slope
        # with a 40-digit evaluator
        assert beta_I(case1_stats) == pytest.approx(865114.532156, rel=1e-9)

    def test_log_form_agrees(self, case1_stats):
        assert math.exp(log_beta_I(case1_stats)) == pytest.approx(beta_I(case1_stats), rel=1e-13)


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
        with pytest.raises(DomainError):
            approx_pdf_zI(-1.0, 1.0)
        with pytest.raises(DomainError):
            approx_pdf_zI(1.0, 0.0)


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


def paper_er(users, beta_scaled, sigma2_sq):
    """The paper's closed-form rate on its sigma2^2-scaled SIR, x = sigma2^2 / beta_scaled."""
    x = sigma2_sq / beta_scaled
    return users * math.exp(x) * float(exp1(x)) / math.log(2.0)


def paper_op(gamma_th, beta_scaled, sigma2_sq):
    """The paper's closed-form outage 1 - exp(-(2^g - 1) sigma2^2 / beta_scaled)."""
    return -math.expm1(-(2.0**gamma_th - 1.0) * sigma2_sq / beta_scaled)


@pytest.mark.parametrize("preset", preset_names())
def test_raw_unit_closed_forms_match_the_paper_form(preset):
    # the paper scales the SIR by sigma2^2 and the fit with it; the raw-unit
    # forms must give the same rate and outage
    base = ChannelStats.from_grid(preset_grid(preset), users=2)
    for delta in (1.0, 0.1):
        for users in range(2, 61):
            st = dataclasses.replace(base, interferers=users - 1, delta=delta)
            beta, s2 = beta_I(st), st.sigma2_sq
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

    def test_domain(self):
        with pytest.raises(DomainError):
            sop_lower_closed(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            sop_lower_closed(1.0, 1.0, -0.5)
