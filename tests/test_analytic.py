import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.special import gammaln, hyp1f1, ncfdtr

import cumasim.analytic as analytic
from cumasim.analytic import (
    ChannelStats,
    ExactLaw,
    QuadratureError,
    cov_pair,
    exact_er,
    exact_op,
    exact_pdf_z,
    exact_pdf_zI,
    exact_sop,
    sigma_sums,
    sop_lower_numeric,
)
from cumasim.approx import asymptote_a0, beta_I
from cumasim.geometry import HANDSET_APERTURE_M, PortGrid, grid_from_aperture, preset_grid
from cumasim.specfun import DomainError, exp2
from link_oracle import dense_correlation

mp.mp.dps = 40


def positive_part_product_mean(rho, omega):
    """E[max(0,X) max(0,Y)] for bivariate normals, adaptive 2D quadrature."""
    s = mp.sqrt(omega / mp.mpf(2))
    r = mp.mpf(rho)

    def inner(x):
        # E[max(0,Y) | X=x] for standard normals with correlation r, scaled by s
        mu_c = r * x
        sd_c = mp.sqrt(1 - r * r)
        t = mu_c / sd_c
        return mu_c * mp.ncdf(t) + sd_c * mp.npdf(t)

    f = lambda x: x * inner(x) * mp.npdf(x)
    val = mp.quad(f, [0, 2, 8, mp.inf])
    return float(s * s * val)


def cov_oracle(rho, omega):
    m1 = math.sqrt(omega) / (2.0 * math.sqrt(math.pi))
    return positive_part_product_mean(rho, omega) - m1 * m1


def w_func(a, b, c):
    """The paper's truncated-Gaussian moment kernel, with mpmath's 2F1.

    W(a,b,c) = -a Gamma(d_c) / (sqrt(2 pi) b^d_c) 2F1(1/2, d_c; 3/2; -a^2/(2b))
               + Gamma(c+1) / (2 b^(c+1)),   d_c = (2c + 3)/2.
    """
    a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
    dc = c + mp.mpf(1.5)
    first = -a * mp.gamma(dc) / (mp.sqrt(2 * mp.pi) * b**dc) * mp.hyp2f1(0.5, dc, 1.5, -a * a / (2 * b))
    return first + mp.gamma(c + 1) / (2 * b ** (c + 1))


def w_form_cov(rho, omega):
    """The pair covariance in the paper's W-function form (reference for cov_pair)."""
    rho, omega = mp.mpf(rho), mp.mpf(omega)
    if abs(rho) == 1:
        # the form is singular at the endpoints; these are its limits
        return float(omega * (1 - 1 / mp.pi) / 4 if rho == 1 else -omega / (4 * mp.pi))
    base = omega / (4 * mp.pi)
    a = -mp.sqrt(2 / (1 - rho * rho)) * rho / mp.sqrt(omega)
    w = w_func(a, 1 / omega, 0.5)
    return float((1 - rho * rho) ** 1.5 * base - base + rho / (2 * mp.sqrt(mp.pi * omega)) * w)


class TestWFunc:
    def test_vanishing_first_term(self):
        want = math.gamma(1.5) / (2.0 * 2.0**1.5)
        assert float(w_func(0.0, 2.0, 0.5)) == pytest.approx(want, rel=1e-14)
        assert float(w_func(0.0, 2.0, 0.5)) == pytest.approx(0.15666427, abs=5e-8)

    def test_continuity_at_zero(self):
        assert float(w_func(1e-10, 1.3, 0.5)) == pytest.approx(float(w_func(0.0, 1.3, 0.5)), rel=1e-9)

    def test_truncated_moment_oracle(self):
        # w_func(-1.2, 1, 1/2) corresponds to the positive-part covariance
        # at the correlation solving 2 rho^2/(1-rho^2) = 1.44
        rho = math.sqrt(1.44 / 3.44)
        got = cov_pair(rho)
        assert got == pytest.approx(cov_oracle(rho, 1.0), abs=1e-12)
        assert w_form_cov(rho, 1.0) == pytest.approx(cov_oracle(rho, 1.0), abs=1e-12)
        a = -math.sqrt(2.0 / (1.0 - rho * rho)) * rho
        assert a == pytest.approx(-1.2, abs=1e-14)

    @pytest.mark.parametrize("rho", [-0.99999, -0.9, -0.3, 1e-9, 0.2, 0.7, 0.99, 0.9999, 0.99999])
    @pytest.mark.parametrize("omega", [1.0, 2.5])
    def test_matches_cov_pair(self, rho, omega):
        # the elementary form against the paper's, also next to rho = 1
        # where the 2F1 argument -rho^2/(1-rho^2) runs past -1e4; the
        # paper's form at channel power omega is omega times the unit kernel
        assert omega * cov_pair(rho) == pytest.approx(w_form_cov(rho, omega), rel=1e-13)

    def test_domain(self):
        # the kernel's argument is a correlation: inf and nan are refused
        with pytest.raises(DomainError):
            cov_pair(math.inf)
        with pytest.raises(DomainError):
            cov_pair(math.nan)


class TestCovPair:
    def test_zero_correlation_is_exactly_zero(self):
        assert cov_pair(0.0) == 0.0
        assert np.array_equal(cov_pair(np.zeros(3)), np.zeros(3))

    @pytest.mark.parametrize("rho", [0.5, -0.5, 0.3, 0.9, -0.9, 0.05])
    @pytest.mark.parametrize("omega", [1.0, 2.5])
    def test_bivariate_oracle(self, rho, omega):
        assert omega * cov_pair(rho) == pytest.approx(cov_oracle(rho, omega), abs=1e-11)

    def test_full_correlation_limit(self):
        # the endpoint value is the positive-part variance; the oracle just
        # inside the endpoint must approach it
        want = 1.0 * (0.25 - 1.0 / (4.0 * math.pi))
        assert cov_pair(1.0) == pytest.approx(want, rel=1e-14)
        assert cov_pair(1.0) == pytest.approx(cov_oracle(0.999, 1.0), abs=1e-3)

    def test_opposite_correlation_limit(self):
        assert cov_pair(-1.0) == pytest.approx(-1.0 / (4.0 * math.pi), rel=1e-14)
        assert cov_pair(-1.0) == pytest.approx(cov_oracle(-0.999, 1.0), abs=1e-3)

    def test_sign_tracks_correlation(self):
        for rho in np.linspace(-0.9, 0.9, 13):
            if rho == 0.0:
                continue
            got = cov_pair(float(rho))
            assert math.copysign(1.0, got) == math.copysign(1.0, rho)
            assert got == pytest.approx(cov_oracle(float(rho), 1.0), abs=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            cov_pair(1.5)
        with pytest.raises(DomainError):
            cov_pair(np.array([0.5, -1.0001]))


class TestSigmaSums:
    def test_full_grid_matches_direct_double_loop(self, case1_grid):
        s1, s2 = sigma_sums(case1_grid)
        ent = dense_correlation(case1_grid)
        n = case1_grid.total_ports
        iu = np.triu_indices(n, 1)
        sum_rho = float(ent[iu].sum())
        sum_cov = float(sum(cov_pair(float(r)) for r in ent[iu]))
        assert s2 == pytest.approx((n + sum_rho) / 4.0, rel=1e-12)
        assert s1 == pytest.approx(n / 4.0 * (1 - 1 / math.pi) + 2 * sum_cov, rel=1e-12)

    def test_full_grid_matches_high_precision_offset_sum(self):
        # the offset table with the sinc correlation and the W-form
        # covariance at 50 digits
        grid = preset_grid("6GHz-VC")
        s1, s2 = grid.spacings
        with mp.workdps(50):
            total = mp.mpf(0)
            for da in range(grid.n1):
                for db in range(grid.n2):
                    count = (grid.n1 - da) * (grid.n2 - db) * (2 if da and db else 1)
                    if da == db == 0:
                        continue
                    x = 2 * mp.pi * mp.sqrt((da * mp.mpf(s1)) ** 2 + (db * mp.mpf(s2)) ** 2)
                    total += count * mp.mpf(w_form_cov(mp.sin(x) / x, 1.0))
            want = float(grid.total_ports / mp.mpf(4) * (1 - 1 / mp.pi) + 2 * total)
        assert sigma_sums(grid)[0] == pytest.approx(want, rel=1e-14)

    def test_positively_correlated_pairs_grow_sigma2(self):
        # every pair of a 3 x 2 grid lies within half a wavelength at these
        # pitches, so every rho is positive: sigma2^2 sits above the
        # uncorrelated N/4 and grows as the pitch shrinks
        prev = 6 / 4.0
        for pitch in (0.2, 0.15, 0.1, 0.05):
            _, s2 = sigma_sums(PortGrid(3, 2, 2 * pitch, pitch))
            assert s2 > prev
            prev = s2


class TestChannelStats:
    def test_from_grid_consistency(self, case1_stats):
        st = case1_stats
        assert st.nbar == 28
        assert st.interferers == 19
        assert st.mu == pytest.approx(14.0 / math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize("spacing", [0.006, 0.005, 0.004])
    def test_dense_handset_grid(self, spacing):
        # 2004 to 3004 ports with neighbour correlations within 1e-4 of one
        grid = grid_from_aperture(*HANDSET_APERTURE_M, 6e9, spacing)
        st = ChannelStats.from_grid(grid, users=20)
        assert math.isfinite(st.sigma1_sq) and st.sigma1_sq > 0.0
        assert math.isfinite(st.sigma2_sq) and st.sigma2_sq > 0.0

    def test_mu_follows_nbar(self, case1_stats):
        import dataclasses

        # mu is derived, not stored: nbar E[max(0, X)] with X ~ N(0, 1/2)
        assert dataclasses.replace(case1_stats, nbar=56).mu == 2.0 * case1_stats.mu
        assert "mu" not in {f.name for f in dataclasses.fields(ChannelStats)}

    @pytest.mark.parametrize("field,value", [
        ("delta", 0.0),
        ("delta", 1.5),
        ("interferers", 0),
        ("sigma1_sq", -1.0),
        ("sigma1_sq", math.nan),
        ("sigma2_sq", math.nan),
    ])
    def test_invalid_fields(self, case1_stats, field, value):
        import dataclasses

        with pytest.raises(DomainError):
            dataclasses.replace(case1_stats, **{field: value})


def first_principles_pdf(z, mu, sigma1_sq, sigma2_sq, delta, i_cnt):
    """Density of the in-phase ratio Y^2 / (delta sigma2^2 Q) from its definition.

    Independent of the closed form: integrates the squared-Gaussian
    numerator density (Y ~ N(mu, sigma1^2)) against the chi-square
    interference power Q with i_cnt degrees of freedom, by quadrature.
    """
    s1 = mp.mpf(sigma1_sq)
    s2 = mp.mpf(sigma2_sq)
    m = mp.mpf(mu)
    d = mp.mpf(delta)
    z = mp.mpf(z)

    def integrand(q):
        v = d * s2 * q * z
        f_v = mp.e ** (-(v + m * m) / (2 * s1)) * mp.cosh(m * mp.sqrt(v) / s1) / mp.sqrt(2 * mp.pi * v * s1)
        f_q = q ** (i_cnt / mp.mpf(2) - 1) * mp.e ** (-q / 2) / (2 ** (i_cnt / mp.mpf(2)) * mp.gamma(i_cnt / mp.mpf(2)))
        return d * s2 * q * f_v * f_q

    return float(mp.quad(integrand, [0, i_cnt, 5 * i_cnt, mp.inf]))


def whittaker_form_pdf(z, stats):
    """The in-phase density in the paper's Whittaker-M form, term by term (reference for exact_pdf_zI).

    The Whittaker factor M_{-(2I+1)/4, -1/4}(t) = t^(1/4) e^(-t/2) 1F1((I+1)/2; 1/2; t)
    enters through Kummer's transformation, log 1F1 = t + log 1F1(-I/2; 1/2; -t),
    with scipy's gammaln for the gamma ratio.
    """
    z = np.asarray(z, dtype=float)
    i_cnt = stats.interferers
    s1 = stats.sigma1_sq
    d_s2 = stats.delta * stats.sigma2_sq
    q = d_s2 * z
    t = stats.mu**2 * q / (2.0 * s1 * (s1 + q))
    log_pdf = (
        0.25 * np.log(d_s2)
        + gammaln(0.5 * (i_cnt + 1))
        - gammaln(0.5 * i_cnt)
        - 0.5 * np.log(np.pi)
        - 0.5 * i_cnt * np.log(2.0)
        - 0.5 * np.log(stats.mu)
        - 0.75 * np.log(z)
        - stats.mu**2 / (4.0 * s1) * (2.0 * s1 + q) / (s1 + q)
        + 0.25 * (2 * i_cnt + 1) * (np.log(2.0) - np.log1p(q / s1))
        + 0.25 * np.log(t)
        + 0.5 * t
        + np.log(hyp1f1(-0.5 * i_cnt, 0.5, -t))
    )
    return np.exp(log_pdf)


def channel_moments(stats, omega=1.0):
    """(mu, sigma1^2, sigma2^2, delta, interferers) of ``stats`` at channel power omega."""
    mu, s1, s2 = math.sqrt(omega) * stats.mu, omega * stats.sigma1_sq, omega * stats.sigma2_sq
    return mu, s1, s2, stats.delta, stats.interferers


class TestExactPdfZI:
    def test_normalizes(self, case1_stats):
        total = integrate.quad(
            lambda u: 2.0 * u * exact_pdf_zI(u * u, case1_stats), 0.0, 40.0, limit=400
        )[0]
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_matches_first_principles_oracle(self, case1_stats):
        z = case1_stats.sigma2_sq
        want = first_principles_pdf(z, *channel_moments(case1_stats))
        assert exact_pdf_zI(z, case1_stats) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("z", [0.01, 0.3, 2.0])
    def test_pointwise_oracle(self, case1_stats, z):
        want = first_principles_pdf(z, *channel_moments(case1_stats))
        assert exact_pdf_zI(z, case1_stats) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("z", [0.01, 2.0])
    @pytest.mark.parametrize("omega", [1e-3, 2.5])
    def test_channel_power_cancels(self, case1_stats, omega, z):
        # mu scales with sqrt(omega), both variances with omega: the ratio's
        # density at any channel power is the unit-power density
        want = first_principles_pdf(z, *channel_moments(case1_stats, omega))
        assert exact_pdf_zI(z, case1_stats) == pytest.approx(want, rel=1e-9)

    def test_small_z_slope_reaches_asymptote(self, case1_stats):
        # far enough into the tail that the confluent correction (of order
        # interferers * whittaker argument) is negligible
        a0 = asymptote_a0(case1_stats)
        z = 1e-9
        ratio = exact_pdf_zI(z, case1_stats) * math.sqrt(z) / a0
        assert ratio == pytest.approx(1.0, abs=1e-2)
        z = 1e-12
        ratio = exact_pdf_zI(z, case1_stats) * math.sqrt(z) / a0
        assert ratio == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("preset,users,delta", [
        ("6GHz-NC", 20, 1.0), ("6GHz-VC", 60, 1.0), ("26GHz-C", 10, 1.0),
        ("26GHz-VC", 20, 0.5), ("40GHz-NC", 200, 1.0), ("6GHz-NC", 3, 1e-3),
    ])
    def test_matches_the_whittaker_form(self, preset, users, delta):
        # the reduced form a0 z^(-1/2) (1 + q/sigma1^2)^(-(I+1)/2) 1F1 against
        # the paper's form, across the range the law tabulates
        stats = ChannelStats.from_grid(preset_grid(preset), users, delta)
        z = np.geomspace(stats.law._z.min(), stats.law._z.max(), 2001)
        np.testing.assert_allclose(exact_pdf_zI(z, stats), whittaker_form_pdf(z, stats), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("preset,users,delta", [
        ("6GHz-NC", 20, 1.0), ("6GHz-VC", 60, 1.0), ("26GHz-C", 10, 1.0), ("6GHz-NC", 3, 1e-3),
    ])
    def test_noncentral_f_cdf(self, preset, users, delta):
        # Z_I = sigma1^2 / (delta sigma2^2 I) F', F' ~ noncentral F(1, I) with
        # noncentrality mu^2 / sigma1^2; the CDF integrates z f_I(z) in ln z
        stats = ChannelStats.from_grid(preset_grid(preset), users, delta)
        i_cnt, s1, d_s2 = stats.interferers, stats.sigma1_sq, stats.delta * stats.sigma2_sq
        g = lambda s: math.exp(s) * exact_pdf_zI(math.exp(s), stats)
        for k in (1e-4, 1e-2, 0.3, 1.0, 3.0, 30.0):
            z = k * (stats.mu**2 + s1) / (d_s2 * i_cnt)
            got = integrate.quad(g, math.log(z) - 100.0, math.log(z), epsabs=0.0, epsrel=1e-13, limit=200)[0]
            want = ncfdtr(1, i_cnt, stats.mu**2 / s1, z * d_s2 * i_cnt / s1)
            assert got == pytest.approx(want, rel=1e-10)

    def test_nonnegative(self, case1_stats):
        for z in np.geomspace(1e-6, 50, 40):
            assert exact_pdf_zI(float(z), case1_stats) >= 0.0

    def test_domain(self, case1_stats):
        with pytest.raises(DomainError):
            exact_pdf_zI(0.0, case1_stats)
        with pytest.raises(DomainError):
            exact_pdf_zI(-1.0, case1_stats)

    def test_array_matches_scalar_calls(self, case1_stats):
        z = np.geomspace(1e-6, 50.0, 24).reshape(4, 6)
        got = exact_pdf_zI(z, case1_stats)
        assert got.shape == z.shape
        want = [[exact_pdf_zI(float(v), case1_stats) for v in row] for row in z]
        assert np.array_equal(got, want)
        with pytest.raises(DomainError):
            exact_pdf_zI(np.array([1.0, 0.0]), case1_stats)


class TestExactPdfZ:
    def test_normalizes(self, case1_stats):
        total = integrate.quad(
            lambda u: 2.0 * u * exact_pdf_z(u * u, case1_stats),
            0.0,
            7.0,
            limit=100,
        )[0]
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_halves_agree(self, case1_stats):
        # the convolution integrand is symmetric about z/2
        z = 2.5
        f = lambda x: exact_pdf_zI(x, case1_stats) * exact_pdf_zI(z - x, case1_stats)
        lo = integrate.quad(lambda u: 2 * u * f(u * u), 0, math.sqrt(z / 2), limit=100)[0]
        hi = integrate.quad(lambda u: 2 * u * f(z - u * u), 0, math.sqrt(z / 2), limit=100)[0]
        assert lo == pytest.approx(hi, rel=1e-6)

    def test_brute_force_convolution(self, case1_stats):
        # trapezoid in sqrt coordinates with a million nodes
        z = 1.8
        u = np.linspace(1e-9, math.sqrt(z / 2.0), 1_000_000)
        uu = u * u
        fa = whittaker_form_pdf(uu, case1_stats)
        fb = whittaker_form_pdf(z - uu, case1_stats)
        want = 2.0 * np.trapezoid(2.0 * u * fa * fb, u)
        assert exact_pdf_z(z, case1_stats) == pytest.approx(float(want), rel=1e-5)

    @pytest.mark.parametrize("preset,users", [("6GHz-NC", 20), ("26GHz-C", 10)])
    def test_tiny_z_reaches_the_two_branch_limit(self, preset, users, monkeypatch):
        # f_Z(0+) = pi a0^2 = 1 / beta_I, also where (z/2) e^-w leaves the float range
        stats = ChannelStats.from_grid(preset_grid(preset), users)
        for z in (1e-300, 1e-310):
            assert exact_pdf_z(z, stats) * beta_I(stats) == pytest.approx(1.0, abs=1e-9)
        # the floor on z lies below every law node
        want = stats.law._g
        monkeypatch.setattr(analytic, "_CONV_Z_MIN", 0.0)
        assert np.array_equal(ChannelStats.from_grid(preset_grid(preset), users).law._g, want)

    def test_array_matches_scalar_calls(self, case1_stats):
        # more points than one convolution block holds
        z = np.geomspace(1e-4, 100.0, 250)
        got = exact_pdf_z(z, case1_stats)
        want = [exact_pdf_z(float(v), case1_stats) for v in z]
        assert np.array_equal(got, want)
        with pytest.raises(DomainError):
            exact_pdf_z(np.array([1.0, math.inf]), case1_stats)


class TestGaussLegendreRules:
    """The fixed rules are leggauss's, to within what another LAPACK build moves them."""

    @pytest.mark.parametrize("x,w", [
        (analytic._CONV_X, analytic._CONV_WX), (analytic._GL_X, analytic._GL_W),
    ], ids=["convolution", "panel"])
    def test_match_leggauss(self, x, w):
        want_x, want_w = leggauss(len(x))
        assert np.all(np.abs(x - want_x) <= 4 * np.spacing(np.abs(want_x)))
        assert np.all(np.diff(x) > 0.0) and np.array_equal(x, -x[::-1])
        assert np.all(np.abs(w - want_w) <= 1e-11 * want_w)
        assert np.array_equal(w, w[::-1])
        assert abs(np.sum(w) - 2.0) <= 2 * np.spacing(2.0)


def all_node_pdf_z(z, stats):
    """The convolution with f_I(z - x) at every node, in blocks of 16384 (z, w) pairs: exact_pdf_z's reference.

    Each z's weighted sum is the same fixed-order numpy row sum as exact_pdf_z's.
    """
    z = np.asarray(z, dtype=float)
    flat = z.reshape(-1)
    out = np.empty_like(flat)
    step = 16384 // len(analytic._CONV_SHRINK)
    for lo in range(0, len(flat), step):
        zz = flat[lo : lo + step, None]
        x = 0.5 * zz * analytic._CONV_SHRINK
        vals = x * exact_pdf_zI(x, stats) * exact_pdf_zI(zz - x, stats)
        vals *= analytic._CONV_WEIGHTS
        out[lo : lo + step] = 2.0 * vals.sum(axis=1)
    return out.reshape(z.shape)[()]


def fresh_stats(preset, users, delta=1.0):
    """A bundle whose law is not tabulated yet."""
    return ChannelStats.from_grid(preset_grid(preset), users, delta)


class TestDistinctArguments:
    """exact_pdf_z evaluates f_I once per distinct argument, in bounded blocks, with the all-node rule's bits."""

    @pytest.mark.parametrize("preset,users,delta", [
        ("6GHz-NC", 20, 1.0), ("6GHz-VC", 20, 1.0), ("26GHz-C", 20, 1.0), ("6GHz-VC", 201, 1.0), ("6GHz-VC", 20, 1e-3),
    ])
    def test_matches_all_node_rule_bit_for_bit(self, preset, users, delta):
        stats = fresh_stats(preset, users, delta)
        scale = stats.mean_sir()
        # a scalar, a 1-D array over many blocks and groups, and a 2-D array
        spread = np.geomspace(1e-6, 1e3, 60).reshape(5, 12) * scale
        for z in (scale, np.geomspace(1e-13, 1e5, 924) * scale, spread):
            got = exact_pdf_z(z, stats)
            assert np.shape(got) == np.shape(z)
            assert np.array_equal(got, all_node_pdf_z(z, stats))
        assert np.array_equal(stats.law._g, stats.law._z * all_node_pdf_z(stats.law._z, stats))

    def test_law_bits_ignore_block_size(self, monkeypatch):
        stats = fresh_stats("6GHz-VC", 20)
        want = stats.law._g
        assert np.array_equal(want.ravel(), [z * exact_pdf_z(z, stats) for z in stats.law._z.flat])
        # one, five and 259 z values per block against the default 16
        for conv_args in (253, 1266, 65536):
            monkeypatch.setattr(analytic, "_CONV_ARGS", conv_args)
            assert np.array_equal(fresh_stats("6GHz-VC", 20).law._g, want)

    @pytest.mark.parametrize("preset,users", [("6GHz-VC", 20), ("26GHz-C", 10)])
    def test_scalar_outage_reads_the_array_cdf(self, preset, users):
        law = fresh_stats(preset, users).law
        gamma = np.linspace(0.01, 4.0, 41)
        cdf = law.cdf(np.array([exp2(g) - 1.0 for g in gamma]))
        assert np.array_equal([exact_op(g, law) for g in gamma], cdf)

    def test_tail_nodes_leave_z_unchanged(self):
        tail = analytic._CONV_SHRINK[analytic._CONV_HEAD :]
        assert tail.size == 68
        z = np.geomspace(5e-324, 1e300, 20001)[:, None]
        assert np.all(z - 0.5 * z * tail == z)

    def test_one_1f1_evaluation_per_distinct_argument(self, monkeypatch):
        stats = fresh_stats("6GHz-VC", 20)
        seen = []
        hyp1f1 = analytic.hyp1f1

        def counting_hyp1f1(a, b, t):
            seen.append(np.size(t))
            return hyp1f1(a, b, t)

        monkeypatch.setattr(analytic, "hyp1f1", counting_hyp1f1)
        law = stats.law
        # 160 first-factor arguments, 92 head second-factor ones and z itself
        assert sum(seen) == law._z.size * 253
        assert max(seen) <= analytic._CONV_ARGS

    def test_law_working_set(self):
        stats = fresh_stats("6GHz-VC", 20)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stats.law
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # about 1.48 MB with 16384-pair blocks and f_I at every node
        assert peak < 0.5e6


@pytest.fixture(scope="module")
def case1_law(case1_stats):
    return case1_stats.law


class TestExactLaw:
    def test_cdf_shapes_and_limits(self, case1_law):
        assert isinstance(case1_law.cdf(1.0), float)
        assert case1_law.cdf(0.0) == 0.0 and case1_law.cdf(-3.0) == 0.0
        assert case1_law.cdf(math.inf) == 1.0
        assert math.isnan(case1_law.cdf(math.nan))
        mixed = case1_law.cdf(np.array([0.1, math.nan, -1.0, 10.0]))
        assert np.isnan(mixed[1])
        assert np.array_equal(mixed[[0, 2, 3]], [case1_law.cdf(0.1), 0.0, case1_law.cdf(10.0)])
        z = np.array([[0.1, 1.0], [10.0, 100.0]])
        got = case1_law.cdf(z)
        assert got.shape == z.shape
        want = [[case1_law.cdf(float(v)) for v in row] for row in z]
        assert np.array_equal(got, want)

    def test_cdf_integrates_the_density(self, case1_stats, case1_law):
        for z in (0.05, 0.7, 3.0):
            f = lambda u: 2.0 * u * exact_pdf_z(u * u, case1_stats)
            want = integrate.quad(f, 0.0, math.sqrt(z), epsrel=1e-10)[0]
            assert case1_law.cdf(z) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("pdf", [lambda z: 2.0 * np.exp(-z), lambda z: np.where(z > 1.0, np.nan, np.exp(-z))])
    def test_failure_check(self, pdf):
        with pytest.raises(QuadratureError):
            ExactLaw(pdf, 1.0, -40.0, 40.0)

    @pytest.mark.filterwarnings("error")
    def test_range_past_the_float_range_is_refused(self, case1_grid):
        # delta = 1e-300 puts the law's scale near 2e301; with 2 interferers
        # the table's upper end, 35 past ln(scale), passes e^709.78, and the
        # law is refused before e^s overflows. At 19 interferers the table
        # ends 8.2 past ln(scale), inside the float range.
        with pytest.raises(QuadratureError, match="past the float range"):
            ChannelStats.from_grid(case1_grid, 3, delta=1e-300).law
        law = ChannelStats.from_grid(case1_grid, 20, delta=1e-300).law
        assert exact_er(20, law) == pytest.approx(19937.32, abs=0.01)

    def test_cdf_keeps_the_tabulated_panel_width(self, case1_law, monkeypatch):
        z = np.geomspace(1e-6, 1e3, 301) * case1_law.expect(lambda z: z)
        want = case1_law.cdf(z)
        monkeypatch.setattr(analytic, "_PANEL", 0.25)
        assert np.array_equal(case1_law.cdf(z), want)

    @pytest.mark.parametrize("users", [10, 200])
    def test_mean_matches_closed_form(self, case1_grid, users):
        # E[Z] = 2 E[Y^2] / (delta sigma2^2 (I - 2)); the table's upper end
        # follows the z^(-I/2) tail at few and at many interferers
        stats = ChannelStats.from_grid(case1_grid, users)
        assert stats.law.expect(lambda z: z) == pytest.approx(stats.mean_sir(), rel=1e-10)


class TestExactMetrics:
    def test_er_point_mass_limit(self, case1_stats):
        # Z ~ Exp(eps) read as the rate variable Z / sigma2^2
        eps = 1e-12
        beta = eps / case1_stats.sigma2_sq
        val = exact_er(20, ExactLaw(lambda z: np.exp(-z / beta) / beta, beta, -40.0, 40.0))
        assert val < 1e-6

    def test_er_linear_in_users(self, case1_law):
        c10 = exact_er(10, case1_law)
        c20 = exact_er(20, case1_law)
        assert c20 == pytest.approx(2.0 * c10, rel=1e-12)

    def test_er_inverse_cdf_oracle(self, case1_stats, case1_law):
        # draw from the exact distribution through its inverse CDF and
        # average the rate; the branches are i.i.d. so draw each branch
        st = case1_stats
        u = np.linspace(1e-6, 6.5, 4001)
        pdf_u = np.array([2.0 * x * exact_pdf_zI(x * x, st) for x in u])
        cdf = integrate.cumulative_trapezoid(pdf_u, u, initial=0.0)
        cdf /= cdf[-1]
        rng = np.random.default_rng(7)
        draws_i = np.interp(rng.random(1_000_000), cdf, u) ** 2
        draws_q = np.interp(rng.random(1_000_000), cdf, u) ** 2
        rates = np.log2(1.0 + draws_i + draws_q)
        want = 20 * rates.mean()
        se = 20 * rates.std() / math.sqrt(len(rates))
        got = exact_er(20, case1_law)
        assert abs(got - want) < 5 * se + 1e-3

    def test_op_threshold_identity(self, case1_law):
        assert exact_op(1.0, case1_law) == case1_law.cdf(1.0)

    def test_op_zero_threshold(self, case1_law):
        # 2^0 - 1 = 0 and the SIR is positive: no outage, as in approx_op
        # and the simulator
        assert exact_op(0.0, case1_law) == 0.0

    @pytest.mark.parametrize("gamma_th", [-0.5, math.nan, math.inf])
    def test_op_domain(self, case1_law, gamma_th):
        with pytest.raises(DomainError, match="gamma_th must be nonnegative and finite"):
            exact_op(gamma_th, case1_law)

    def test_op_limits(self, case1_law):
        assert exact_op(1e-9, case1_law) < 1e-6
        assert exact_op(30.0, case1_law) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("gamma_th", [1024.0, 1e308])
    def test_op_overflowing_threshold(self, case1_law, gamma_th):
        # the threshold 2^gamma_th - 1 is inf: the CDF there is the law's
        # whole mass, one within the tabulation's mass tolerance
        assert exact_op(gamma_th, case1_law) == pytest.approx(1.0, abs=1e-8)

    def test_op_monotone_in_threshold(self, case1_law):
        vals = [exact_op(g, case1_law) for g in (0.25, 0.5, 1.0, 1.5, 2.2)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_op_against_mc_ground_truth(self, case1_law):
        # the Gaussian-surrogate model tracks link-level simulation to a
        # few percent at this configuration
        assert exact_op(1.0, case1_law) == pytest.approx(0.378, abs=0.08)

    def test_golden_secrecy_preset_pair(self):
        # values of the nested adaptive quadrature at tolerance 1e-6
        bob = ChannelStats.from_grid(preset_grid("6GHz-VC"), users=20).law
        eve = ChannelStats.from_grid(preset_grid("6GHz-NC"), users=20).law
        assert exact_er(20, bob) == pytest.approx(36.27374512077206, rel=1e-7)
        assert exact_op(1.0, bob) == pytest.approx(0.028866236558766377, rel=1e-7)
        assert exact_sop(bob, eve, 1.0) == pytest.approx(0.7468193366319631, rel=1e-7)

    def test_golden_heavy_tail(self, case1_grid):
        # one interferer: the survival function decays only like z^(-1/2)
        law = ChannelStats.from_grid(case1_grid, users=2).law
        assert exact_er(2, law) == pytest.approx(14.490997484553361, rel=1e-7)
        assert exact_op(1.0, law) == pytest.approx(1.614967397478048e-05, rel=1e-7)


@pytest.fixture(scope="module")
def eve_stats():
    return ChannelStats.from_grid(preset_grid("6GHz-NC"), users=20)


@pytest.fixture(scope="module")
def bob_stats():
    return ChannelStats.from_grid(preset_grid("6GHz-NC"), users=20, delta=0.02)


@pytest.fixture(scope="module")
def eve_law(eve_stats):
    return eve_stats.law


@pytest.fixture(scope="module")
def bob_law(bob_stats):
    return bob_stats.law


class TestSecrecyMetrics:
    def test_sop_small_when_bob_dominates(self, bob_law, eve_law):
        assert exact_sop(bob_law, eve_law, 1e-9) <= 0.05

    def test_sop_goes_to_one(self, bob_law, eve_law):
        assert exact_sop(bob_law, eve_law, 40.0) == pytest.approx(1.0, abs=1e-3)

    def test_sop_monotone_in_rate(self, bob_law, eve_law):
        vals = [exact_sop(bob_law, eve_law, rs) for rs in (0.5, 2.0, 5.0)]
        assert vals[0] <= vals[1] <= vals[2]

    @pytest.mark.parametrize("rs", [1024.0, 1e308])
    def test_overflowing_rate_is_certain_outage(self, bob_law, eve_law, rs):
        assert exact_sop(bob_law, eve_law, rs) == pytest.approx(1.0, abs=2e-8)
        assert sop_lower_numeric(bob_law, eve_law, rs) == pytest.approx(1.0, abs=2e-8)

    def test_lower_bound_symmetric_case(self, eve_law):
        assert sop_lower_numeric(eve_law, eve_law, 0.0) == pytest.approx(0.5, abs=1e-4)

    def test_lower_bound_large_rate(self, eve_law):
        assert sop_lower_numeric(eve_law, eve_law, 40.0) == pytest.approx(1.0, abs=1e-4)

    def test_lower_bound_monotone_in_rate(self, eve_law, bob_law):
        vals = [sop_lower_numeric(bob_law, eve_law, rs) for rs in (0.0, 1.0, 3.0)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_bound_below_sop(self, bob_law, eve_law):
        for rs, (lb, le) in [
            (0.5, (bob_law, eve_law)),
            (1.0, (bob_law, eve_law)),
            (0.0, (eve_law, eve_law)),
            (1.0, (eve_law, eve_law)),
            (2.0, (bob_law, eve_law)),
        ]:
            sop = exact_sop(lb, le, rs)
            bound = sop_lower_numeric(lb, le, rs)
            assert bound <= sop + 5e-3


class TestSubstitutedDensities:
    def test_lower_bound_matches_closed_form_with_exponentials(self):
        from cumasim.approx import sop_lower_closed

        beta_b, beta_e, rs = 2.4, 0.9, 1.3
        got = sop_lower_numeric(
            ExactLaw(lambda z: np.exp(-z / beta_b) / beta_b, beta_b, -40.0, 40.0),
            ExactLaw(lambda z: np.exp(-z / beta_e) / beta_e, beta_e, -40.0, 40.0),
            rs,
        )
        assert got == pytest.approx(sop_lower_closed(beta_b, beta_e, rs), abs=1e-6)

    def test_lower_bound_gamma_half_pair_has_arctan_form(self):
        # ratio of two half-shape gammas is a folded Cauchy
        beta_b, beta_e, rs = 1.7, 0.6, 0.8
        tau = 2.0**rs

        def gamma_half(beta):
            return ExactLaw(lambda z: np.exp(-z / beta) / np.sqrt(np.pi * beta * z), beta, -40.0, 40.0)

        got = sop_lower_numeric(gamma_half(beta_b), gamma_half(beta_e), rs)
        want = 2.0 / math.pi * math.atan(math.sqrt(tau * beta_e / beta_b))
        assert got == pytest.approx(want, abs=1e-6)
