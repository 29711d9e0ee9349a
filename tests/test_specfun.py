"""Accuracy of the special functions behind the channel statistics.

The package takes its special functions from ``math`` and its own numpy
kernels: ``math.lgamma`` at the half-integers of the density and the
asymptote coefficient (and, as Gamma, on a generic band),
``analytic._log_kummer`` (a positive-term series with its own bands) for
log 1F1 in the density's Whittaker factor, ``approx._exp_e1`` (its own
power series and continued fraction) for e^x E1(x) in the closed-form
rate, the elementary arc-cosine form in place of the W-function's 2F1,
and ``specfun.exp2``. Each class checks one of them against an
arbitrary-precision oracle, on the arguments the package evaluates,
together with the failures that the callers turn into named errors.
``scipy.special`` serves only as an oracle here: ``hyp1f1`` on its
Kummer-transformed route for the log 1F1 kernel, and ``exp1`` for e^x
E1(x).
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exp1, hyp1f1

from cumasim.analytic import ChannelStats, QuadratureError, _log_kummer, cov_pair, exact_pdf_zI
from cumasim.approx import _exp_e1, approx_er
from cumasim.specfun import DomainError, exp2
from test_analytic import w_form_cov


def rel_err(got, want):
    return abs(got - want) / abs(want)


def many_interferers():
    # 99 interferers; the Whittaker argument nears mu^2 / (2 sigma1^2) = 796
    # as z grows
    return ChannelStats(nbar=200, sigma1_sq=2.0, sigma2_sq=1.0, interferers=99)


def gamma_fn(x):
    # Gamma through the log-gamma the package evaluates
    return math.exp(math.lgamma(x))


class TestGamma:
    @pytest.mark.parametrize("x", np.geomspace(1e-3, 50, 60).tolist())
    def test_accuracy_band(self, x):
        assert rel_err(gamma_fn(x), float(mp.gamma(x))) < 1e-12

    @pytest.mark.parametrize("x", [1e-3, 0.5, 3.0, 19.5, 120.0, 900.0])
    def test_log_gamma(self, x):
        assert rel_err(math.lgamma(x), float(mp.loggamma(x))) < 1e-12

    def test_density_half_integers(self):
        # the density and the asymptote coefficient take lgamma(I/2) and
        # lgamma((I+1)/2); an absolute error in the log is a relative
        # error of the density
        for k in range(1, 201):
            want = mp.loggamma(mp.mpf(k) / 2)
            assert abs(math.lgamma(0.5 * k) - float(want)) < 1e-15 * max(1.0, abs(float(want)))


def exp_e1(x):
    # e^x E1(x) as the closed-form rate evaluates it: U * e^x E1(x) / ln 2
    return approx_er(2, 1.0 / x) * math.log(2.0) / 2.0


class TestUpperIncompleteGamma:
    @pytest.mark.parametrize("x", [0.2, 2.0, 50.0, 800.0])
    def test_e1_scaled(self, x):
        want = float(mp.exp(x) * mp.e1(x))
        assert rel_err(exp_e1(x), want) < 1e-10

    def test_scaled_e1_full_range(self):
        # the rate must stay at double precision from underflow to overflow,
        # on both sides of the switch from series to continued fraction at
        # x = 1 and at a subnormal x, which only _exp_e1 itself can take
        for x in [*np.geomspace(1e-300, 1e300, 241), 1.0, math.nextafter(1.0, 2.0), 700.0]:
            want = mp.exp(mp.mpf(x)) * mp.e1(mp.mpf(x))
            assert rel_err(exp_e1(float(x)), float(want)) < 5e-15
        want = mp.exp(mp.mpf(1e-310)) * mp.e1(mp.mpf(1e-310))
        assert rel_err(_exp_e1(1e-310), float(want)) < 5e-15

    def test_series_is_scipy_exp1_to_the_bit(self):
        # every preset's 1/beta lies in [1e-300, 0.1], where the closed-form
        # rate's e^x E1(x) is the exp(x) * exp1(x) its goldens were pinned with
        for x in np.geomspace(1e-300, 0.1, 20001).tolist():
            assert _exp_e1(x) == math.exp(x) * exp1(x), x

    def test_domain(self):
        # x = 1 / beta must stay inside (0, inf)
        with pytest.raises(DomainError):
            approx_er(10, -1.0)
        with pytest.raises(DomainError):
            approx_er(10, math.inf)
        with pytest.raises(DomainError):
            approx_er(10, 5e-324)


class TestKummer:
    def test_density_family(self):
        # every log 1F1((I+1)/2, 1/2; t) the density can request, as
        # _log_kummer gives it, including the arguments where 1F1 itself
        # exceeds the double range and those the kernel sums in scaled bands;
        # the error is absolute for |log| <= 1 and relative above
        ts = np.geomspace(1e-10, 5000.0, 20)
        for i_cnt in range(1, 200):
            got = _log_kummer(i_cnt, 5000.0, np.log(ts / 5000.0))
            for t, g in zip(ts, got):
                want = float(mp.log(mp.hyp1f1(mp.mpf(i_cnt + 1) / 2, 0.5, t)))
                assert abs(g - want) < 2e-15 * max(1.0, abs(want)), (i_cnt, t)

    @given(
        i_cnt=st.integers(1, 3000),
        log_t_max=st.floats(math.log(1e-12), math.log(5000.0)),
        share=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy_where_finite(self, i_cnt, log_t_max, share):
        # t in [1e-12, t_max]: scipy's Kummer-transformed route where it is
        # finite, and a finite value wherever mpmath's is
        t_max = math.exp(log_t_max)
        log_u = share * (math.log(1e-12) - log_t_max)
        got = float(_log_kummer(i_cnt, t_max, log_u))
        t = t_max * math.exp(log_u)
        if math.isfinite(float(mp.log(mp.hyp1f1(mp.mpf(i_cnt + 1) / 2, 0.5, t)))):
            assert math.isfinite(got)
        with np.errstate(over="ignore", invalid="ignore"):
            want = t + math.log(hyp1f1(-0.5 * i_cnt, 0.5, -t))
        if math.isfinite(want):
            assert abs(got - want) < 2e-15 * max(1.0, abs(want)), (i_cnt, t_max, t)

    def test_closed_forms(self):
        # 1F1(1/2; 1/2; t) = e^t (I = 0) and 1F1(1; 1/2; t) = 1 + sqrt(pi t) e^t erf(sqrt t) (I = 1)
        log_u = np.log(np.geomspace(1e-12, 700.0, 41) / 700.0)
        forms = {
            0: lambda t: t,
            1: lambda t: mp.log(1 + mp.sqrt(mp.pi * t) * mp.exp(t) * mp.erf(mp.sqrt(t))),
        }
        for i_cnt, form in forms.items():
            for v, g in zip(log_u, _log_kummer(i_cnt, 700.0, log_u)):
                want = float(form(700.0 * mp.exp(v)))
                assert abs(g - want) < 2e-15 * max(1.0, abs(want)), (i_cnt, v)

    def test_sum_is_its_first_term_at_tiny_t(self):
        assert _log_kummer(1499, 238.9, -800.0) == 0.0

    @pytest.mark.parametrize("i_cnt,t_max", [(19, 7.8), (1499, 238.9), (2999, 104.4), (150, 5000.0)])
    def test_value_ignores_the_other_arguments(self, i_cnt, t_max):
        # the bands and their coefficients depend on (I, t_max) alone, so an
        # argument has the same bits alone, in any array and in any order
        log_u = np.linspace(-60.0, 0.0, 600)
        got = _log_kummer(i_cnt, t_max, log_u)
        assert np.all(np.isfinite(got)) and np.all(np.diff(got) >= 0.0)
        assert np.array_equal(got[::-1], _log_kummer(i_cnt, t_max, log_u[::-1]))
        assert np.array_equal(got, [_log_kummer(i_cnt, t_max, v) for v in log_u])
        assert np.array_equal(got.reshape(3, -1)[:, 7], _log_kummer(i_cnt, t_max, log_u.reshape(3, -1)[:, 7]))
        assert np.array_equal(got.reshape(3, -1), _log_kummer(i_cnt, t_max, log_u.reshape(3, -1)))

    @pytest.mark.parametrize("t_max", [1e300, math.inf, math.nan])
    @pytest.mark.filterwarnings("error")
    def test_series_past_its_budget_is_refused(self, t_max):
        with pytest.raises(QuadratureError, match="needs over 65536 terms"):
            _log_kummer(19, t_max, -1.0)

    @pytest.mark.parametrize("x", [10.0, 14.0, 20.0, 30.0])
    def test_direct_and_transformed_routes_agree(self, x):
        # Kummer's transformation 1F1(a, b; x) = e^x 1F1(b - a, b; -x) at a
        # density index; b - a a negative integer makes the right side a
        # same-sign polynomial
        a, b = 3.5, 0.5
        assert rel_err(hyp1f1(a, b, x), math.exp(x) * hyp1f1(b - a, b, -x)) < 1e-12

    def test_nonconvergence_names_arguments(self):
        # at t = 596.8, 1F1(50, 1/2; t) exceeds the double range, but the
        # density is finite; the value is the log-domain formula evaluated
        # in 50-digit mpmath
        assert exact_pdf_zI(6.0, many_interferers()) == pytest.approx(1.1522812440640575e-40, rel=1e-12)


def rho_at(x):
    # correlation whose W-function 2F1(1/2, 2; 3/2; x) argument is x, at
    # Omega = 1: x = -rho^2 / (1 - rho^2)
    return math.sqrt(-x / (1.0 - x))


class TestGauss2F1:
    # cov_pair replaces the W-function's 2F1(1/2, 2; 3/2; x) by its
    # elementary form; these check it against the W-form with mpmath's 2F1

    def test_at_zero(self):
        assert cov_pair(rho_at(0.0)) == w_form_cov(0.0, 1.0) == 0.0

    @pytest.mark.parametrize("x", [-0.05, -0.49, -0.6, -0.999, -1.0, -3.0, -40.0, -200.0])
    def test_accuracy_band(self, x):
        rho = rho_at(x)
        want = w_form_cov(rho, 1.0)
        assert rel_err(cov_pair(rho), want) < 1e-13
        assert rel_err(cov_pair(-rho), w_form_cov(-rho, 1.0)) < 1e-13

    def test_positive_argument_rejected(self):
        # a positive 2F1 argument is a correlation beyond one
        with pytest.raises(DomainError):
            cov_pair(1.0 + 1e-12)
        with pytest.raises(DomainError):
            cov_pair(np.array([0.5, -1.5]))


class TestWhittakerM:
    def test_domain(self):
        # Whittaker arguments beyond t = 600 (t = 794.2 here) still give the
        # finite density, against 50-digit mpmath
        assert exact_pdf_zI(1000.0, many_interferers()) == pytest.approx(3.3756230038542757e-55, rel=1e-12)


class TestExp2:
    def test_matches_power_below_overflow(self):
        for x in (-1074.0, -3.5, 0.0, 1.0, 52.25, 1023.0, 1023.999):
            assert exp2(x) == 2.0**x

    @pytest.mark.parametrize("x", [1024.0, 1100.0, 1e308, math.inf])
    def test_overflow_is_inf(self, x):
        assert exp2(x) == math.inf

    def test_nan_propagates(self):
        assert math.isnan(exp2(math.nan))
