"""Accuracy of the special functions behind the channel statistics.

The package takes its special functions from ``math`` and
``scipy.special``: ``math.lgamma`` in the density and the asymptote
coefficient, ``scipy.special.hyp1f1`` in the density's Whittaker factor,
``exp1``/``hyperu`` for e^x E1(x) in the closed-form rate, and the
elementary arc-cosine form in place of the W-function's 2F1. Each class
checks one of them against an arbitrary-precision oracle, on the
arguments the package evaluates, together with the failures that the
callers turn into named errors.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import hyp1f1, hyperu

from cumasim.analytic import ChannelStats, cov_pair, exact_pdf_zI
from cumasim.approx import approx_er
from cumasim.specfun import DomainError
from test_analytic import w_form_cov

mp.mp.dps = 50


def rel_err(got, want):
    return abs(got - want) / abs(want)


def many_interferers():
    # 99 interferers; the Whittaker argument nears mu^2 / (2 sigma1^2) = 796
    # as z grows
    return ChannelStats(
        omega=1.0,
        nbar=200,
        mu=100.0 / math.sqrt(math.pi),
        sigma1_sq=2.0,
        sigma2_sq=1.0,
        interferers=99,
        delta=1.0,
    )


def gamma_fn(x):
    # Gamma through the log-gamma the package evaluates
    return math.exp(math.lgamma(x))


class TestGamma:
    def test_half_integer(self):
        assert rel_err(gamma_fn(0.5), math.sqrt(math.pi)) < 1e-13

    def test_one(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-13)

    def test_against_oracle(self):
        # cross-check at an awkward argument with an arbitrary-precision evaluator
        assert rel_err(gamma_fn(10.5), float(mp.gamma(10.5))) < 1e-12

    @pytest.mark.parametrize("x", np.geomspace(1e-3, 50, 60).tolist())
    def test_accuracy_band(self, x):
        assert rel_err(gamma_fn(x), float(mp.gamma(x))) < 1e-12

    @pytest.mark.parametrize("x", [0.5, 1.5, 3.2, 7.7])
    def test_recurrence(self, x):
        assert rel_err(gamma_fn(x + 1.0), x * gamma_fn(x)) < 1e-11

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


def upper_gamma(a, x):
    # Gamma(a, x) = e^-x U(1 - a, 1 - a, x); the closed-form rate uses a = 0
    return math.exp(-x) * float(hyperu(1.0 - a, 1.0 - a, x))


def exp_e1(x):
    # e^x E1(x) as the closed-form rate evaluates it: U * e^x E1(x) / ln 2
    return approx_er(2, 1.0 / x) * math.log(2.0) / 2.0


class TestUpperIncompleteGamma:
    def test_exponential_case(self):
        assert rel_err(upper_gamma(1.0, 1.0), math.exp(-1.0)) < 1e-12

    def test_at_zero(self):
        assert upper_gamma(1.0, 0.0) == pytest.approx(1.0, rel=1e-13)
        assert upper_gamma(2.5, 0.0) == pytest.approx(math.gamma(2.5), rel=1e-13)

    def test_defining_integral_oracle(self):
        # adaptive quadrature of int_x^inf t^(a-1) e^(-t) dt
        want = float(mp.quad(lambda t: t ** mp.mpf("-0.5") * mp.exp(-t), [2.0, 10, mp.inf]))
        assert rel_err(upper_gamma(0.5, 2.0), want) < 1e-10

    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 3.7, 9.5, 19.5])
    @pytest.mark.parametrize("x", [0.01, 0.7, 3.0, 25.0])
    def test_accuracy_band(self, a, x):
        want = float(mp.gammainc(a, x, mp.inf))
        assert rel_err(upper_gamma(a, x), want) < 1e-10

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_decreasing_in_x(self, a):
        xs = np.linspace(0.0, 12.0, 40)
        vals = [upper_gamma(a, float(x)) for x in xs]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 4.0, 120.0])
    def test_a_zero_is_exponential_integral(self, x):
        assert rel_err(upper_gamma(0.0, x), float(mp.e1(x))) < 1e-10

    @pytest.mark.parametrize("x", [0.2, 2.0, 50.0, 800.0])
    def test_e1_scaled(self, x):
        want = float(mp.exp(x) * mp.e1(x))
        assert rel_err(exp_e1(x), want) < 1e-10

    def test_scaled_e1_full_range(self):
        # hyperu(1, 1, x) alone is off by up to 5e-10 on [2, 50]; the rate
        # must stay at double precision from underflow to overflow
        for x in np.geomspace(1e-300, 1e300, 241):
            want = mp.exp(mp.mpf(x)) * mp.e1(mp.mpf(x))
            assert rel_err(exp_e1(float(x)), float(want)) < 5e-15

    def test_domain(self):
        # x = 1 / beta must stay inside (0, inf)
        with pytest.raises(DomainError):
            approx_er(10, -1.0)
        with pytest.raises(DomainError):
            approx_er(10, math.inf)
        with pytest.raises(DomainError):
            approx_er(10, 5e-324)


class TestKummer:
    def test_at_zero(self):
        assert hyp1f1(0.7, 1.3, 0.0) == 1.0

    def test_exponential_identity(self):
        # 1F1(1, 2; x) = (e^x - 1)/x
        assert rel_err(hyp1f1(1.0, 2.0, 1.0), math.e - 1.0) < 1e-12

    def test_oracle_value(self):
        with mp.workdps(200):
            want = float(mp.hyp1f1(0.25, 0.5, 5.3))
        assert rel_err(hyp1f1(0.25, 0.5, 5.3), want) < 1e-12

    @pytest.mark.parametrize("a,b,x", [
        (10.0, 0.5, 8.2),
        (5.5, 0.5, 30.0),
        (9.75, 0.5, 55.0),
        (0.75, 1.5, -4.0),
        (-2.5, 0.5, 12.0),
    ])
    def test_accuracy_band(self, a, b, x):
        want = float(mp.hyp1f1(a, b, x))
        assert rel_err(hyp1f1(a, b, x), want) < 1e-12

    def test_density_family(self):
        # every log 1F1((I+1)/2, 1/2; t) the density can request, taken as
        # t + log 1F1(-I/2, 1/2; -t) as exact_pdf_zI does, including the
        # arguments where 1F1 itself exceeds the double range; the error is
        # absolute for |log| <= 1 and relative above
        ts = np.geomspace(1e-10, 5000.0, 20)
        for i_cnt in range(1, 200):
            got = ts + np.log(hyp1f1(-0.5 * i_cnt, 0.5, -ts))
            for t, g in zip(ts, got):
                want = float(mp.log(mp.hyp1f1(mp.mpf(i_cnt + 1) / 2, 0.5, t)))
                assert abs(g - want) < 2e-15 * max(1.0, abs(want)), (i_cnt, t)

    @pytest.mark.parametrize("x", [10.0, 14.0, 20.0, 30.0])
    def test_direct_and_transformed_routes_agree(self, x):
        # Kummer's transformation 1F1(a, b; x) = e^x 1F1(b - a, b; -x) at a
        # density index; b - a a negative integer makes the right side a
        # same-sign polynomial
        a, b = 3.5, 0.5
        assert rel_err(hyp1f1(a, b, x), math.exp(x) * hyp1f1(b - a, b, -x)) < 1e-12

    def test_bad_lower_parameter(self):
        # a pole in b comes back non-finite, never as a finite value
        assert not math.isfinite(hyp1f1(1.0, 0.0, 1.0))
        assert not math.isfinite(hyp1f1(1.0, -3.0, 1.0))

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
        assert cov_pair(rho_at(0.0), 1.0) == w_form_cov(0.0, 1.0) == 0.0

    @pytest.mark.parametrize("x", [-0.05, -0.49, -0.6, -0.999, -1.0, -3.0, -40.0, -200.0])
    def test_accuracy_band(self, x):
        rho = rho_at(x)
        want = w_form_cov(rho, 1.0)
        assert rel_err(cov_pair(rho, 1.0), want) < 1e-13
        assert rel_err(cov_pair(-rho, 1.0), w_form_cov(-rho, 1.0)) < 1e-13

    def test_positive_argument_rejected(self):
        # a positive 2F1 argument is a correlation beyond one
        with pytest.raises(DomainError):
            cov_pair(1.0 + 1e-12, 1.0)
        with pytest.raises(DomainError):
            cov_pair(np.array([0.5, -1.5]), 1.0)


def whittaker_factor(i_cnt, t):
    # t^(1/4) e^(-t/2) 1F1((I+1)/2, 1/2; t) = M_{-(2I+1)/4, -1/4}(t), the
    # expansion exact_pdf_zI evaluates
    return t**0.25 * math.exp(-0.5 * t) * hyp1f1(0.5 * (i_cnt + 1), 0.5, t)


class TestWhittakerM:
    def test_zero_argument(self):
        assert whittaker_factor(19, 0.0) == 0.0

    def test_leading_order_near_zero(self):
        # for b = -1/4 the function rises like t^(1/4)
        val = whittaker_factor(7, 1e-12)
        assert abs(val / 1e-3 - 1.0) < 1e-3

    def test_case_configuration_oracle(self):
        # indices and argument produced by the 7x4 half-wavelength layout
        # with 19 interferers at unit SIR argument
        s1, s2, mu = 3.8240775604111663, 5.814922966377411, 7.898654169668588
        t = mu**2 * s2 / (2.0 * s1 * (s1 + s2))
        want = float(mp.whitm(-(2 * 19 + 1) / 4.0, -0.25, t))
        assert rel_err(whittaker_factor(19, t), want) < 1e-12

    def test_matches_kummer_form(self):
        # a = -9.75, b = -1/4 is I = 19
        want = float(mp.whitm(-9.75, -0.25, 1.7))
        assert whittaker_factor(19, 1.7) == pytest.approx(want, rel=1e-13)

    def test_domain(self):
        # Whittaker arguments beyond t = 600 (t = 794.2 here) still give the
        # finite density, against 50-digit mpmath
        assert exact_pdf_zI(1000.0, many_interferers()) == pytest.approx(3.3756230038542757e-55, rel=1e-12)
