"""Closed-form Gamma/exponential approximations of the SIR distributions.

The in-phase SIR is Z_I = sigma1^2 / (delta sigma2^2 I) F'(1, I; mu^2 / sigma1^2),
a scaled noncentral F variable, whose exact density (``analytic.exact_pdf_zI``)
is a0 * z^(-1/2) times two correction factors that tend to 1 as z -> 0;
matching a Gamma(1/2, beta) density to that asymptote gives
beta = 1 / (pi a0^2).
The sum of the two i.i.d. branches is then exactly Gamma(1, beta), i.e.
exponential, which yields closed forms for ergodic rate, outage and the
secrecy-outage lower bound.

Every function here works in raw-SIR units, like the exact law and the
simulator: beta = beta_I(stats) is the scale of the raw SIR. The paper
writes its rate and outage forms for the sigma2^2-scaled SIR, with
x = sigma2^2 / (sigma2^2 beta); that is the same x = 1 / beta.

The coefficient, shared with the exact density and carried as its log
(the tail factor exp(-mu^2 / (2 sigma1^2)) underflows for very large
arrays), uses E[sqrt(Q)] = sqrt(2) Gamma((I+1)/2) / Gamma(I/2) for the
chi-square interference power Q with one degree of freedom per interferer:

    a0 = exp(-mu^2 / (2 sigma1^2)) * sqrt(delta) * sigma2 * E[sqrt(Q)]
         / (sqrt(2 pi) * sigma1)
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import exp1, hyperu

from .analytic import _LN2, _LN_PI, ChannelStats, _log_a0
from .specfun import DomainError, _check_rate, exp2

__all__ = [
    "asymptote_a0",
    "beta_I",
    "log_beta_I",
    "approx_pdf_zI",
    "approx_pdf_z",
    "approx_cdf_z",
    "approx_er",
    "approx_op",
    "sop_lower_closed",
]


def asymptote_a0(stats: ChannelStats) -> float:
    """Coefficient a0 of the in-phase density's small-z asymptote a0 z^(-1/2).

    The other coefficients are fixed: the exponent is -1/2, and the
    two-branch convolution's density tends to 1 / beta at z = 0.
    """
    return math.exp(_log_a0(stats))


def log_beta_I(stats: ChannelStats) -> float:
    """log of the asymptote-matched Gamma scale (finite even when beta overflows)."""
    return -_LN_PI - 2.0 * _log_a0(stats)


def beta_I(stats: ChannelStats) -> float:
    """Asymptote-matched raw-SIR scale beta = 1 / (pi a0^2) of the Gamma(1/2) fit."""
    log_beta = log_beta_I(stats)
    try:
        return math.exp(log_beta)
    except OverflowError:
        raise OverflowError(f"beta_I = e^{log_beta:.6g} is past the float range") from None


def approx_pdf_zI(z: float, beta: float) -> float:
    """Gamma(1/2, beta) density: z^(-1/2) exp(-z/beta) / sqrt(pi beta)."""
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if not z > 0.0:
        raise DomainError(f"approx_pdf_zI requires z > 0, got {z}")
    return math.exp(-z / beta) / math.sqrt(math.pi * beta * z)


def approx_pdf_z(z: float, beta: float) -> float:
    """Exponential density exp(-z/beta)/beta for the total variable."""
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if not z >= 0.0:
        raise DomainError(f"approx_pdf_z requires z >= 0, got {z}")
    return math.exp(-z / beta) / beta


def approx_cdf_z(z, beta: float):
    """Exponential CDF 1 - exp(-z/beta), elementwise; zero for z <= 0."""
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    return -np.expm1(-np.maximum(z, 0.0) / beta)


def approx_er(users: int, beta: float) -> float:
    """Closed-form ergodic sum rate U * e^x * Gamma(0, x) / ln 2, x = 1/beta."""
    if users < 2:
        raise DomainError(f"need at least 2 users, got {users}")
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    x = 1.0 / beta
    if not 0.0 < x < math.inf:
        raise DomainError(f"1/beta = {x} left (0, inf); use log_beta_I directly")
    # e^x E1(x); hyperu(1, 1, x) equals it without overflowing, but only
    # past x = 50 does it match exp1's accuracy (it is off by up to 5e-10
    # on [2, 50]), so it takes over where exp(x) would overflow
    exp_e1 = math.exp(x) * exp1(x) if x < 700.0 else hyperu(1.0, 1.0, x)
    return users * float(exp_e1) / _LN2


def approx_op(gamma_th: float, beta: float) -> float:
    """Closed-form outage probability 1 - exp(-(2^g - 1) / beta)."""
    _check_rate("gamma_th", gamma_th)
    return float(approx_cdf_z(exp2(gamma_th) - 1.0, beta))


def sop_lower_closed(beta_b: float, beta_e: float, rs: float) -> float:
    """Closed-form secrecy-outage lower bound 1 - beta_B / (tau beta_E + beta_B)."""
    if not (beta_b > 0.0 and beta_e > 0.0):
        raise DomainError("both scales must be positive")
    _check_rate("secrecy rate", rs)
    eve_scale = exp2(rs) * beta_e
    if eve_scale == math.inf:
        return 1.0
    return eve_scale / (eve_scale + beta_b)
