"""Closed-form Gamma/exponential approximations of the SIR distributions.

The in-phase density behaves like a0 * z^(-1/2) as z -> 0; matching a
Gamma(1/2, beta) density to that asymptote gives beta = 1 / (pi a0^2).
The sum of the two i.i.d. branches is then exactly Gamma(1, beta), i.e.
exponential, which yields closed forms for ergodic rate, outage and the
secrecy-outage lower bound.

Every function here works in raw-SIR units, like the exact law and the
simulator: beta = beta_I(stats) is the scale of the raw SIR. The paper
writes its rate and outage forms for the sigma2^2-scaled SIR, with
x = sigma2^2 / (sigma2^2 beta); that is the same x = 1 / beta.

The linear coefficient uses E[sqrt(Q)] = sqrt(2) Gamma((I+1)/2) / Gamma(I/2)
for the chi-square interference power Q with one degree of freedom per
interferer:

    a0 = exp(-mu^2 / (2 sigma1^2)) * sqrt(delta) * sigma2 * E[sqrt(Q)]
         / (sqrt(2 pi) * sigma1)

All quantities are carried in the log domain internally; the tail factor
exp(-mu^2 / (2 sigma1^2)) is far below underflow for very large arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import exp1, hyperu

from .analytic import ChannelStats
from .specfun import DomainError

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

_LN_PI = math.log(math.pi)
_LN2 = math.log(2.0)


def _log_a0(stats: ChannelStats) -> float:
    i_cnt = stats.interferers
    return (
        -stats.mu**2 / (2.0 * stats.sigma1_sq)
        + 0.5 * math.log(stats.delta * stats.sigma2_sq / stats.sigma1_sq)
        - 0.5 * _LN_PI
        + math.lgamma(0.5 * (i_cnt + 1))
        - math.lgamma(0.5 * i_cnt)
    )


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
    return math.exp(log_beta_I(stats))


def approx_pdf_zI(z: float, beta: float) -> float:
    """Gamma(1/2, beta) density: z^(-1/2) exp(-z/beta) / sqrt(pi beta)."""
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if z <= 0.0:
        raise DomainError(f"approx_pdf_zI requires z > 0, got {z}")
    return math.exp(-z / beta) / math.sqrt(math.pi * beta * z)


def approx_pdf_z(z: float, beta: float) -> float:
    """Exponential density exp(-z/beta)/beta for the total variable."""
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if z < 0.0:
        raise DomainError(f"approx_pdf_z requires z >= 0, got {z}")
    return math.exp(-z / beta) / beta


def approx_cdf_z(z, beta: float):
    """Exponential CDF 1 - exp(-z/beta), elementwise; zero for z <= 0."""
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    return -np.expm1(-np.maximum(z, 0.0) / beta)


def approx_er(users: int, beta: float) -> float:
    """Closed-form ergodic sum rate U * e^x * Gamma(0, x) / ln 2, x = 1/beta."""
    if users < 2:
        raise DomainError(f"need at least 2 users, got {users}")
    if beta <= 0.0:
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
    if not 0.0 <= gamma_th < math.inf:
        raise DomainError(f"gamma_th must be nonnegative and finite, got {gamma_th}")
    return float(approx_cdf_z(2.0**gamma_th - 1.0, beta))


def sop_lower_closed(beta_b: float, beta_e: float, rs: float) -> float:
    """Closed-form secrecy-outage lower bound 1 - beta_B / (tau beta_E + beta_B)."""
    if beta_b <= 0.0 or beta_e <= 0.0:
        raise DomainError("both scales must be positive")
    if not 0.0 <= rs < math.inf:
        raise DomainError(f"secrecy rate must be nonnegative and finite, got {rs}")
    tau = 2.0**rs
    return tau * beta_e / (tau * beta_e + beta_b)
