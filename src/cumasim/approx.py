"""Closed-form Gamma/exponential approximations of the SIR distributions.

The in-phase SIR is Z_I = sigma1^2 / (delta sigma2^2 I) F'(1, I; mu^2 / sigma1^2),
a scaled noncentral F variable, whose exact density (``analytic.exact_pdf_zI``)
is a0 * z^(-1/2) times two correction factors that tend to 1 as z -> 0;
matching a Gamma(1/2, beta) density to that asymptote gives
beta = 1 / (pi a0^2).
The sum of the two i.i.d. branches is then exactly Gamma(1, beta), i.e.
exponential, which yields closed forms for ergodic rate, outage and the
secrecy-outage lower bound.

The one special function here, e^x E1(x) in the ergodic rate, is
evaluated by ``_exp_e1`` from its power series and continued fraction,
so no closed form loads ``scipy``.

Every function here works in raw-SIR units, like the exact law and the
simulator: beta = beta_I(stats, delta) is the scale of the raw SIR, and
it is beta_I(stats) / delta, since delta divides the SIR. The paper
writes its rate and outage forms for the sigma2^2-scaled SIR, with
x = sigma2^2 / (sigma2^2 beta); that is the same x = 1 / beta.

beta = 1 / (pi a0^2) is the only scale this module exports. a0 lives
only as its log at delta = 1, ``analytic._log_a0``, shared with the
exact density (the tail factor exp(-mu^2 / (2 sigma1^2)) underflows for
very large arrays). With E[sqrt(Q)] = sqrt(2) Gamma((I+1)/2) / Gamma(I/2)
for the chi-square interference power Q, one degree of freedom per
interferer,

    a0 = exp(-mu^2 / (2 sigma1^2)) * sqrt(delta) * sigma2 * E[sqrt(Q)]
         / (sqrt(2 pi) * sigma1)
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import _LN2, _LN_PI, ChannelStats, _log_a0
from .specfun import DomainError, _check_delta, _check_rate, _check_users, exp2

__all__ = [
    "beta_I",
    "approx_pdf_zI",
    "approx_pdf_z",
    "approx_cdf_z",
    "approx_er",
    "approx_op",
    "sop_lower_closed",
]


def beta_I(stats: ChannelStats, delta: float = 1.0) -> float:
    """Asymptote-matched raw-SIR scale beta = 1 / (pi a0^2) of the Gamma(1/2) fit at ``delta``."""
    _check_delta("delta", delta)
    log_beta = -_LN_PI - 2.0 * _log_a0(stats) - math.log(delta)
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


_EULER_GAMMA = 0.5772156649015329  # correctly rounded, the value scipy's exp1 takes


def _exp_e1(x: float) -> float:
    """e^x E1(x) for x > 0, at double precision from underflow to overflow.

    Up to x = 1 the power series E1(x) = -gamma - ln x - sum_k (-x)^k / (k k!)
    (DLMF 6.6.2) times e^x; beyond it the continued fraction
    e^x E1(x) = 1 / (x + 1 / (1 + 1 / (x + 2 / (1 + 2 / (x + ...))))) (DLMF 6.9.1),
    evaluated backward from depth 20 + 80/x, which never overflows. The
    series takes scipy's exp1 steps, so up to x = 1 the result is
    exp(x) * exp1(x) to the bit.
    """
    if x <= 1.0:
        total = term = 1.0
        for k in range(1, 26):
            term = -term * k * x / (k + 1.0) ** 2
            total += term
            if abs(term) <= abs(total) * 1e-15:
                break
        return math.exp(x) * (-_EULER_GAMMA - math.log(x) + x * total)
    tail = 0.0
    for k in range(20 + int(80.0 / x), 0, -1):
        tail = k / (1.0 + k / (x + tail))
    return 1.0 / (x + tail)


def approx_er(users: int, beta: float) -> float:
    """Closed-form ergodic sum rate U * e^x * Gamma(0, x) / ln 2, x = 1/beta."""
    _check_users(users)
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    x = 1.0 / beta
    if not 0.0 < x < math.inf:
        raise DomainError(f"1/beta = {x} left (0, inf)")
    return users * _exp_e1(x) / _LN2


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
