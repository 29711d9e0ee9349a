"""Exact SIR statistics for a CUMA receiver under correlated Rayleigh fading.

The in-phase SIR of one user is modeled as Y^2 / (delta * sigma2^2 * Q)
where Y ~ N(mu, sigma1^2) is the aligned desired-signal sum, Q ~ chi^2
with one degree of freedom per interfering stream, and delta in (0, 1]
is the residual-interference factor after (partial) cancellation. Its
density has a closed form in terms of the Whittaker M function; the
total SIR adds the i.i.d. quadrature branch by numerical convolution.

Rate-style metrics read the distribution variable in sigma2^2-rescaled
units (the rate argument is z / sigma2^2 and outage thresholds carry a
sigma2^2 factor), so the scalings cancel and every rate is a function of
the raw SIR -- directly comparable with the simulator's samples. The
secrecy metrics keep raw-SIR variables on both sides for the same
reason.
"""

from __future__ import annotations

import math
from functools import lru_cache
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import hyp1f1

from .geometry import PortGrid, correlation_entries
from .specfun import DomainError

__all__ = [
    "QuadratureError",
    "PairingPolicy",
    "ChannelStats",
    "cov_pair",
    "sigma_sums",
    "exact_pdf_zI",
    "exact_pdf_z",
    "exact_cdf_z",
    "exact_er",
    "exact_op",
    "exact_sop",
    "sop_lower_numeric",
]

LN2 = math.log(2.0)


class QuadratureError(ArithmeticError):
    """Numerical integration failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


def _quad(f, a, b, tol):
    out = integrate.quad(f, a, b, epsabs=0.0, epsrel=tol, limit=200, full_output=1)
    val, abserr = out[0], out[1]
    if len(out) > 3 and abserr > 100.0 * max(tol * abs(val), 1e-300):
        raise QuadratureError(f"integral on [{a}, {b}]: {out[3]}")
    return val


def _quad_sqrt_origin(f, upper, tol):
    """Integral of f over (0, upper] where f ~ x^(-1/2) at the origin.

    Substituting x = u^2 removes the singularity.
    """
    if upper <= 0.0:
        return 0.0
    return _quad(lambda u: 2.0 * u * f(u * u), 0.0, math.sqrt(upper), tol)


def _quad_semi_infinite(f, scale, tol):
    """Integral of f over (0, inf) via x = scale * t / (1 - t)."""

    def g(t):
        onem = 1.0 - t
        x = scale * t / onem
        return f(x) * scale / (onem * onem)

    return _quad(g, 0.0, 1.0, tol)


# ---------------------------------------------------------------------------
# channel-parameter bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingPolicy:
    """Which ports enter the pair sums of the variance formulas.

    all-ports uses every port of the grid; first-nbar takes the first
    nbar linear indices; stride spreads nbar indices evenly across the
    grid (step N // nbar). The latter two exist for sensitivity studies.
    """

    mode: str = "all-ports"
    nbar: int | None = None

    _MODES = ("all-ports", "first-nbar", "stride")

    def __post_init__(self):
        if self.mode not in self._MODES:
            raise DomainError(f"pairing mode must be one of {self._MODES}, got {self.mode!r}")
        if self.mode != "all-ports":
            if self.nbar is None or self.nbar < 1:
                raise DomainError(f"{self.mode} pairing requires nbar >= 1")

    def select(self, total_ports: int) -> np.ndarray:
        """1-based port indices entering the sums."""
        if self.mode == "all-ports":
            if self.nbar is not None and self.nbar != total_ports:
                raise DomainError("all-ports pairing fixes nbar to the full port count")
            return np.arange(1, total_ports + 1)
        if self.nbar > total_ports:
            raise DomainError(f"nbar={self.nbar} exceeds total ports {total_ports}")
        if self.mode == "first-nbar":
            return np.arange(1, self.nbar + 1)
        step = total_ports // self.nbar
        return 1 + step * np.arange(self.nbar)


@dataclass(frozen=True)
class ChannelStats:
    """Analytic parameters of one user's SIR distribution."""

    omega: float
    nbar: int
    mu: float
    sigma1_sq: float
    sigma2_sq: float
    interferers: int
    delta: float

    def __post_init__(self):
        if self.omega <= 0.0 or self.sigma1_sq <= 0.0 or self.sigma2_sq <= 0.0 or self.mu <= 0.0:
            raise DomainError("omega, mu, sigma1_sq and sigma2_sq must all be positive")
        if self.nbar < 1 or self.interferers < 1:
            raise DomainError("need nbar >= 1 and at least one interferer")
        if not 0.0 < self.delta <= 1.0:
            raise DomainError(f"delta must lie in (0, 1], got {self.delta}")
        mu_ref = 0.5 * self.nbar * math.sqrt(self.omega / math.pi)
        if abs(self.mu - mu_ref) > 1e-12 * mu_ref:
            raise DomainError(f"mu={self.mu} inconsistent with nbar={self.nbar}, omega={self.omega}")

    @classmethod
    def from_grid(
        cls,
        grid: PortGrid,
        users: int,
        delta: float = 1.0,
        omega: float = 1.0,
        policy: PairingPolicy = PairingPolicy(),
    ) -> "ChannelStats":
        if users < 2:
            raise DomainError(f"need at least 2 users, got {users}")
        sigma1_sq, sigma2_sq = sigma_sums(grid, omega, None, policy)
        nbar = len(policy.select(grid.total_ports))
        return cls(
            omega=omega,
            nbar=nbar,
            mu=0.5 * nbar * math.sqrt(omega / math.pi),
            sigma1_sq=sigma1_sq,
            sigma2_sq=sigma2_sq,
            interferers=users - 1,
            delta=delta,
        )

    def mean_sir(self) -> float:
        """Mean of the total raw SIR (finite above two interferers)."""
        m2 = self.mu * self.mu + self.sigma1_sq
        dof = max(self.interferers - 2, 1)
        return 2.0 * m2 / (self.delta * self.sigma2_sq * dof)


# ---------------------------------------------------------------------------
# variance machinery
# ---------------------------------------------------------------------------


def cov_pair(rho, omega: float):
    """Covariance of the positive parts of two correlated N(0, Omega/2) variables.

    Elementwise over an array of correlations. This is the degree-1
    arc-cosine kernel (Cho & Saul 2009), the elementary form of the
    paper's W-function expression:

        Omega/(4 pi) * (sqrt(1 - rho^2) + rho (pi/2 + asin rho) - 1)

    It is Omega(1/4 - 1/(4 pi)) at rho = 1, -Omega/(4 pi) at rho = -1 and
    exactly 0 at rho = 0.
    """
    if not 0.0 < omega < math.inf:
        raise DomainError(f"omega must be positive and finite, got {omega}")
    rho = np.asarray(rho, dtype=float)
    outside = ~(np.abs(rho) <= 1.0)
    if outside.any():
        raise DomainError(f"correlation must satisfy |rho| <= 1, got {rho[outside].flat[0]}")
    # sqrt(1 - rho^2) - 1 rewritten as -rho^2 / (1 + sqrt(1 - rho^2)) keeps
    # small |rho| free of cancellation; (1 - rho)(1 + rho) does the same
    # next to |rho| = 1
    root = np.sqrt((1.0 - rho) * (1.0 + rho))
    return omega / (4.0 * math.pi) * (rho * (0.5 * math.pi + np.arcsin(rho)) - rho * rho / (1.0 + root))


def _offset_pair_sums(grid: PortGrid, omega: float):
    # pair sums over the full grid exploit translation invariance: an
    # unordered pair offset (da, db) with da >= 1 occurs once per sign of
    # db (same distance, same rho, double count); axis offsets occur once.
    s1, s2 = grid.spacings
    da = np.arange(grid.n1)
    db = np.arange(grid.n2)
    counts = np.outer(grid.n1 - da, grid.n2 - db).astype(float)
    counts[1:, 1:] *= 2.0
    counts[0, 0] = 0.0  # zero offset is the diagonal, not a pair
    x = 2.0 * np.pi * np.hypot(np.outer(da, np.ones_like(db)) * s1, np.outer(np.ones_like(da), db) * s2)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    x2 = x * x
    rho = np.where(small, 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0), np.sin(xs) / xs)
    sum_rho = float(np.sum(counts * rho))
    sum_cov = float(np.sum(counts * cov_pair(rho, omega)))
    return sum_rho, sum_cov


def sigma_sums(
    grid: PortGrid,
    omega: float,
    nbar: int | None = None,
    policy: PairingPolicy = PairingPolicy(),
) -> tuple[float, float]:
    """(sigma1^2, sigma2^2) for the policy-selected port set.

    sigma2^2 = Omega/4 (Nbar + sum rho) is the variance of one
    interferer's activated-port sum; sigma1^2 = Nbar Omega/4 (1 - 1/pi)
    + 2 sum cov is the variance of the aligned desired-signal sum.
    """
    if omega <= 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    if nbar is not None and policy.nbar is not None and nbar != policy.nbar:
        raise DomainError(f"nbar={nbar} disagrees with policy nbar={policy.nbar}")
    idx = policy.select(grid.total_ports)
    if nbar is not None and len(idx) != nbar:
        raise DomainError(f"policy selects {len(idx)} ports but nbar={nbar} was requested")
    m = len(idx)
    if policy.mode == "all-ports":
        sum_rho, sum_cov = _offset_pair_sums(grid, omega)
    else:
        entries = correlation_entries(grid)[np.ix_(idx - 1, idx - 1)]
        iu = np.triu_indices(m, 1)
        rhos = entries[iu]
        sum_rho = float(rhos.sum())
        sum_cov = float(np.sum(cov_pair(rhos, omega)))
    sigma2_sq = omega / 4.0 * (m + sum_rho)
    sigma1_sq = m * omega / 4.0 * (1.0 - 1.0 / math.pi) + 2.0 * sum_cov
    return sigma1_sq, sigma2_sq


# ---------------------------------------------------------------------------
# exact densities and metrics
# ---------------------------------------------------------------------------


def exact_pdf_zI(z: float, stats: ChannelStats) -> float:
    """Density of the in-phase variable Z_I at z > 0.

    Assembled in the log domain (the gamma and 2^(I/2) ratios overflow
    well before the result does). The Whittaker factor is expanded as
    t^(1/4) e^(-t/2) 1F1((I+1)/2, 1/2; t), whose log is taken through
    Kummer's transformation, log 1F1 = t + log 1F1(-I/2, 1/2; -t), so it
    stays finite where 1F1 itself overflows.
    """
    if z <= 0.0 or not math.isfinite(z):
        raise DomainError(f"exact_pdf_zI requires z > 0, got {z}")
    i_cnt = stats.interferers
    s1 = stats.sigma1_sq
    q = stats.delta * stats.sigma2_sq * z
    t = stats.mu**2 * q / (2.0 * s1 * (s1 + q))
    log_pdf = (
        0.25 * math.log(stats.delta * stats.sigma2_sq)
        + math.lgamma(0.5 * (i_cnt + 1))
        - math.lgamma(0.5 * i_cnt)
        - 0.5 * math.log(math.pi)
        - 0.5 * i_cnt * LN2
        - 0.5 * math.log(stats.mu)
        - 0.75 * math.log(z)
        - stats.mu**2 / (4.0 * s1) * (2.0 * s1 + q) / (s1 + q)
        + 0.25 * (2 * i_cnt + 1) * (LN2 - math.log1p(q / s1))
        + 0.25 * math.log(t)
        + 0.5 * t
        + math.log(hyp1f1(-0.5 * i_cnt, 0.5, -t))
    )
    return math.exp(log_pdf)


def exact_pdf_z(z: float, stats: ChannelStats, quad_tol: float = 1e-6) -> float:
    """Density of the total variable Z = Z_I + Z_Q by numerical convolution.

    Both convolution endpoints behave like x^(-1/2); symmetry about z/2
    (the branches are i.i.d.) folds the integral onto one half where the
    u = sqrt(x) substitution removes the singularity.
    """
    if z <= 0.0 or not math.isfinite(z):
        raise DomainError(f"exact_pdf_z requires z > 0, got {z}")
    f = lambda x: exact_pdf_zI(x, stats)
    half = 0.5 * z
    return 2.0 * _quad_sqrt_origin(lambda x: f(x) * f(z - x), half, quad_tol)


@lru_cache(maxsize=128)
def _branch_support_cap(stats: ChannelStats, tol: float) -> float:
    # the in-phase density decays like z^-(I+2)/2 past sigma1^2/(delta sigma2^2);
    # beyond this cap the remaining mass is far below the quadrature tolerance
    base = stats.sigma1_sq / (stats.delta * stats.sigma2_sq)
    t = 64.0 * max(base, stats.mean_sir())
    while t < 1e12 and exact_pdf_zI(t, stats) * t > 0.01 * tol:
        t *= 2.0
    return t


def exact_cdf_z(z: float, stats: ChannelStats, quad_tol: float = 1e-6) -> float:
    """CDF of Z = Z_I + Z_Q; clipped to [0, 1].

    Integration stops at the effective support of the density, so
    arbitrarily large arguments are cheap.
    """
    if z <= 0.0:
        return 0.0
    f = lambda x: exact_pdf_zI(x, stats)
    cap = 2.0 * _branch_support_cap(stats, quad_tol)
    z_eff = min(z, cap)

    def cdf_i(y):
        return _quad_sqrt_origin(f, min(y, 0.5 * cap), quad_tol)

    val = _quad_sqrt_origin(lambda x: f(x) * cdf_i(z_eff - x), z_eff, quad_tol)
    return min(max(val, 0.0), 1.0)


def exact_er(
    users: int,
    stats: ChannelStats | None = None,
    quad_tol: float = 1e-6,
    *,
    pdf=None,
    sigma2_sq: float | None = None,
    scale: float | None = None,
) -> float:
    """Ergodic sum rate U * E[log2(1 + Z / sigma2^2)] in bits per channel use.

    By default the rate variable Z is sigma2^2 times the convolution
    variable, so the two scalings cancel and the integral reduces to the
    rate of the raw SIR. A different density can be substituted via
    ``pdf`` (then ``sigma2_sq`` must be supplied and Z is integrated in
    the caller's units); that hook doubles as the quadrature cross-check
    for the closed-form rate.
    """
    if users < 2:
        raise DomainError(f"need at least 2 users, got {users}")
    if pdf is None:
        if stats is None:
            raise DomainError("either stats or an explicit pdf is required")
        s2 = stats.sigma2_sq
        pdf = lambda z: exact_pdf_z(z / s2, stats, quad_tol) / s2
        sigma2_sq = s2
        scale = scale or s2 * stats.mean_sir()
    elif sigma2_sq is None:
        raise DomainError("sigma2_sq is required when substituting a pdf")
    scale = scale or sigma2_sq

    def integrand(z):
        return math.log1p(z / sigma2_sq) / LN2 * pdf(z)

    return users * _quad_semi_infinite(integrand, scale, quad_tol)


def exact_op(gamma_th: float, stats: ChannelStats, quad_tol: float = 1e-6) -> float:
    """Outage probability: rate threshold gamma_th maps to z_th = (2^g - 1) sigma2^2.

    With Z = sigma2^2 * SIR the threshold scaling cancels and the result
    is the raw-SIR CDF at 2^gamma_th - 1.
    """
    if gamma_th <= 0.0:
        raise DomainError(f"gamma_th must be positive, got {gamma_th}")
    z_th = (2.0**gamma_th - 1.0) * stats.sigma2_sq
    return exact_cdf_z(z_th / stats.sigma2_sq, stats, quad_tol)


def exact_sop(
    stats_b: ChannelStats,
    stats_e: ChannelStats,
    rs: float,
    quad_tol: float = 1e-6,
) -> float:
    """Secrecy outage probability of the exact distributions.

    SOP = int_0^inf F_B(tau (1 + z) - 1) f_E(z) dz with tau = 2^rs. Both
    rate variables are raw SIRs, matching the rate convention of the
    ergodic-rate and outage metrics (and of the simulator).
    """
    if rs < 0.0:
        raise DomainError(f"secrecy rate must be nonnegative, got {rs}")
    tau = 2.0**rs

    def integrand(z_e):
        arg = tau * (1.0 + z_e) - 1.0
        if arg <= 0.0:
            return 0.0
        return exact_cdf_z(arg, stats_b, quad_tol) * exact_pdf_z(z_e, stats_e, quad_tol)

    val = _quad_semi_infinite(integrand, stats_e.mean_sir(), quad_tol)
    return min(max(val, 0.0), 1.0)


def sop_lower_numeric(
    stats_b: ChannelStats | None,
    stats_e: ChannelStats | None,
    rs: float,
    quad_tol: float = 1e-6,
    *,
    pdf_b=None,
    pdf_e=None,
    scale_e: float | None = None,
) -> float:
    """Lower bound Pr{Z_B < tau Z_E} by double quadrature, raw-SIR variables.

    Substituting closed-form densities for ``pdf_b``/``pdf_e`` turns this
    into the independent cross-check for the closed-form bound; the
    substituted densities are integrated in the caller's units.
    """
    if rs < 0.0:
        raise DomainError(f"secrecy rate must be nonnegative, got {rs}")
    tau = 2.0**rs
    if pdf_b is None:
        if stats_b is None:
            raise DomainError("either stats_b or pdf_b is required")
        cdf_b = lambda y: exact_cdf_z(y, stats_b, quad_tol)
    else:
        cdf_b = lambda y: _quad_sqrt_origin(pdf_b, y, quad_tol) if y > 0.0 else 0.0
    if pdf_e is None:
        if stats_e is None:
            raise DomainError("either stats_e or pdf_e is required")
        pdf_e = lambda z: exact_pdf_z(z, stats_e, quad_tol)
        scale_e = scale_e or stats_e.mean_sir()
    if scale_e is None:
        raise DomainError("scale_e is required when substituting pdf_e")

    val = _quad_semi_infinite(lambda z: pdf_e(z) * cdf_b(tau * z), scale_e, quad_tol)
    return min(max(val, 0.0), 1.0)
