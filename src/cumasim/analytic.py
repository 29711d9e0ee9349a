"""Exact SIR statistics for a CUMA receiver under correlated Rayleigh fading.

The in-phase SIR of one user is modeled as Y^2 / (delta * sigma2^2 * Q)
where Y ~ N(mu, sigma1^2) is the aligned desired-signal sum, Q ~ chi^2
with one degree of freedom per interfering stream, and delta in (0, 1]
is the residual-interference factor after (partial) cancellation. Its
density has a closed form in terms of the Whittaker M function; the
total SIR adds the i.i.d. quadrature branch by numerical convolution.

Every exact metric is a one-dimensional sum over one or two tabulated
laws (``ExactLaw``) of the raw SIR, so rates and thresholds are read in
the same units as the simulator's samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legvander
from scipy.special import hyp1f1

from .geometry import PortGrid, offset_correlation
from .specfun import DomainError

__all__ = [
    "QuadratureError",
    "ChannelStats",
    "cov_pair",
    "sigma_sums",
    "exact_pdf_zI",
    "exact_pdf_z",
    "ExactLaw",
    "exact_er",
    "exact_op",
    "exact_sop",
    "sop_lower_numeric",
]

_LN2 = math.log(2.0)


class QuadratureError(ArithmeticError):
    """A tabulated exact law has no finite scale, is not finite or does not integrate to one."""


# ---------------------------------------------------------------------------
# channel-parameter bundle
# ---------------------------------------------------------------------------


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
    ) -> "ChannelStats":
        if users < 2:
            raise DomainError(f"need at least 2 users, got {users}")
        sigma1_sq, sigma2_sq = sigma_sums(grid, omega)
        nbar = grid.total_ports
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
        return 2.0 * m2 / (dof * (self.delta * self.sigma2_sq))


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


def sigma_sums(grid: PortGrid, omega: float) -> tuple[float, float]:
    """(sigma1^2, sigma2^2) over every port of the grid.

    sigma2^2 = Omega/4 (N + sum rho) is the variance of one interferer's
    activated-port sum; sigma1^2 = N Omega/4 (1 - 1/pi) + 2 sum cov is
    the variance of the aligned desired-signal sum. Both sums run over
    unordered port pairs, taken from the offset table: an offset (da, db)
    with da, db >= 1 occurs once per sign of db (same distance, same
    rho, double count); axis offsets occur once.
    """
    if omega <= 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    n1, n2 = grid.n1, grid.n2
    counts = np.outer(n1 - np.arange(n1), n2 - np.arange(n2)).astype(float)
    counts[1:, 1:] *= 2.0
    counts[0, 0] = 0.0  # zero offset is the diagonal, not a pair
    rho = offset_correlation(grid)
    sum_rho = float(np.sum(counts * rho))
    sum_cov = float(np.sum(counts * cov_pair(rho, omega)))
    n = grid.total_ports
    sigma2_sq = omega / 4.0 * (n + sum_rho)
    sigma1_sq = n * omega / 4.0 * (1.0 - 1.0 / math.pi) + 2.0 * sum_cov
    return sigma1_sq, sigma2_sq


# ---------------------------------------------------------------------------
# exact densities
# ---------------------------------------------------------------------------


def _positive_finite(z, name: str) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    bad = ~((0.0 < z) & (z < math.inf))
    if bad.any():
        raise DomainError(f"{name} requires finite z > 0, got {z[bad].flat[0]}")
    return z


def exact_pdf_zI(z, stats: ChannelStats):
    """Density of the in-phase variable Z_I, elementwise over z > 0.

    Assembled in the log domain (the gamma and 2^(I/2) ratios overflow
    well before the result does). The Whittaker factor is expanded as
    t^(1/4) e^(-t/2) 1F1((I+1)/2, 1/2; t), whose log is taken through
    Kummer's transformation, log 1F1 = t + log 1F1(-I/2, 1/2; -t), so it
    stays finite where 1F1 itself overflows.
    """
    z = _positive_finite(z, "exact_pdf_zI")
    i_cnt = stats.interferers
    s1 = stats.sigma1_sq
    d_s2 = stats.delta * stats.sigma2_sq
    q = d_s2 * z
    t = stats.mu**2 * q / (2.0 * s1 * (s1 + q))
    log_pdf = (
        0.25 * math.log(d_s2)
        + math.lgamma(0.5 * (i_cnt + 1))
        - math.lgamma(0.5 * i_cnt)
        - 0.5 * math.log(math.pi)
        - 0.5 * i_cnt * _LN2
        - 0.5 * math.log(stats.mu)
        - 0.75 * np.log(z)
        - stats.mu**2 / (4.0 * s1) * (2.0 * s1 + q) / (s1 + q)
        + 0.25 * (2 * i_cnt + 1) * (_LN2 - np.log1p(q / s1))
        + 0.25 * np.log(t)
        + 0.5 * t
        + np.log(hyp1f1(-0.5 * i_cnt, 0.5, -t))
    )
    return np.exp(log_pdf)


_CONV_X, _CONV_WX = leggauss(160)  # on [-1, 1]; w = 30 (x + 1) maps it to [0, 60]
_CONV_SHRINK = np.exp(-30.0 * (_CONV_X + 1.0))  # e^-w at the nodes
_CONV_WEIGHTS = 30.0 * _CONV_WX
_CONV_PAIRS = 16384  # (z, w) pairs per block; bounds the temporaries' memory


def exact_pdf_z(z, stats: ChannelStats):
    """Density of the total variable Z = Z_I + Z_Q, elementwise over z > 0.

    The branches are i.i.d., so the convolution folds onto x <= z/2, and
    x = (z/2) e^-w turns it into

        f_Z(z) = 2 int_0^inf (z/2) e^-w f_I((z/2) e^-w) f_I(z - (z/2) e^-w) dw.

    With f_I ~ x^(-1/2) at the origin the integrand is smooth at every
    scale of z and decays like e^(-w/2), so a fixed 160-node
    Gauss-Legendre rule on w in [0, 60] resolves it.
    """
    z = _positive_finite(z, "exact_pdf_z")
    flat = z.reshape(-1)
    out = np.empty_like(flat)
    step = _CONV_PAIRS // len(_CONV_SHRINK)
    for lo in range(0, len(flat), step):
        zz = flat[lo : lo + step, None]
        x = 0.5 * zz * _CONV_SHRINK
        vals = x * exact_pdf_zI(x, stats) * exact_pdf_zI(zz - x, stats)
        out[lo : lo + step] = 2.0 * (vals @ _CONV_WEIGHTS)
    return out.reshape(z.shape)[()]


# ---------------------------------------------------------------------------
# tabulated exact law
# ---------------------------------------------------------------------------

_PANEL = 0.5  # panel width in ln z
_ORDER = 12  # Gauss-Legendre nodes per panel
_GL_X, _GL_W = leggauss(_ORDER)
# node values -> Legendre coefficients of the interpolant's antiderivative
# from the panel's left end, in the panel coordinate x in [-1, 1]
_ANTIDERIV = legint((np.arange(_ORDER) + 0.5)[:, None] * legvander(_GL_X, _ORDER - 1).T * _GL_W, lbnd=-1)
_MASS_TOL = 1e-8


class ExactLaw:
    """A distribution on (0, inf) tabulated once on Gauss-Legendre panels in ln z.

    Panels of width 0.5 in s = ln z hold 12 nodes each, and the table
    stores z f(z), the density in s. Expectations are weighted sums over
    all nodes; the CDF adds the whole panels below z to the integral of
    z's panel's Legendre interpolant up to z.
    """

    def __init__(self, pdf, scale: float, lo: float, hi: float):
        """Tabulate ``pdf`` (vectorised over z) for ln(z / scale) in [lo, hi]."""
        if not 0.0 < scale < math.inf:
            raise QuadratureError(f"law scale {scale} is not positive and finite")
        panels = math.ceil((hi - lo) / _PANEL)
        self._s0 = math.log(scale) + lo
        s = self._s0 + _PANEL * (np.arange(panels)[:, None] + 0.5 * (_GL_X + 1.0))
        self._z = np.exp(s)
        self._g = self._z * pdf(self._z)
        self._mass = 0.5 * _PANEL * _GL_W * self._g
        self._cum = np.concatenate(([0.0], np.cumsum(self._mass.sum(axis=1))))
        total = self._cum[-1]
        if not (np.isfinite(self._g).all() and abs(total - 1.0) <= _MASS_TOL):
            raise QuadratureError(
                f"tabulated law has mass {total} (tolerance {_MASS_TOL}) on ln(z / {scale:g}) in [{lo:g}, {hi:g}]"
            )

    @classmethod
    def from_stats(cls, stats: ChannelStats) -> "ExactLaw":
        """Exact law of the raw total SIR, centred at its mean.

        The upper end tracks the z^(-I/2) tail of the survival function.
        """
        hi = min(60.0 / stats.interferers + 5.0, 80.0)
        return cls(lambda z: exact_pdf_z(z, stats), stats.mean_sir(), -30.0, hi)

    @classmethod
    def from_pdf(cls, pdf, scale: float) -> "ExactLaw":
        """Law of a vectorised density ``pdf`` that lives on the scale ``scale``."""
        return cls(pdf, scale, -40.0, 40.0)

    def expect(self, phi) -> float:
        """E[phi(Z)] for ``phi`` vectorised over z."""
        return float(np.sum(self._mass * phi(self._z)))

    def cdf(self, z):
        """Pr{Z <= z}, elementwise; 0 for z <= 0, clipped to [0, 1]."""
        z = np.asarray(z, dtype=float)
        flat = z.reshape(-1)
        pos = flat > 0.0
        s = (np.log(np.where(pos, flat, 1.0)) - self._s0) / _PANEL
        panel = np.clip(np.floor(s), 0, len(self._g) - 1).astype(int)
        x = np.clip(2.0 * (s - panel) - 1.0, -1.0, 1.0)
        part = 0.5 * _PANEL * np.sum((legvander(x, _ORDER) @ _ANTIDERIV) * self._g[panel], axis=1)
        out = np.where(pos, np.clip(self._cum[panel] + part, 0.0, 1.0), 0.0)
        return out.reshape(z.shape)[()]


# ---------------------------------------------------------------------------
# exact metrics
# ---------------------------------------------------------------------------


def exact_er(users: int, law: ExactLaw) -> float:
    """Ergodic sum rate U * E[log2(1 + Z)] of the raw SIR, bits per channel use."""
    if users < 2:
        raise DomainError(f"need at least 2 users, got {users}")
    return users * law.expect(lambda z: np.log1p(z) / _LN2)


def exact_op(gamma_th: float, law: ExactLaw) -> float:
    """Outage probability: the raw-SIR CDF at 2^gamma_th - 1."""
    if not 0.0 < gamma_th < math.inf:
        raise DomainError(f"gamma_th must be positive and finite, got {gamma_th}")
    return float(law.cdf(2.0**gamma_th - 1.0))


def exact_sop(law_b: ExactLaw, law_e: ExactLaw, rs: float) -> float:
    """Secrecy outage probability E_E[F_B(tau (1 + Z_E) - 1)], tau = 2^rs.

    Both rate variables are raw SIRs, matching the rate convention of the
    ergodic-rate and outage metrics (and of the simulator).
    """
    if not 0.0 <= rs < math.inf:
        raise DomainError(f"secrecy rate must be nonnegative and finite, got {rs}")
    tau = 2.0**rs
    val = law_e.expect(lambda z: law_b.cdf(tau * (1.0 + z) - 1.0))
    return min(max(val, 0.0), 1.0)


def sop_lower_numeric(law_b: ExactLaw, law_e: ExactLaw, rs: float) -> float:
    """Lower bound Pr{Z_B < tau Z_E} = E_E[F_B(tau Z_E)], raw-SIR variables."""
    if not 0.0 <= rs < math.inf:
        raise DomainError(f"secrecy rate must be nonnegative and finite, got {rs}")
    tau = 2.0**rs
    val = law_e.expect(lambda z: law_b.cdf(tau * z))
    return min(max(val, 0.0), 1.0)
