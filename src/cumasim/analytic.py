"""Exact SIR statistics for a CUMA receiver under correlated Rayleigh fading.

The in-phase SIR of one user is modeled as Y^2 / (delta * sigma2^2 * Q)
where Y ~ N(mu, sigma1^2) is the aligned desired-signal sum, Q ~ chi^2
with one degree of freedom per interfering stream, and delta in (0, 1]
is the residual-interference factor after (partial) cancellation, so
Z_I = sigma1^2 / (delta sigma2^2 I) F' with F' ~ F'(1, I; mu^2 / sigma1^2),
a noncentral F variable. The paper writes its density with the Whittaker
M function; reduced, it is the z -> 0 asymptote a0 z^(-1/2) times two
correction factors. The total SIR adds the i.i.d. quadrature branch by
numerical convolution.

delta divides the whole SIR, so it only scales the law: every density
here is the one at delta = 1, and ``ExactLaw.over(delta)`` reads that
law as the law of Z / delta. The average channel power Omega is fixed
at 1. It scales mu^2, sigma1^2 and sigma2^2 alike, so it cancels from
every SIR statistic and is no input anywhere in the package.

Every exact metric reads one or two laws of the raw SIR only through
``expect`` and ``cdf``: a tabulated ``ExactLaw``, or a Monte Carlo
``SampleSet``, whose samples' empirical law has the same two methods.

The density's confluent factor, log 1F1((I+1)/2; 1/2; t), is the
module's own ``_log_kummer``, a sum of positive terms in numpy, so no
exact metric loads scipy.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legint, legvander

from .geometry import PortGrid, offset_correlation
from .specfun import DomainError, _check_delta, _check_rate, _check_users, exp2

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
_LN_PI = math.log(math.pi)
_LOG_MAX = math.log(np.finfo(float).max)  # e^s overflows from here on


class QuadratureError(ArithmeticError):
    """An exact density's 1F1 series needs more than its term budget, or a tabulated
    law has no finite scale, passes the float range, is not finite or does not
    integrate to one."""


# ---------------------------------------------------------------------------
# channel-parameter bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelStats:
    """Analytic parameters of one user's SIR distribution (unit channel power, delta = 1)."""

    nbar: int
    sigma1_sq: float
    sigma2_sq: float
    interferers: int

    def __post_init__(self):
        if not (self.sigma1_sq > 0.0 and self.sigma2_sq > 0.0):
            raise DomainError("sigma1_sq and sigma2_sq must both be positive")
        if self.nbar < 1 or self.interferers < 1:
            raise DomainError("need nbar >= 1 and at least one interferer")

    @property
    def mu(self) -> float:
        """Mean of the aligned desired sum: nbar E[max(0, X)], X ~ N(0, 1/2)."""
        return 0.5 * self.nbar * math.sqrt(1.0 / math.pi)

    @classmethod
    def from_grid(cls, grid: PortGrid, users: int) -> "ChannelStats":
        _check_users(users)
        sigma1_sq, sigma2_sq = sigma_sums(grid)
        return cls(nbar=grid.total_ports, sigma1_sq=sigma1_sq, sigma2_sq=sigma2_sq, interferers=users - 1)

    def mean_sir(self) -> float:
        """2 E[Y^2] / (sigma2^2 max(I - 2, 1)), the law's scale at delta = 1.

        Above two interferers it is the total raw SIR's mean. At I <= 2 the
        mean is infinite, and I - 2 is replaced by 1: a scale, not a mean.
        """
        m2 = self.mu * self.mu + self.sigma1_sq
        dof = max(self.interferers - 2, 1)
        return 2.0 * m2 / (dof * self.sigma2_sq)

    @functools.cached_property
    def law(self) -> "ExactLaw":
        """Exact law of the raw total SIR at delta = 1, centred at its scale; tabulated on first use, then kept.

        The upper end tracks the z^(-I/2) tail of the survival function.
        ``law.over(delta)`` is the law at residual factor delta.
        """
        hi = min(60.0 / self.interferers + 5.0, 80.0)
        return ExactLaw(lambda z: exact_pdf_z(z, self), self.mean_sir(), -30.0, hi)


# ---------------------------------------------------------------------------
# variance machinery
# ---------------------------------------------------------------------------


def cov_pair(rho):
    """Covariance of the positive parts of two correlated N(0, 1/2) variables.

    Elementwise over an array of correlations. This is the degree-1
    arc-cosine kernel (Cho & Saul 2009), the elementary form of the
    paper's W-function expression at unit power:

        1/(4 pi) * (sqrt(1 - rho^2) + rho (pi/2 + asin rho) - 1)

    It is 1/4 - 1/(4 pi) at rho = 1, -1/(4 pi) at rho = -1 and exactly 0
    at rho = 0.
    """
    rho = np.asarray(rho, dtype=float)
    outside = ~(np.abs(rho) <= 1.0)
    if outside.any():
        raise DomainError(f"correlation must satisfy |rho| <= 1, got {rho[outside].flat[0]}")
    # sqrt(1 - rho^2) - 1 rewritten as -rho^2 / (1 + sqrt(1 - rho^2)) keeps
    # small |rho| free of cancellation; (1 - rho)(1 + rho) does the same
    # next to |rho| = 1
    root = np.sqrt((1.0 - rho) * (1.0 + rho))
    return 1.0 / (4.0 * math.pi) * (rho * (0.5 * math.pi + np.arcsin(rho)) - rho * rho / (1.0 + root))


def sigma_sums(grid: PortGrid) -> tuple[float, float]:
    """(sigma1^2, sigma2^2) over every port of the grid, at unit power.

    sigma2^2 = (N + sum rho) / 4 is the variance of one interferer's
    activated-port sum; sigma1^2 = N/4 (1 - 1/pi) + 2 sum cov is the
    variance of the aligned desired-signal sum. Both sums run over
    unordered port pairs, taken from the offset table: an offset (da, db)
    with da, db >= 1 occurs once per sign of db (same distance, same
    rho, double count); axis offsets occur once.
    """
    n1, n2 = grid.n1, grid.n2
    rho = offset_correlation(grid)  # first: it refuses a table past the memory budget
    counts = np.outer(n1 - np.arange(n1), n2 - np.arange(n2)).astype(float)
    counts[1:, 1:] *= 2.0
    counts[0, 0] = 0.0  # zero offset is the diagonal, not a pair
    sum_rho = float(np.sum(counts * rho))
    sum_cov = float(np.sum(counts * cov_pair(rho)))
    n = grid.total_ports
    sigma2_sq = (n + sum_rho) / 4.0
    sigma1_sq = n / 4.0 * (1.0 - 1.0 / math.pi) + 2.0 * sum_cov
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


def _log_a0(stats: ChannelStats) -> float:
    """log a0, the coefficient of the in-phase density's z -> 0 asymptote a0 z^(-1/2), at delta = 1."""
    i_cnt = stats.interferers
    return (
        -stats.mu**2 / (2.0 * stats.sigma1_sq)
        + 0.5 * math.log(stats.sigma2_sq / stats.sigma1_sq)
        - 0.5 * _LN_PI
        + math.lgamma(0.5 * (i_cnt + 1))
        - math.lgamma(0.5 * i_cnt)
    )


def exact_pdf_zI(z, stats: ChannelStats):
    """Density of Z_I = sigma1^2 / (sigma2^2 I) F'(1, I; mu^2 / sigma1^2), elementwise over z > 0.

    This is the in-phase SIR at delta = 1; at delta it is delta f_I(delta z).
    The paper's Whittaker-M form, reduced to the z -> 0 asymptote times two
    correction factors, with q = sigma2^2 z and
    t = mu^2 q / (2 sigma1^2 (sigma1^2 + q)):

        f_I(z) = a0 z^(-1/2) (1 + q/sigma1^2)^(-(I+1)/2) 1F1((I+1)/2; 1/2; t).

    It is assembled in the log domain (a0 underflows for large arrays, and
    1F1 overflows for large I t), with log 1F1 from ``_log_kummer``. q enters
    only through x = ln(q / sigma1^2), as ln(t / t_max) = -logaddexp(0, -x),
    t_max = mu^2 / (2 sigma1^2), and ln(1 + q/sigma1^2) = logaddexp(0, x):
    neither overflows at either end of the float range, and at the top the
    density is 0.
    """
    z = _positive_finite(z, "exact_pdf_zI")
    i_cnt = stats.interferers
    log_z = np.log(z)
    x = log_z + math.log(stats.sigma2_sq / stats.sigma1_sq)
    # logaddexp(0, +-x) = max(+-x, 0) + ln(1 + e^-|x|), sharing the last term
    shared = np.log1p(np.exp(-np.abs(x)))
    log_kummer = _log_kummer(i_cnt, stats.mu**2 / (2.0 * stats.sigma1_sq), np.minimum(x, 0.0) - shared)
    log_pdf = _log_a0(stats) - 0.5 * log_z - 0.5 * (i_cnt + 1) * (np.maximum(x, 0.0) + shared) + log_kummer
    return np.exp(log_pdf)


# ---------------------------------------------------------------------------
# log 1F1((I+1)/2; 1/2; t) of the in-phase density
# ---------------------------------------------------------------------------

_BAND_SPAN = 600.0  # log 1F1 rises by at most this across a band, so its terms stay in the float range
_TAIL = 50.0  # terms this far below a band's largest, in log, are left out (2^-53 = e^-36.7)
_RUN = 256  # running products renormalised every _RUN terms
_MAX_TERMS = 1 << 16  # series length past which a law is refused, not evaluated


def _running_products(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running products of ``rho`` as mantissas and binary exponents.

    The mantissas are renormalised by powers of two only, so each product
    is rounded as the plain left-to-right product would be, where that one
    would not leave the float range.
    """
    m, e = np.frexp(rho)
    mant = np.empty_like(rho)
    expo = np.cumsum(e)
    carry, shift = 1.0, 0
    for lo in range(0, len(rho), _RUN):
        run = np.cumprod(np.concatenate(([carry], m[lo : lo + _RUN])))[1:]
        mant[lo : lo + _RUN] = run
        expo[lo : lo + _RUN] += shift
        carry, step = math.frexp(run[-1])
        shift += step
    return mant, expo


@functools.lru_cache(maxsize=8)
def _kummer_pieces(i_cnt: int, t_max: float) -> tuple[np.ndarray, tuple]:
    """Piece tops in ln u, ascending, and per piece (ln u_b, k_lo, log scale, coefficients, highest power first).

    1F1(a; 1/2; t_max u) = sum_k d_k u^k over u in (0, 1], a = (I+1)/2, with
    d_k = d_(k-1) (a+k-1) t_max / ((k-1/2) k) and d_0 = 1; every term is
    positive. Where the sum passes e^_BAND_SPAN, ln u is cut into bands that
    each span at most that much of log 1F1, every band but the last above
    it. A band with top u_b holds its terms at v = u / u_b as
    d_k u_b^k / 2^E, E the binary exponent of its bottom level (0 in the
    last band, which reaches u = 0), and only the terms from k_lo to the
    highest that reach e^-_TAIL of its largest. The last band is cut once
    more, each piece below keeping a quarter of the terms of the one above,
    where the terms it drops stay below e^-_TAIL. Everything here depends on
    (I, t_max) alone, never on the arguments evaluated.
    """
    a = 0.5 * (i_cnt + 1)
    n = 64
    while True:
        k = np.arange(1.0, n + 1.0)
        r = (a + k - 1.0) * t_max / ((k - 0.5) * k)
        lam = np.concatenate(([0.0], np.cumsum(np.log(r))))  # ln d_k, to place the cuts
        if lam[-1] < lam.max() - _TAIL and r[-1] < 1.0:
            break
        if n >= _MAX_TERMS:
            raise QuadratureError(
                f"1F1((I+1)/2; 1/2; t) at I = {i_cnt} needs over {_MAX_TERMS} terms up to t = {t_max:.6g}"
            )
        n *= 2
    kk = np.arange(n + 1)
    levels = [float(lam.max())]
    while levels[-1] > _BAND_SPAN:
        levels.append(max(levels[-1] - _BAND_SPAN, _BAND_SPAN))
    # the largest ln u whose largest term is e^level
    tops = [0.0] + [float(np.min((level - lam[1:]) / kk[1:])) for level in levels[1:]]
    edges, pieces = [], []
    for b, top in enumerate(tops):
        g = lam + kk * top
        k_hi = int(np.flatnonzero(g >= g.max() - _TAIL)[-1])
        k_lo, scale = 0, 0
        if b + 1 < len(tops):
            g = lam + kk * tops[b + 1]
            k_lo = int(np.flatnonzero(g >= g.max() - _TAIL)[0])
            scale = math.floor(levels[b + 1] / _LN2)
        mant, expo = _running_products(r[:k_hi] * math.exp(top))
        c = np.ldexp(np.concatenate(([1.0], mant)), np.concatenate(([0], expo)) - scale)
        edges.append(top)
        pieces.append((top, k_lo, scale * _LN2, tuple(c[k_hi : k_lo - 1 if k_lo else None : -1].tolist())))
    # the last band (top, k_hi from the loop's last pass): at ln v below
    # (-_TAIL - ln c_j) / j for every j > m, each term past the m-th is under
    # e^-_TAIL of the first, which is 1
    log_c = lam[1 : k_hi + 1] + kk[1 : k_hi + 1] * top
    m = k_hi
    while m > 0:
        m //= 4
        edge = float(np.min((-_TAIL - log_c[m:]) / kk[m + 1 : k_hi + 1]))
        if edge < 0.0:
            edges.append(top + edge)
            pieces.append((top, 0, 0.0, pieces[-1][3][-(m + 1) :]))
    piece_tops = np.array(edges[::-1])
    piece_tops.flags.writeable = False  # the cache hands the same table to every caller
    return piece_tops, tuple(pieces[::-1])


def _log_kummer(i_cnt: int, t_max: float, log_u):
    """log 1F1((I+1)/2; 1/2; t) at t = t_max e^log_u, elementwise over log_u <= 0.

    The series' terms are all positive, so nothing cancels: each argument's
    piece sums its terms by Horner's rule in v = u / u_b, and adds back the
    band's scale and v^k_lo in the log. An argument's value depends on
    itself and (I, t_max) only.
    """
    log_u = np.asarray(log_u, dtype=float)
    tops, pieces = _kummer_pieces(i_cnt, t_max)
    # piece j holds tops[j-1] < ln u <= tops[j]
    piece = np.minimum(np.searchsorted(tops, log_u), len(tops) - 1)
    out = np.empty_like(log_u)
    for j, (top, k_lo, log_scale, coeffs) in enumerate(pieces):
        on = piece == j
        if on.any():
            log_v = log_u[on] - top
            v = np.exp(log_v)
            h = np.full_like(v, coeffs[0])
            for c in coeffs[1:]:
                h *= v
                h += c
            log_v *= k_lo
            log_v += log_scale
            log_v += np.log(h, out=h)
            out[on] = log_v
    return out


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], n even.

    Four Newton steps on P_n from Tricomi's guesses cos(pi (4k - 1) / (4n + 2)),
    with P_n and P_(n-1) from legvander's recurrence (no LAPACK call, so no
    BLAS thread wakes at import and the rules do not depend on the LAPACK
    build), then w = 2 / ((1 - x^2) P_n'(x)^2). Newton ends in a cycle in the
    last ulp, so the step count fixes the bits. The upper half is solved and
    mirrored: the nodes are exactly antisymmetric, the weights symmetric.
    """

    def p_and_dp(x):
        v = legvander(x, n)
        return v[:, n], n * (v[:, n - 1] - x * v[:, n]) / (1.0 - x * x)

    x = np.cos(math.pi * (4 * np.arange(n // 2, 0, -1) - 1) / (4 * n + 2))
    for _ in range(4):
        p, dp = p_and_dp(x)
        x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * p_and_dp(x)[1] ** 2)
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


# w = 30 (x + 1) maps the rule to [0, 60]
_CONV_X, _CONV_WX = _gauss_legendre(160)
_CONV_SHRINK = np.exp(-30.0 * (_CONV_X + 1.0))  # e^-w at the nodes
_CONV_WEIGHTS = 30.0 * _CONV_WX
# Past w = 53 ln 2 (53 = float64's significand width), x = (z/2) e^-w is below
# half an ulp of z, so z - x is z itself and those nodes share f_I(z). The
# nodes ascend, so they are a suffix; the first of them, w = 37.27 against the
# 36.74 cut, leaves margin for the rounding of x.
_CONV_HEAD = int(np.count_nonzero(30.0 * (_CONV_X + 1.0) <= (np.finfo(float).nmant + 1) * _LN2))
# Below this z the smallest x leaves the normal float range and loses bits; f_Z
# changes by O(z) near 0, so it is evaluated at this z instead.
_CONV_Z_MIN = 2.0 * np.finfo(float).tiny / _CONV_SHRINK[-1]
_CONV_ARGS = 4096  # f_I arguments per block; bounds the temporaries' memory


def exact_pdf_z(z, stats: ChannelStats):
    """Density of the total variable Z = Z_I + Z_Q, elementwise over z > 0.

    The branches are i.i.d., so the convolution folds onto x <= z/2, and
    x = (z/2) e^-w turns it into

        f_Z(z) = 2 int_0^inf (z/2) e^-w f_I((z/2) e^-w) f_I(z - (z/2) e^-w) dw.

    With f_I ~ x^(-1/2) at the origin the integrand is smooth at every
    scale of z and decays like e^(-w/2), so a fixed 160-node
    Gauss-Legendre rule on w in [0, 60] resolves it. f_I is evaluated
    once per distinct argument: at every x, at z - x on the nodes where
    it differs from z, and at z, in one call per block of z values; each
    z's weighted sum is a numpy sum over its own row, whatever the block.
    """
    z = _positive_finite(z, "exact_pdf_z")
    flat = np.maximum(z.reshape(-1), _CONV_Z_MIN)
    out = np.empty_like(flat)
    head = _CONV_HEAD
    step = _CONV_ARGS // (len(_CONV_SHRINK) + head + 1)
    for lo in range(0, len(flat), step):
        zz = flat[lo : lo + step, None]
        x = 0.5 * zz * _CONV_SHRINK
        f = exact_pdf_zI(np.concatenate((x, zz - x[:, :head], zz), axis=1), stats)
        vals = x * f[:, : x.shape[1]]
        vals[:, :head] *= f[:, x.shape[1] : -1]
        vals[:, head:] *= f[:, -1:]
        vals *= _CONV_WEIGHTS
        out[lo : lo + len(zz)] = 2.0 * vals.sum(axis=1)
    return out.reshape(z.shape)[()]


# ---------------------------------------------------------------------------
# tabulated exact law
# ---------------------------------------------------------------------------

_PANEL = 0.5  # panel width in ln z
_ORDER = 12  # Gauss-Legendre nodes per panel
_GL_X, _GL_W = _gauss_legendre(_ORDER)
# node values -> Legendre coefficients of the interpolant's antiderivative
# from the panel's left end, in the panel coordinate x in [-1, 1]
_ANTIDERIV = legint((np.arange(_ORDER) + 0.5)[:, None] * legvander(_GL_X, _ORDER - 1).T * _GL_W, lbnd=-1)
_MASS_TOL = 1e-8


class ExactLaw:
    """A distribution on (0, inf) tabulated once on Gauss-Legendre panels in ln z.

    Panels of width 0.5 in s = ln z hold 12 nodes each, and the table
    stores z f(z), the density in s. Expectations are weighted sums over
    all nodes; the CDF adds the whole panels below z to the integral of
    z's panel's interpolant up to z, a Legendre series whose 13
    coefficients per panel are summed once, at tabulation.
    Every reduction is a numpy sum over a fixed axis, so a z's CDF has
    the same bits in a scalar call and in any array.
    """

    def __init__(self, pdf, scale: float, lo: float, hi: float):
        """Tabulate ``pdf`` (vectorised over z) for ln(z / scale) in [lo, hi]."""
        if not 0.0 < scale < math.inf:
            raise QuadratureError(f"law scale {scale} is not positive and finite")
        self._panel = _PANEL  # cdf reads the width the table was built with
        panels = math.ceil((hi - lo) / self._panel)
        self._s0 = math.log(scale) + lo
        s = self._s0 + self._panel * (np.arange(panels)[:, None] + 0.5 * (_GL_X + 1.0))
        if s.max() >= _LOG_MAX:
            raise QuadratureError(
                f"law on ln(z / {scale:g}) in [{lo:g}, {hi:g}] has nodes up to z = e^{s.max():.1f}, "
                f"past the float range"
            )
        self._z = np.exp(s)
        self._g = self._z * pdf(self._z)
        self._mass = 0.5 * self._panel * _GL_W * self._g
        self._cum = np.concatenate(([0.0], np.cumsum(self._mass.sum(axis=1))))
        self._antideriv = 0.5 * self._panel * np.sum(_ANTIDERIV * self._g[:, None, :], axis=2)
        total = self._cum[-1]
        if not (np.isfinite(self._g).all() and abs(total - 1.0) <= _MASS_TOL):
            raise QuadratureError(
                f"tabulated law has mass {total} (tolerance {_MASS_TOL}) on ln(z / {scale:g}) in [{lo:g}, {hi:g}]"
            )

    def over(self, delta: float) -> "ExactLaw":
        """The law of Z / delta: a view sharing this table's masses, its nodes divided by ``delta``.

        cdf(z) reads the table at delta z. The float range is checked in ln z, before the division.
        """
        _check_delta("delta", delta)
        top = math.log(self._z[-1, -1]) - math.log(delta)
        if top >= _LOG_MAX:
            raise QuadratureError(f"law over delta = {delta:g} has nodes up to z = e^{top:.1f}, past the float range")
        view = copy.copy(self)
        view._s0 = self._s0 - math.log(delta)
        view._z = self._z / delta
        return view

    def expect(self, phi) -> float:
        """E[phi(Z)] for ``phi`` vectorised over z."""
        return float(np.sum(self._mass * phi(self._z)))

    def cdf(self, z):
        """Pr{Z <= z}, elementwise; 0 at and below the table's left edge, 1 at and above its right, NaN for NaN."""
        z = np.asarray(z, dtype=float)
        flat = z.reshape(-1)
        pos = flat > 0.0
        s = (np.log(np.where(pos, flat, 1.0)) - self._s0) / self._panel
        panel = np.clip(np.floor(s), 0, len(self._g) - 1).astype(int)
        x = np.clip(2.0 * (s - panel) - 1.0, -1.0, 1.0)
        part = np.sum(legvander(x, _ORDER) * self._antideriv[panel], axis=1)
        # the table holds no mass past its edges, where the clipped
        # antiderivative would still read a rounding residue of 0 or 1
        out = np.select(
            [np.isnan(flat), ~pos | (s <= 0.0), s >= len(self._g)],
            [np.nan, 0.0, 1.0],
            np.clip(self._cum[panel] + part, 0.0, 1.0),
        )
        return out.reshape(z.shape)[()]


# ---------------------------------------------------------------------------
# exact metrics
# ---------------------------------------------------------------------------


def _rate(z):
    """log2(1 + z), elementwise, through log1p: exact to the last bits at small z, where 1 + z rounds."""
    return np.log1p(z) / _LN2


def exact_er(users: int, law: ExactLaw) -> float:
    """Ergodic sum rate U * E[log2(1 + Z)] of the raw SIR, bits per channel use."""
    _check_users(users)
    return users * law.expect(_rate)


def exact_op(gamma_th: float, law: ExactLaw) -> float:
    """Outage probability: the raw-SIR CDF at 2^gamma_th - 1."""
    _check_rate("gamma_th", gamma_th)
    return float(law.cdf(exp2(gamma_th) - 1.0))


def _secrecy_expect(law_b: ExactLaw, law_e: ExactLaw, rs: float, shift: float) -> float:
    """E_E[F_B(tau (shift + Z_E) - shift)], tau = 2^rs, clamped to [0, 1]."""
    _check_rate("secrecy rate", rs)
    tau = exp2(rs)
    # a finite tau times the law's upper nodes may overflow to inf, where F_B is 1
    with np.errstate(over="ignore"):
        val = law_e.expect(lambda z: law_b.cdf(tau * (shift + z) - shift))
    return min(max(val, 0.0), 1.0)


def exact_sop(law_b: ExactLaw, law_e: ExactLaw, rs: float) -> float:
    """Secrecy outage probability E_E[F_B(tau (1 + Z_E) - 1)], tau = 2^rs, raw-SIR variables."""
    return _secrecy_expect(law_b, law_e, rs, 1.0)


def sop_lower_numeric(law_b: ExactLaw, law_e: ExactLaw, rs: float) -> float:
    """Lower bound Pr{Z_B < tau Z_E} = E_E[F_B(tau Z_E)], raw-SIR variables."""
    return _secrecy_expect(law_b, law_e, rs, 0.0)
