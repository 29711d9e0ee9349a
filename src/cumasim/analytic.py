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

The average channel power Omega is fixed at 1. It scales mu^2, sigma1^2
and sigma2^2 alike, so it cancels from every SIR statistic and is no
input anywhere in the package.

Every exact metric is a one-dimensional sum over one or two tabulated
laws (``ExactLaw``) of the raw SIR, so rates and thresholds are read in
the same units as the simulator's samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legint, legvander
from scipy.special import hyp1f1

from .geometry import PortGrid, offset_correlation
from .specfun import DomainError, _check_delta, _check_rate, exp2

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
    """An exact density's 1F1 overflows, or a tabulated law has no finite scale,
    passes the float range, is not finite or does not integrate to one."""


# ---------------------------------------------------------------------------
# channel-parameter bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelStats:
    """Analytic parameters of one user's SIR distribution (unit channel power)."""

    nbar: int
    sigma1_sq: float
    sigma2_sq: float
    interferers: int
    delta: float

    def __post_init__(self):
        if not (self.sigma1_sq > 0.0 and self.sigma2_sq > 0.0):
            raise DomainError("sigma1_sq and sigma2_sq must both be positive")
        if self.nbar < 1 or self.interferers < 1:
            raise DomainError("need nbar >= 1 and at least one interferer")
        _check_delta("delta", self.delta)

    @property
    def mu(self) -> float:
        """Mean of the aligned desired sum: nbar E[max(0, X)], X ~ N(0, 1/2)."""
        return 0.5 * self.nbar * math.sqrt(1.0 / math.pi)

    @classmethod
    def from_grid(cls, grid: PortGrid, users: int, delta: float = 1.0) -> "ChannelStats":
        if users < 2:
            raise DomainError(f"need at least 2 users, got {users}")
        sigma1_sq, sigma2_sq = sigma_sums(grid)
        return cls(
            nbar=grid.total_ports,
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

    @functools.cached_property
    def law(self) -> "ExactLaw":
        """Exact law of the raw total SIR, centred at its mean; tabulated on first use, then kept.

        The upper end tracks the z^(-I/2) tail of the survival function.
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
    """log a0, the coefficient of the in-phase density's z -> 0 asymptote a0 z^(-1/2)."""
    i_cnt = stats.interferers
    return (
        -stats.mu**2 / (2.0 * stats.sigma1_sq)
        + 0.5 * math.log(stats.delta * stats.sigma2_sq / stats.sigma1_sq)
        - 0.5 * _LN_PI
        + math.lgamma(0.5 * (i_cnt + 1))
        - math.lgamma(0.5 * i_cnt)
    )


def exact_pdf_zI(z, stats: ChannelStats):
    """Density of Z_I = sigma1^2 / (delta sigma2^2 I) F'(1, I; mu^2 / sigma1^2), elementwise over z > 0.

    The paper's Whittaker-M form, reduced to the z -> 0 asymptote times two
    correction factors, with q = delta sigma2^2 z and
    t = mu^2 q / (2 sigma1^2 (sigma1^2 + q)):

        f_I(z) = a0 z^(-1/2) (1 + q/sigma1^2)^(-(I+1)/2) 1F1((I+1)/2; 1/2; t).

    It is assembled in the log domain (a0 underflows for large arrays), and
    log 1F1 = t + log 1F1(-I/2, 1/2; -t) by Kummer's transformation, finite
    where 1F1 itself overflows. Past a t that falls with I the transformed
    1F1 overflows too, and QuadratureError is raised.
    """
    z = _positive_finite(z, "exact_pdf_zI")
    i_cnt = stats.interferers
    s1 = stats.sigma1_sq
    q = stats.delta * stats.sigma2_sq * z
    t = stats.mu**2 * q / (2.0 * s1 * (s1 + q))
    kummer = hyp1f1(-0.5 * i_cnt, 0.5, -t)
    bad = ~np.isfinite(kummer)
    if bad.any():
        raise QuadratureError(f"1F1(-I/2, 1/2, -t) at I = {i_cnt} is not finite from t = {np.min(t[bad]):.6g}")
    log_pdf = _log_a0(stats) - 0.5 * np.log(z) - 0.5 * (i_cnt + 1) * np.log1p(q / s1) + t + np.log(kummer)
    return np.exp(log_pdf)


# The module's two Gauss-Legendre rules on [-1, 1], 160 nodes for the
# convolution below and 12 per panel for ExactLaw, are numpy 2.4.6's
# leggauss(n), held as fixed values: leggauss solves a LAPACK eigenproblem,
# which would wake the BLAS thread pool at import, add about 1 MB of peak RSS
# and tie every exact table to the LAPACK build. Each rule is stored as its
# upper half (nodes ascending); leggauss returns the nodes exactly
# antisymmetric and the weights exactly symmetric, so mirroring the half
# gives back every bit.


def _gauss_legendre(x_upper: np.ndarray, w_upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and their weights of an even-order rule, from its upper half."""
    return np.concatenate((-x_upper[::-1], x_upper)), np.concatenate((w_upper[::-1], w_upper))


_CONV_X_UPPER = np.array([
    0.009786689277549034, 0.029356318347777372, 0.04891470039990244, 0.06845434220965804,
    0.0879677577325559, 0.1074474709719456, 0.12688601884322478, 0.1462759540331028,
    0.16560984785282168, 0.18488029308424186, 0.2040799068177022, 0.22320133328056646,
    0.24223724665537366, 0.26118035388651134, 0.2800233974743376, 0.2987591582556804,
    0.3173804581696501, 0.33588016300770407, 0.3542511851469109, 0.3724864862653668,
    0.3905790800387236, 0.40852203481679566, 0.4263084762792193, 0.44393159006914895,
    0.4613846244039793, 0.4786608926620941, 0.4957537759446509, 0.5126567256114192,
    0.529363265789701, 0.545866995855374, 0.5621615928851031, 0.5782408140787856,
    0.5940984991512975, 0.6097285726926287, 0.6251250464954985, 0.6402820218495642,
    0.6551936918013398, 0.6698543433789621, 0.6842583597809498, 0.6984002225281183,
    0.7122745135778249, 0.7258759173997351, 0.7391992230123146, 0.7522393259792663,
    0.7649912303651483, 0.7774500506494229, 0.7896110135982043, 0.801469460092987,
    0.8130208469156556, 0.8242607484890903, 0.8351848585727043, 0.8457889919122618,
    0.8560690858433447, 0.8660212018478562, 0.8756415270629638, 0.884926375741905,
    0.8938721906660994, 0.9024755445080243, 0.9107331411443395, 0.9186418169187573,
    0.9261985418541848, 0.9334004208136781, 0.9402446946097828, 0.946728741061852,
    0.952850076000975, 0.9586063542221832, 0.9639953703836628, 0.9690150598527875,
    0.9736634994989339, 0.9779389084333059, 0.9818396486965263, 0.9853642258958903,
    0.9885112897968072, 0.9912796348796464, 0.9936682008920968, 0.9956760734880251,
    0.9973024852772795, 0.9985468187515167, 0.9994086206413058, 0.9998877522721632,
])
_CONV_W_UPPER = np.array([
    0.01957275361700998, 0.019565254886697334, 0.01955026029899216, 0.0195277755986339,
    0.01949780939998049, 0.01946037318370803, 0.019415481292412166, 0.019363150925113363,
    0.019303402130667408, 0.019236257800084294, 0.019161743657758433, 0.019079888251612713,
    0.018990722942161548, 0.01889428189049582, 0.018790602045195066, 0.018679723128171892,
    0.018561687619453447, 0.018436540740906383, 0.018304330438911862, 0.01816510736599588,
    0.018018924861423303, 0.017865838930762663, 0.01770590822442915, 0.01753919401521433,
    0.017365760174811368, 0.017185673149344778, 0.016999001933912718, 0.016805818046154396,
    0.01660619549884992, 0.016400210771563974, 0.01618794278134584, 0.015969472852493883,
    0.015744884685399158, 0.01551426432447733, 0.015277700125204406, 0.01503528272026457,
    0.01478710498482814, 0.014533262000968971, 0.014273851021236177, 0.014008971431395487,
    0.013738724712351626, 0.013463214401270318, 0.01318254605191028, 0.012896827194183405,
    0.01260616729295983, 0.01231067770612786, 0.012010471641932191, 0.011705664115602397,
    0.011396371905287543, 0.011082713507318511, 0.01076480909081059, 0.010442780451624606,
    0.010116750965707692, 0.009786845541828414, 0.009453190573723003, 0.009115913891679943,
    0.008775144713568259, 0.008431013595342733, 0.008083652381036161, 0.0077331941522669435,
    0.0073797731772735934, 0.007023524859513954, 0.006664585685837299, 0.006303093174277863,
    0.0059391858214858555, 0.0055730030498608914, 0.005204685154446979, 0.00483437324970281,
    0.004462209216335371, 0.0040883356485682445, 0.003712895802586596, 0.0033360335478206924,
    0.0029578933250383405, 0.0025786201218385967, 0.002198359496795865, 0.0018172577596658945,
    0.0014354627534841433, 0.0010531276722110425, 0.0006704383201556631, 0.00028805852852534377,
])
# w = 30 (x + 1) maps the rule to [0, 60]
_CONV_X, _CONV_WX = _gauss_legendre(_CONV_X_UPPER, _CONV_W_UPPER)
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
        f = exact_pdf_zI(np.concatenate((x.ravel(), (zz - x[:, :head]).ravel(), zz.ravel())), stats)
        first, second, at_z = np.split(f, np.cumsum((x.size, zz.size * head)))
        vals = x * first.reshape(x.shape)
        vals[:, :head] *= second.reshape(-1, head)
        vals[:, head:] *= at_z[:, None]
        vals *= _CONV_WEIGHTS
        out[lo : lo + len(zz)] = 2.0 * vals.sum(axis=1)
    return out.reshape(z.shape)[()]


# ---------------------------------------------------------------------------
# tabulated exact law
# ---------------------------------------------------------------------------

_PANEL = 0.5  # panel width in ln z
_ORDER = 12  # Gauss-Legendre nodes per panel
_GL_X_UPPER = np.array([
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175, 0.7699026741943047,
    0.9041172563704748, 0.9815606342467192,
])
_GL_W_UPPER = np.array([
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573, 0.16007832854334642,
    0.10693932599531907, 0.04717533638651141,
])
_GL_X, _GL_W = _gauss_legendre(_GL_X_UPPER, _GL_W_UPPER)
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

    def expect(self, phi) -> float:
        """E[phi(Z)] for ``phi`` vectorised over z."""
        return float(np.sum(self._mass * phi(self._z)))

    def cdf(self, z):
        """Pr{Z <= z}, elementwise; 0 for z <= 0, NaN for NaN, clipped to [0, 1]."""
        z = np.asarray(z, dtype=float)
        flat = z.reshape(-1)
        pos = flat > 0.0
        s = (np.log(np.where(pos, flat, 1.0)) - self._s0) / self._panel
        panel = np.clip(np.floor(s), 0, len(self._g) - 1).astype(int)
        x = np.clip(2.0 * (s - panel) - 1.0, -1.0, 1.0)
        part = np.sum(legvander(x, _ORDER) * self._antideriv[panel], axis=1)
        out = np.where(pos, np.clip(self._cum[panel] + part, 0.0, 1.0), np.where(np.isnan(flat), np.nan, 0.0))
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
    """Secrecy outage probability E_E[F_B(tau (1 + Z_E) - 1)], tau = 2^rs.

    Both rate variables are raw SIRs, matching the rate convention of the
    ergodic-rate and outage metrics (and of the simulator).
    """
    return _secrecy_expect(law_b, law_e, rs, 1.0)


def sop_lower_numeric(law_b: ExactLaw, law_e: ExactLaw, rs: float) -> float:
    """Lower bound Pr{Z_B < tau Z_E} = E_E[F_B(tau Z_E)], raw-SIR variables."""
    return _secrecy_expect(law_b, law_e, rs, 0.0)
