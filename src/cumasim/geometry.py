"""Port grids, spatial correlation and Table-style named presets.

Ports live on an N1 x N2 rectangular grid inside a fixed physical
aperture, ordered with dimension 1 fastest. The correlation between two
ports follows the isotropic scattering kernel j0(2*pi*d) with d the
separation in wavelengths; it depends on the port offset only, so one
(N1, N2) table of offsets feeds the N x N matrix and the pair sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError

__all__ = [
    "SPEED_OF_LIGHT",
    "HANDSET_APERTURE_M",
    "PortGrid",
    "CorrelationMatrix",
    "grid_from_aperture",
    "offset_correlation",
    "correlation_entries",
    "correlation_matrix",
    "Preset",
    "PRESETS",
    "preset_grid",
    "preset_names",
]

SPEED_OF_LIGHT = 299792458.0

# 15 cm x 8 cm, a typical phone-sized surface
HANDSET_APERTURE_M = (0.15, 0.08)
# Port pitch of dimension 2, in wavelengths: half a wavelength in every layout.
_SPACING2 = 0.5


@dataclass(frozen=True)
class PortGrid:
    """Rectangular port layout: counts per dimension and aperture in wavelengths."""

    n1: int
    n2: int
    w1: float
    w2: float

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise DomainError(f"port counts must be >= 2, got {self.n1} x {self.n2}")
        for w in (self.w1, self.w2):
            if not (math.isfinite(w) and w > 0.0):
                raise DomainError(f"aperture must be positive and finite, got {w}")

    @property
    def total_ports(self) -> int:
        return self.n1 * self.n2

    @property
    def spacings(self) -> tuple[float, float]:
        """Realized inter-port spacing per dimension, in wavelengths."""
        return self.w1 / (self.n1 - 1), self.w2 / (self.n2 - 1)


def grid_from_aperture(width_m: float, height_m: float, freq_hz: float, spacing1: float) -> PortGrid:
    """Build a grid from a physical aperture, carrier frequency and dimension-1 spacing.

    The aperture is converted to wavelengths (w = size * f / c) and each
    dimension gets floor(w / spacing) + 1 ports, dimension 2 at the
    half-wavelength pitch _SPACING2. Configurations that do not fit at
    least two ports per dimension are rejected.
    """
    vals = (width_m, height_m, freq_hz, spacing1)
    if not all(math.isfinite(v) and v > 0.0 for v in vals):
        raise DomainError(f"all grid parameters must be positive and finite, got {vals}")
    w1 = width_m * freq_hz / SPEED_OF_LIGHT
    w2 = height_m * freq_hz / SPEED_OF_LIGHT
    if spacing1 > w1 or _SPACING2 > w2:
        raise DomainError("port spacing exceeds the aperture; grid would degenerate")
    n1 = int(math.floor(w1 / spacing1)) + 1
    n2 = int(math.floor(w2 / _SPACING2)) + 1
    if n1 < 2 or n2 < 2:
        raise DomainError(f"aperture too small for spacing: would give {n1} x {n2} ports")
    return PortGrid(n1=n1, n2=n2, w1=w1, w2=w2)


# Memory budget of one grid's arrays. correlation_matrix eigendecomposes the
# four reflection-parity blocks of C one at a time. The largest block, even
# in both dimensions, has h = ceil(n1/2) ceil(n2/2) rows, and its eigh holds
# about five h x h float64 arrays: the gather, eigh's working copy, the
# eigenvectors and the 2 h^2 divide-and-conquer workspace. The N x r factor
# is written after the last eigh; its rank r is not known before, so the
# estimate takes r = N, which also covers the kept block eigenvectors
# (at most N^2 / 4 entries) held while it is written. Peak RSS above the
# imported package measured 0.38 of the estimate on 26GHz-C (N = 1834,
# r = 515) and 0.28 on 26GHz-VC (N = 3654, r = 515). The budget admits every
# preset (40GHz-VC, N = 8822, needs about 0.76 GiB) and the ports axis up to
# 330 rows. The offset table, with the pair sums of analytic.sigma_sums over
# it, peaks at about seven (n1, n2) arrays: peak RSS above the imported
# package measured 6.1 x 8 n1 n2 bytes on the ports axis at 1e5 and 3e5 rows.
_BLOCK_ARRAYS = 5
_TABLE_ARRAYS = 7
_FACTOR_BUDGET_BYTES = 4 << 30


def _half(n: int, parity: int) -> int:
    """Size of one dimension's half-index set of reflection parity +1 or -1."""
    return (n + 1) // 2 if parity > 0 else n // 2


def _factor_bytes(grid: PortGrid) -> int:
    """Estimated peak bytes of `correlation_matrix` on `grid`."""
    h = _half(grid.n1, 1) * _half(grid.n2, 1)
    return 8 * (_BLOCK_ARRAYS * h * h + grid.total_ports**2)


def _check_budget(grid: PortGrid, what: str, need: int) -> None:
    """Refuse, before any array is built, a grid whose `what` needs more than the budget."""
    if need > _FACTOR_BUDGET_BYTES:
        raise DomainError(
            f"{grid.n1} x {grid.n2} ports: {what} needs about "
            f"{need / 2**30:.3g} GiB, past the {_FACTOR_BUDGET_BYTES / 2**30:.3g} GiB budget"
        )


def offset_correlation(grid: PortGrid) -> np.ndarray:
    """Correlation j0(2*pi*d) of every port offset, as an (n1, n2) table.

    Entry [da, db] is the correlation between two ports da steps apart
    along dimension 1 and db steps apart along dimension 2. The kernel
    depends on the offset only, so this table holds every distinct
    correlation of the grid. A grid whose table, with the pair sums over
    it, would pass _FACTOR_BUDGET_BYTES is refused before any array is
    built.
    """
    _check_budget(grid, "the port-offset table", _TABLE_ARRAYS * 8 * grid.total_ports)
    s1, s2 = grid.spacings
    da = np.arange(grid.n1)[:, None]
    db = np.arange(grid.n2)[None, :]
    return np.sinc(2.0 * np.hypot(da * s1, db * s2))


def correlation_entries(grid: PortGrid) -> np.ndarray:
    """Full N x N correlation coefficient matrix (no PSD repair).

    Gathered from the offset table: block-Toeplitz with Toeplitz blocks
    in the dimension-1-fastest port order.
    """
    rho = offset_correlation(grid)
    i = np.arange(grid.n1)
    j = np.arange(grid.n2)
    a = np.abs(i[:, None] - i[None, :])
    b = np.abs(j[:, None] - j[None, :])
    n = grid.total_ports
    # axes (j, i, j', i') flatten to (port i + n1 j, port i' + n1 j')
    return rho[a[None, :, None, :], b[:, None, :, None]].reshape(n, n)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Rank-truncated factor of the port correlation matrix, for sampling.

    ``factor`` has shape (N, r). Each column is an eigenvector of the
    correlation matrix C that is even or odd under each grid reflection,
    scaled by the square root of its eigenvalue; the columns keep the
    eigenpairs above 1e-12 of the largest eigenvalue, in ascending
    eigenvalue order. ``factor @ factor.T`` reproduces
    ``correlation_entries`` up to the discarded eigenvalues, and
    ``factor @ z`` for r standard normals z is one correlated Gaussian
    draw. The rank follows the aperture in wavelengths rather than the
    port count.
    """

    factor: np.ndarray

    def __post_init__(self):
        self.factor.setflags(write=False)

    @property
    def dim(self) -> int:
        """Port count N."""
        return self.factor.shape[0]


_RANK_CUT = 1e-12  # eigenvalues at or below this fraction of the largest are dropped
_PSD_TOL = 1e-8  # an eigenvalue below -_PSD_TOL is a real failure, not rounding
_PARITIES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _fold(n: int, parity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets |k - l|, reflected offsets n-1-k-l and basis scales over one half-index set.

    Half-index k stands for the unit vector (e_k + parity e_(n-1-k)) / sqrt 2,
    except the centre of an odd dimension's even part, which is e_k alone:
    the folded sum counts that port twice, so its row and column are scaled
    by 1/sqrt 2.
    """
    k = np.arange(_half(n, parity))
    scale = np.ones(k.size)
    if parity > 0 and n % 2:
        scale[-1] = math.sqrt(0.5)
    return np.abs(k[:, None] - k), n - 1 - k[:, None] - k, np.outer(scale, scale)


def _parity_block(rho: np.ndarray, grid: PortGrid, s1: int, s2: int) -> np.ndarray:
    """The block of C on the ports of reflection parities (s1, s2), gathered from the offset table.

    Entry ((k, l), (k', l')), dimension 1 fastest, is rho(a1, a2) + s1 rho(a1', a2)
    + s2 rho(a1, a2') + s1 s2 rho(a1', a2'), with a = |k - k'| and a' = n-1-k-k'
    in each dimension.
    """
    a1, r1, c1 = _fold(grid.n1, s1)
    a2, r2, c2 = _fold(grid.n2, s2)
    # fold dimension 1 on the small (h1, h1, n2) table, then gather dimension 2
    t = (rho[a1] + s1 * rho[r1]) * c1[:, :, None]
    k = np.arange(len(a1))
    rows, cols = k[None, :, None, None], k[None, None, None, :]
    # axes (l, k, l', k') flatten to (k + h1 l, k' + h1 l')
    block = t[rows, cols, a2[:, None, :, None]]
    block += s2 * t[rows, cols, r2[:, None, :, None]]
    block *= c2[:, None, :, None]
    h = block.shape[0] * block.shape[1]
    return block.reshape(h, h)


def _block_eigh(rho: np.ndarray, grid: PortGrid, s1: int, s2: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of one parity block and the eigenvectors above the rank cut of its own largest."""
    eigvals, eigvecs = np.linalg.eigh(_parity_block(rho, grid, s1, s2))
    keep = eigvals > _RANK_CUT * eigvals[-1]
    return eigvals, eigvecs[:, keep]


def _mirror(n: int, parity: int) -> list[tuple[slice, slice, float]]:
    """(port slice, half-index slice, coefficient) pieces that unfold one dimension.

    Half-index k goes to port k and, times parity, to port n-1-k, each over
    sqrt 2; an odd dimension's centre port takes its even coefficient as is.
    """
    m = n // 2
    half = slice(0, m)
    pieces = [(half, half, math.sqrt(0.5)), (slice(n - 1, n - m - 1, -1), half, parity * math.sqrt(0.5))]
    if parity > 0 and n % 2:
        pieces.append((slice(m, m + 1), slice(m, m + 1), 1.0))
    return pieces


def correlation_matrix(grid: PortGrid) -> CorrelationMatrix:
    """The rank-truncated eigen factor of the port correlation matrix.

    C is unchanged by reflecting either grid dimension, so it splits into
    four blocks, one per pair of reflection parities, of about N/4 ports
    each. Each block is gathered from the offset table and diagonalised on
    its own; the N x N matrix is never formed. The sinc kernel on a finite
    grid is PSD in exact arithmetic but can go slightly indefinite in
    floating point at sub-wavelength spacing. An eigenvalue below
    -_PSD_TOL in any block is treated as a real failure; the factor keeps
    only the eigenpairs above _RANK_CUT times the largest eigenvalue of all
    blocks, which also drops the tiny negative ones. A grid whose estimated
    peak memory passes _FACTOR_BUDGET_BYTES is refused before any array is
    built.
    """
    _check_budget(grid, "the correlation factor", _factor_bytes(grid))
    rho = offset_correlation(grid)
    blocks = [_block_eigh(rho, grid, s1, s2) for s1, s2 in _PARITIES]
    lowest = min(eigvals[0] for eigvals, _ in blocks)
    if lowest < -_PSD_TOL:
        raise DomainError(
            f"correlation matrix not positive semidefinite beyond tolerance: "
            f"min eigenvalue {lowest:.3e} < -{_PSD_TOL:.1e}"
        )
    cut = _RANK_CUT * max(eigvals[-1] for eigvals, _ in blocks)
    # the global cut keeps a suffix of each block's ascending, locally cut pairs
    lams = [eigvals[eigvals > cut] for eigvals, _ in blocks]
    vecs = [eigvecs[:, eigvecs.shape[1] - len(lam) :] for (_, eigvecs), lam in zip(blocks, lams)]
    # each eigenpair's column in ascending eigenvalue order, as eigh of C orders them
    column = np.argsort(np.concatenate(lams), kind="stable").argsort()
    block_columns = np.split(column, np.cumsum([len(lam) for lam in lams])[:-1])
    factor = np.zeros((grid.total_ports, len(column)))
    ports = factor.reshape(grid.n2, grid.n1, -1)
    for (s1, s2), lam, vec, cols in zip(_PARITIES, lams, vecs, block_columns):
        w = (vec * np.sqrt(lam)).reshape(_half(grid.n2, s2), _half(grid.n1, s1), -1)
        for p2, k2, f2 in _mirror(grid.n2, s2):
            for p1, k1, f1 in _mirror(grid.n1, s1):
                ports[p2, p1, cols] = (f1 * f2) * w[k2, k1]
    return CorrelationMatrix(factor=factor)


@dataclass(frozen=True)
class Preset:
    """Carrier frequency and dimension-1 port spacing (wavelengths) of a named layout."""

    freq_hz: float
    spacing1: float


# Named compactness cases on the handset aperture. Dimension 2 keeps the
# half-wavelength spacing in every case; only dimension 1 is densified.
PRESETS: dict[str, Preset] = {
    "6GHz-NC": Preset(6e9, 0.5),
    "6GHz-C": Preset(6e9, 0.1),
    "6GHz-VC": Preset(6e9, 0.05),
    "26GHz-NC": Preset(26e9, 0.5),
    "26GHz-C": Preset(26e9, 0.1),
    "26GHz-VC": Preset(26e9, 0.05),
    "40GHz-NC": Preset(40e9, 0.5),
    "40GHz-C": Preset(40e9, 0.1),
    "40GHz-VC": Preset(40e9, 0.05),
}


def preset_names() -> list[str]:
    return list(PRESETS)


def preset_grid(name: str) -> PortGrid:
    """Grid for a named preset on the handset aperture."""
    try:
        p = PRESETS[name]
    except KeyError:
        raise DomainError(f"unknown preset {name!r}; known: {', '.join(PRESETS)}") from None
    return grid_from_aperture(*HANDSET_APERTURE_M, p.freq_hz, p.spacing1)
