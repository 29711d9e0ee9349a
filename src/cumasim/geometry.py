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


# Memory budget of one grid's arrays. At its peak correlation_matrix holds
# about five N x N float64 arrays: the gather, eigh's copy of it, the
# eigenvectors and the 2 N^2 divide-and-conquer workspace. Peak RSS above
# the interpreter measured 5.1 x 8 N^2 bytes on 26GHz-C (N = 1834) and 5.0 x
# on 26GHz-VC (N = 3654). The budget admits every preset (40GHz-VC,
# N = 8822, needs about 2.9 GiB). The offset table, with the pair sums of
# analytic.sigma_sums over it, peaks at about seven (n1, n2) arrays: peak RSS
# above the imported package measured 6.1 x 8 n1 n2 bytes on the ports axis
# at 1e5 and 3e5 rows.
_DENSE_ARRAYS = 5
_TABLE_ARRAYS = 7
_FACTOR_BUDGET_BYTES = 4 << 30


def _factor_bytes(grid: PortGrid) -> int:
    """Estimated peak bytes of `correlation_matrix` on `grid`."""
    return _DENSE_ARRAYS * 8 * grid.total_ports**2


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

    ``factor`` has shape (N, r): the eigenvectors of the eigenpairs above
    1e-12 of the largest eigenvalue, scaled by the square roots of those
    eigenvalues. ``factor @ factor.T`` reproduces ``correlation_entries``
    up to the discarded eigenvalues, and ``factor @ z`` for r standard
    normals z is one correlated Gaussian draw. The rank follows the
    aperture in wavelengths rather than the port count.
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


def correlation_matrix(grid: PortGrid) -> CorrelationMatrix:
    """Assemble the correlation matrix and its rank-truncated eigen factor.

    The sinc kernel on a finite grid is PSD in exact arithmetic but can
    go slightly indefinite in floating point at sub-wavelength spacing.
    An eigenvalue below -_PSD_TOL is treated as a real failure; the
    factor keeps only the eigenpairs above _RANK_CUT times the largest
    eigenvalue, which also drops the tiny negative ones. A grid whose
    estimated peak memory passes _FACTOR_BUDGET_BYTES is refused before
    any array is built.
    """
    _check_budget(grid, "the dense correlation factor", _factor_bytes(grid))
    eigvals, eigvecs = np.linalg.eigh(correlation_entries(grid))
    if eigvals.min() < -_PSD_TOL:
        raise DomainError(
            f"correlation matrix not positive semidefinite beyond tolerance: "
            f"min eigenvalue {eigvals.min():.3e} < -{_PSD_TOL:.1e}"
        )
    keep = eigvals > _RANK_CUT * eigvals[-1]
    factor = np.ascontiguousarray(eigvecs[:, keep] * np.sqrt(eigvals[keep]))
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
