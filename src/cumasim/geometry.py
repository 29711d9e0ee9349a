"""Port grids, spatial correlation and Table-style named presets.

Ports live on an N1 x N2 rectangular grid inside a fixed physical
aperture. Linear port indices are 1-based and column-major along
dimension 1; the correlation between two ports follows the isotropic
scattering kernel j0(2*pi*d) with d the separation in wavelengths.
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
    "port_index_to_coords",
    "correlation",
    "correlation_matrix",
    "PRESETS",
    "preset_grid",
    "preset_names",
]

SPEED_OF_LIGHT = 299792458.0

# 15 cm x 8 cm, a typical phone-sized surface
HANDSET_APERTURE_M = (0.15, 0.08)


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


def grid_from_aperture(
    width_m: float,
    height_m: float,
    freq_hz: float,
    spacing1: float,
    spacing2: float,
) -> PortGrid:
    """Build a grid from a physical aperture, carrier frequency and target spacings.

    The aperture is converted to wavelengths (w = size * f / c) and each
    dimension gets floor(w / spacing) + 1 ports. Configurations that do
    not fit at least two ports per dimension are rejected.
    """
    vals = (width_m, height_m, freq_hz, spacing1, spacing2)
    if not all(math.isfinite(v) and v > 0.0 for v in vals):
        raise DomainError(f"all grid parameters must be positive and finite, got {vals}")
    w1 = width_m * freq_hz / SPEED_OF_LIGHT
    w2 = height_m * freq_hz / SPEED_OF_LIGHT
    if spacing1 > w1 or spacing2 > w2:
        raise DomainError("port spacing exceeds the aperture; grid would degenerate")
    n1 = int(math.floor(w1 / spacing1)) + 1
    n2 = int(math.floor(w2 / spacing2)) + 1
    if n1 < 2 or n2 < 2:
        raise DomainError(f"aperture too small for spacing: would give {n1} x {n2} ports")
    return PortGrid(n1=n1, n2=n2, w1=w1, w2=w2)


def port_index_to_coords(k: int, grid: PortGrid) -> tuple[int, int]:
    """Map 1-based linear port index to 1-based (dim1, dim2) grid coordinates."""
    if not 1 <= k <= grid.total_ports:
        raise DomainError(f"port index {k} outside 1..{grid.total_ports}")
    r = k % grid.n1
    if r == 0:
        return grid.n1, k // grid.n1
    return r, k // grid.n1 + 1


def _j0(x: float) -> float:
    # sin(x)/x with a series branch to dodge 0/0 near the origin
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0)
    return math.sin(x) / x


def correlation(k: int, m: int, grid: PortGrid) -> float:
    """Spatial correlation coefficient between ports k and m."""
    a1, a2 = port_index_to_coords(k, grid)
    b1, b2 = port_index_to_coords(m, grid)
    dx = (a1 - b1) * grid.w1 / (grid.n1 - 1)
    dy = (a2 - b2) * grid.w2 / (grid.n2 - 1)
    return _j0(2.0 * math.pi * math.hypot(dx, dy))


def _coords_arrays(grid: PortGrid) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(1, grid.total_ports + 1)
    r = k % grid.n1
    n1 = np.where(r == 0, grid.n1, r)
    n2 = np.where(n1 == grid.n1, k // grid.n1, k // grid.n1 + 1)
    return n1, n2


def correlation_entries(grid: PortGrid) -> np.ndarray:
    """Full N x N correlation coefficient matrix (no PSD repair)."""
    n1, n2 = _coords_arrays(grid)
    dx = (n1[:, None] - n1[None, :]) * (grid.w1 / (grid.n1 - 1))
    dy = (n2[:, None] - n2[None, :]) * (grid.w2 / (grid.n2 - 1))
    x = 2.0 * np.pi * np.hypot(dx, dy)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)  # placeholder to keep sin(x)/x well defined
    x2 = x * x
    out = np.where(small, 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0), np.sin(xs) / xs)
    return (out + out.T) / 2.0


@dataclass(frozen=True)
class CorrelationMatrix:
    """Correlation coefficients plus a rank-truncated factor for sampling.

    ``factor`` has shape (N, r): the eigenvectors of the eigenpairs above
    1e-12 of the largest eigenvalue, scaled by the square roots of those
    eigenvalues. ``factor @ factor.T`` reproduces ``entries`` up to the
    discarded eigenvalues, and ``factor @ z`` for r standard normals z is
    one correlated Gaussian draw. The rank follows the aperture in
    wavelengths rather than the port count.
    """

    dim: int
    entries: np.ndarray
    factor: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)
        self.factor.setflags(write=False)

    @classmethod
    def identity(cls, dim: int) -> "CorrelationMatrix":
        """Uncorrelated ports (far-spaced limit); handy for calibration runs."""
        eye = np.eye(dim)
        return cls(dim=dim, entries=eye, factor=eye.copy())


_RANK_CUT = 1e-12  # eigenvalues at or below this fraction of the largest are dropped


def correlation_matrix(grid: PortGrid, psd_tol: float = 1e-8) -> CorrelationMatrix:
    """Assemble the correlation matrix and its rank-truncated eigen factor.

    The sinc kernel on a finite grid is PSD in exact arithmetic but can
    go slightly indefinite in floating point at sub-wavelength spacing.
    An eigenvalue below -psd_tol is treated as a real failure; the
    factor keeps only the eigenpairs above _RANK_CUT times the largest
    eigenvalue, which also drops the tiny negative ones.
    """
    if psd_tol < 0.0:
        raise DomainError(f"psd_tol must be nonnegative, got {psd_tol}")
    entries = correlation_entries(grid)
    eigvals, eigvecs = np.linalg.eigh(entries)
    if eigvals.min() < -psd_tol:
        raise DomainError(
            f"correlation matrix not positive semidefinite beyond tolerance: "
            f"min eigenvalue {eigvals.min():.3e} < -{psd_tol:.1e}"
        )
    keep = eigvals > _RANK_CUT * eigvals[-1]
    factor = np.ascontiguousarray(eigvecs[:, keep] * np.sqrt(eigvals[keep]))
    return CorrelationMatrix(dim=grid.total_ports, entries=entries, factor=factor)


@dataclass(frozen=True)
class Preset:
    freq_hz: float
    spacing1: float
    spacing2: float = 0.5


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
    return grid_from_aperture(*HANDSET_APERTURE_M, p.freq_hz, p.spacing1, p.spacing2)
