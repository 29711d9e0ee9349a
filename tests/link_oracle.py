"""Link-level reference sampler for the Monte Carlo tests.

Draws the desired and every interfering channel vector in full, as
spatially correlated complex Gaussians with per-port power omega, and
forms the SIR from the per-interferer activated sums. The package's
conditional-Gaussian kernel must reproduce the distribution of this
sampler; `link_samples` draws through the full eigen factor of the
correlation entries, so the comparison also covers the rank cut.
"""

import math
from dataclasses import dataclass

import numpy as np

from cumasim.specfun import DomainError

_MAX_REDRAWS = 64


@dataclass(frozen=True)
class ChannelRealization:
    """desired has shape (N,); interferers has shape (I, N)."""

    desired: np.ndarray
    interferers: np.ndarray

    def __post_init__(self):
        if self.desired.ndim != 1 or self.interferers.ndim != 2:
            raise DomainError("desired must be (N,), interferers (I, N)")
        if self.interferers.shape[1] != self.desired.shape[0]:
            raise DomainError("desired and interferer vectors must share the port dimension")


@dataclass(frozen=True)
class TrialResult:
    sir: float
    sir_i: float
    k_i_size: int
    k_q_size: int
    flagged: bool = False


def dense_correlation(grid) -> np.ndarray:
    """N x N correlation j0(2 pi d) of every port pair, from each port's integer position, dimension 1 fastest."""
    i, j = np.meshgrid(np.arange(grid.n1), np.arange(grid.n2))
    i, j = i.ravel(), j.ravel()
    s1, s2 = grid.spacings
    return np.sinc(2.0 * np.hypot(np.abs(i[:, None] - i) * s1, np.abs(j[:, None] - j) * s2))


def full_factor(entries: np.ndarray) -> np.ndarray:
    """(N, N) eigen square root of the entries, negative eigenvalues clipped to zero."""
    w, v = np.linalg.eigh(entries)
    return v * np.sqrt(np.clip(w, 0.0, None))


def _draw_vectors(rng, factor, omega, count):
    # (count, N); real and imaginary parts independent, variance omega/2 each
    x = rng.standard_normal((factor.shape[1], count))
    y = rng.standard_normal((factor.shape[1], count))
    return (math.sqrt(omega / 2.0) * (factor @ x + 1j * (factor @ y))).T


def _draw(rng, factor, omega, interferers):
    desired = _draw_vectors(rng, factor, omega, 1)[0]
    return ChannelRealization(desired=desired, interferers=_draw_vectors(rng, factor, omega, interferers))


def draw_realization(corr, omega, interferers, seed, trial, substream=0) -> ChannelRealization:
    """Desired and interferer channels of one trial, through ``corr.factor``."""
    if interferers < 1:
        raise DomainError(f"need at least one interferer, got {interferers}")
    if not 0.0 < omega < math.inf:
        raise DomainError(f"omega must be positive and finite, got {omega}")
    return _draw(seed.rng(trial, substream), corr.factor, omega, interferers)


def link_sir_sample(realization: ChannelRealization, delta: float) -> TrialResult:
    """SIR of one realization; flagged when a branch has zero interference power."""
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    # the activation rule, written here so that the oracle shares no code with the kernel
    k_i, k_q = np.flatnonzero(realization.desired.real > 0.0), np.flatnonzero(realization.desired.imag > 0.0)
    nu_i = realization.desired.real[k_i].sum() ** 2
    nu_q = realization.desired.imag[k_q].sum() ** 2
    per_stream_i = realization.interferers.real[:, k_i].sum(axis=1)
    per_stream_q = realization.interferers.imag[:, k_q].sum(axis=1)
    xi_i = float(per_stream_i @ per_stream_i)
    xi_q = float(per_stream_q @ per_stream_q)
    if xi_i == 0.0 or xi_q == 0.0:
        return TrialResult(sir=math.nan, sir_i=math.nan, k_i_size=len(k_i), k_q_size=len(k_q), flagged=True)
    sir_i = nu_i / (delta * xi_i)
    return TrialResult(sir=float(sir_i + nu_q / (delta * xi_q)), sir_i=float(sir_i), k_i_size=len(k_i), k_q_size=len(k_q))


def link_samples(config, entries, trials, seed, delta, omega=1.0, substream=0) -> np.ndarray:
    """Total SIR of `trials` link-level draws at residual factor delta and channel power omega.

    Flagged draws are redrawn. `entries` is the N x N correlation matrix
    of the grid behind `config`, which gives the users; the package itself
    fixes the power at 1 and draws at delta = 1.
    """
    factor = full_factor(entries)
    out = np.empty(trials)
    for t in range(trials):
        rng = seed.rng(t, substream)
        for _ in range(_MAX_REDRAWS):
            res = link_sir_sample(_draw(rng, factor, omega, config.interferers), delta)
            if not res.flagged:
                break
        else:
            raise DomainError(f"trial {t}: interference power stayed zero after {_MAX_REDRAWS} redraws")
        out[t] = res.sir
    return out
