"""Monte Carlo ground truth: conditional-Gaussian SIR draws, port activation.

A trial draws the desired effective channel as a spatially correlated
complex Gaussian, Re d + i Im d = F z from 2r standard normals z and the
rank-r correlation factor F, activates the ports whose in-phase
(quadrature) component is positive, giving the masks m_I (m_Q), and forms

    SIR_I = (sum of activated Re d)^2 / (delta * sum over interferers of (activated Re sum)^2)

with the quadrature branch analogous; the reported sample is
SIR_I + SIR_Q. The interferer channels are never drawn: interferer j's
activated in-phase sum is m_I^T F x_j with x_j ~ N(0, I) independent of
d, so given d the I sums are i.i.d. N(0, q_I) with q_I = |F^T m_I|^2 =
m_I^T C m_I, and their power is exactly q_I times a chi-square variate
with I degrees of freedom (likewise for Q, independently). A trial
therefore costs two products with F and two chi-square variates, whatever
the user count. Real and imaginary parts carry unit variance instead of
omega/2: the channel power scales numerator and denominator alike, so
the draws leave it out.

Reproducibility contract: trial t of a run draws from a dedicated
generator derived from (master seed, trial index, substream), so a run
is bit-identical to any longer run's prefix. `sir_samples` is the one
trial loop and `mc_estimate` the one reduction from its samples to a
metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CorrelationMatrix
from .specfun import DomainError

__all__ = [
    "SeedSpec",
    "SimConfig",
    "SampleSet",
    "select_ports",
    "sir_sample",
    "sir_samples",
    "mc_estimate",
]

_MAX_REDRAWS = 64
# A SampleSet holds four 8-byte values per trial (sir, sir_i, |K_I|, q_I);
# refuse runs past 1 GiB.
_TRIAL_BYTES = 4 * 8
_MAX_SAMPLE_BYTES = 1 << 30


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus the derivation rule for per-trial streams."""

    master_seed: int

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise DomainError(f"master seed must be a u64, got {self.master_seed}")

    def rng(self, trial: int, substream: int = 0) -> np.random.Generator:
        """Generator for one (trial, substream); identical inputs give identical streams."""
        key = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(trial, substream))
        return np.random.default_rng(key)


@dataclass(frozen=True)
class SimConfig:
    """System parameters for a simulation run."""

    corr: CorrelationMatrix
    users: int
    delta: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        if self.users < 2:
            raise DomainError(f"need at least 2 users, got {self.users}")
        if not 0.0 < self.delta <= 1.0:
            raise DomainError(f"delta must lie in (0, 1], got {self.delta}")
        if not 0.0 < self.omega < math.inf:
            raise DomainError(f"omega must be positive and finite, got {self.omega}")

    @property
    def interferers(self) -> int:
        return self.users - 1


def select_ports(desired: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Activated port positions (0-based) for the I and Q branches.

    A port joins K_I when the real part of its desired-channel entry is
    strictly positive (ties at exactly zero stay out); K_Q uses the
    imaginary part.
    """
    desired = np.asarray(desired)
    if desired.size == 0:
        raise DomainError("select_ports requires a nonempty vector")
    return np.flatnonzero(desired.real > 0.0), np.flatnonzero(desired.imag > 0.0)


def sir_sample(rng: np.random.Generator, factor: np.ndarray, interferers: int, delta: float):
    """One conditional draw: (sir, sir_i, |K_I|, q_I), or None.

    ``factor`` is the (N, r) correlation factor. The draw takes 2r
    standard normals for d = F z, then one chi-square(interferers)
    variate per branch. None means a branch has no interference (an
    empty activation set, probability 2^-N per branch); the caller
    redraws from the same generator.
    """
    if interferers < 1:
        raise DomainError(f"need at least one interferer, got {interferers}")
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    d = rng.standard_normal((2, factor.shape[1])) @ factor.T  # rows: Re d, Im d
    k_i, k_q = select_ports(d[0] + 1j * d[1])
    masks = np.zeros_like(d)
    masks[0, k_i] = 1.0
    masks[1, k_q] = 1.0
    q_i, q_q = np.square(masks @ factor).sum(axis=1)
    nu_i, nu_q = np.square((masks * d).sum(axis=1))
    chi_i, chi_q = rng.chisquare(interferers, 2)
    xi_i = delta * q_i * chi_i
    xi_q = delta * q_q * chi_q
    if xi_i == 0.0 or xi_q == 0.0:
        return None
    sir_i = nu_i / xi_i
    sir = sir_i + nu_q / xi_q
    return float(sir), float(sir_i), len(k_i), float(q_i)


@dataclass
class SampleSet:
    """Per-trial outputs of a run, in trial order.

    ``q_i`` is each trial's m_I^T C m_I: one interferer's activated
    in-phase sum is N(0, (omega / 2) q_i) given the desired draw.
    """

    sir: np.ndarray
    sir_i: np.ndarray
    k_i_sizes: np.ndarray
    q_i: np.ndarray
    redrawn: int


def sir_samples(config: SimConfig, trials: int, seed: SeedSpec, substream: int = 0) -> SampleSet:
    """Draw `trials` independent SIR samples.

    A draw without interference is redrawn from the same trial's stream.
    A sample that is not finite raises FloatingPointError. A trial count
    whose sample arrays would pass _MAX_SAMPLE_BYTES is refused before
    anything is allocated.
    """
    if trials < 1:
        raise DomainError(f"trials must be positive, got {trials}")
    if trials * _TRIAL_BYTES > _MAX_SAMPLE_BYTES:
        raise DomainError(
            f"{trials} trials would need {trials * _TRIAL_BYTES / 2**30:.3g} GiB of samples "
            f"(limit {_MAX_SAMPLE_BYTES // _TRIAL_BYTES} trials per run)"
        )
    factor = config.corr.factor
    sir = np.empty(trials)
    sir_i = np.empty(trials)
    ki = np.empty(trials, dtype=np.int64)
    q_i = np.empty(trials)
    redrawn = 0
    for t in range(trials):
        rng = seed.rng(t, substream)
        for _ in range(_MAX_REDRAWS):
            res = sir_sample(rng, factor, config.interferers, config.delta)
            if res is not None:
                break
            redrawn += 1
        else:
            raise DomainError(f"trial {t}: interference power stayed zero after {_MAX_REDRAWS} redraws")
        sir[t], sir_i[t], ki[t], q_i[t] = res
    bad = np.flatnonzero(~np.isfinite(sir))
    if bad.size:
        raise FloatingPointError(f"trial {bad[0]}: SIR sample is not finite")
    return SampleSet(sir=sir, sir_i=sir_i, k_i_sizes=ki, q_i=q_i, redrawn=redrawn)


def mc_estimate(
    metric: str,
    bob: SampleSet,
    eve: SampleSet | None = None,
    *,
    users: int = 1,
    gamma_th: float = 1.0,
    rs: float = 1.0,
) -> tuple[float, float]:
    """Monte Carlo estimate of one metric and its standard error.

    er is users * mean(log2(1 + sir)) with the sample standard error
    (users = 1 gives the per-user rate). The others are fractions of
    trials, with the binomial standard error: op counts log2(1 + sir) <
    gamma_th; sop counts log2(1 + sir_B) - log2(1 + sir_E) < rs and
    sop_lower counts sir_B < 2^rs sir_E, pairing Bob's and Eve's samples
    trial by trial (draw them from disjoint substreams of one seed so
    that the two channels are independent). A standard error needs at
    least two samples.
    """
    n = len(bob.sir)
    if n < 2:
        raise DomainError(f"a Monte Carlo estimate needs at least 2 samples, got {n}")
    if metric == "er":
        rates = np.log2(1.0 + bob.sir)
        return users * float(rates.mean()), users * float(rates.std(ddof=1)) / math.sqrt(n)
    if metric == "op":
        if not math.isfinite(gamma_th):
            raise DomainError(f"gamma_th must be finite, got {gamma_th}")
        hits = np.log2(1.0 + bob.sir) < gamma_th
    elif metric in ("sop", "sop_lower"):
        if eve is None:
            raise DomainError(f"{metric} needs Eve's samples")
        if not 0.0 <= rs < math.inf:
            raise DomainError(f"secrecy rate must be nonnegative and finite, got {rs}")
        if metric == "sop":
            hits = np.log2(1.0 + bob.sir) - np.log2(1.0 + eve.sir) < rs
        else:
            hits = bob.sir < 2.0**rs * eve.sir
    else:
        raise DomainError(f"unknown Monte Carlo metric {metric!r}")
    p = float(np.mean(hits))
    return p, math.sqrt(p * (1.0 - p) / n)
