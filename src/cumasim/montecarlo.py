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
the 1/2 of unit channel power: the scale multiplies numerator and
denominator alike, so it cancels from the SIR.

Trials run in blocks of _BLOCK: a block stacks its trials' normals into
one (2 _BLOCK, r) matrix and costs two GEMMs with F, one for the draws
and one for the masks, instead of two matrix-vector products per trial.

Reproducibility contract: trial t of a run draws from a dedicated
generator derived from (master seed, trial index, substream), z first
and then its two chi-square variates. Every GEMM has 2 _BLOCK rows, the
last block's unused rows being zero, so trial t's stream and bits do
not depend on the block or on the trial count: a run is bit-identical
to any longer run's prefix. `sir_samples` is the one trial loop and
`mc_estimate` the one reduction from its samples to a metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CorrelationMatrix
from .specfun import DomainError, _check_rate, exp2

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
# Trials per block: each block makes two GEMMs with the factor, of 2 * _BLOCK rows.
_BLOCK = 64
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

    def __post_init__(self):
        if self.users < 2:
            raise DomainError(f"need at least 2 users, got {self.users}")
        if not 0.0 < self.delta <= 1.0:
            raise DomainError(f"delta must lie in (0, 1], got {self.delta}")

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


def sir_sample(rngs, factor: np.ndarray, interferers: int, delta: float):
    """Conditional draws for one block of trials: (sir, sir_i, |K_I|, q_I) arrays.

    ``rngs`` holds one generator per trial, at most _BLOCK of them, and
    ``factor`` is the (N, r) correlation factor. Each generator draws the
    2r standard normals of its d = F z, then one chi-square(interferers)
    variate per branch. The block costs two GEMMs with F, each with
    2 * _BLOCK rows whatever len(rngs) (the unused rows are zero), so a
    trial's bits depend only on its generator and its row in the block. A
    NaN SIR marks a trial with a branch without interference (an empty
    activation set, probability 2^-N per branch); the caller redraws it
    from the same generator.
    """
    n = len(rngs)
    if not 1 <= n <= _BLOCK:
        raise DomainError(f"a block holds 1 to {_BLOCK} trials, got {n}")
    if interferers < 1:
        raise DomainError(f"need at least one interferer, got {interferers}")
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    z = np.zeros((2 * _BLOCK, factor.shape[1]))
    chi = np.empty((n, 2))
    for j, rng in enumerate(rngs):
        rng.standard_normal(out=z[2 * j : 2 * j + 2])
        chi[j] = rng.chisquare(interferers, 2)
    d = z @ factor.T  # rows 2j, 2j + 1: Re d, Im d of trial j
    masks = np.zeros_like(d)
    k_i = np.empty(n, dtype=np.int64)
    for j in range(n):
        on_i, on_q = select_ports(d[2 * j] + 1j * d[2 * j + 1])
        masks[2 * j, on_i] = 1.0
        masks[2 * j + 1, on_q] = 1.0
        k_i[j] = len(on_i)
    q = np.square(masks @ factor).sum(axis=1)[: 2 * n].reshape(n, 2)
    nu = np.square((masks[: 2 * n] * d[: 2 * n]).sum(axis=1)).reshape(n, 2)
    xi = delta * q * chi
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = nu / xi
    sir_i = ratio[:, 0]
    sir = sir_i + ratio[:, 1]
    empty = (xi == 0.0).any(axis=1)
    sir[empty] = sir_i[empty] = np.nan
    return sir, sir_i, k_i, q[:, 0]


@dataclass
class SampleSet:
    """Per-trial outputs of a run, in trial order.

    ``q_i`` is each trial's m_I^T C m_I: one interferer's activated
    in-phase sum is N(0, q_i / 2) at unit channel power, given the
    desired draw.
    """

    sir: np.ndarray
    sir_i: np.ndarray
    k_i_sizes: np.ndarray
    q_i: np.ndarray
    redrawn: int


def sir_samples(config: SimConfig, trials: int, seed: SeedSpec, substream: int = 0) -> SampleSet:
    """Draw `trials` independent SIR samples, _BLOCK trials per `sir_sample` call.

    A draw without interference is redrawn from the same trial's stream,
    as a block of one; `redrawn` counts the draws so discarded.
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
    for start in range(0, trials, _BLOCK):
        rngs = [seed.rng(t, substream) for t in range(start, min(start + _BLOCK, trials))]
        block = slice(start, start + len(rngs))
        sir[block], sir_i[block], ki[block], q_i[block] = sir_sample(rngs, factor, config.interferers, config.delta)
        for j in np.flatnonzero(np.isnan(sir[block])):
            for attempt in range(1, _MAX_REDRAWS):
                res = sir_sample([rngs[j]], factor, config.interferers, config.delta)
                if not np.isnan(res[0][0]):
                    break
            else:
                raise DomainError(f"trial {start + j}: interference power stayed zero after {_MAX_REDRAWS} redraws")
            redrawn += attempt
            sir[start + j], sir_i[start + j], ki[start + j], q_i[start + j] = (a[0] for a in res)
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
        _check_rate("gamma_th", gamma_th)
        hits = np.log2(1.0 + bob.sir) < gamma_th
    elif metric in ("sop", "sop_lower"):
        if eve is None:
            raise DomainError(f"{metric} needs Eve's samples")
        _check_rate("secrecy rate", rs)
        if metric == "sop":
            hits = np.log2(1.0 + bob.sir) - np.log2(1.0 + eve.sir) < rs
        else:
            hits = bob.sir < exp2(rs) * eve.sir
    else:
        raise DomainError(f"unknown Monte Carlo metric {metric!r}")
    p = float(np.mean(hits))
    return p, math.sqrt(p * (1.0 - p) / n)
