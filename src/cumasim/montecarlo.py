"""Link-level ground truth: correlated channel draws, port activation, SIR.

Each trial draws one desired and I interfering effective channel vectors
as spatially correlated complex Gaussians, activates the ports whose
in-phase (quadrature) desired component is positive, and forms

    SIR_I = (sum of activated Re parts)^2
            / (delta * sum over interferers of (activated Re sum)^2)

with the quadrature branch analogous; the reported sample is
SIR_I + SIR_Q. Interference is accumulated per interfering stream and
squared before summing: independent data symbols decorrelate the
streams, so the per-stream powers add.

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
    "ChannelRealization",
    "TrialResult",
    "SimConfig",
    "draw_realization",
    "select_ports",
    "sir_sample",
    "sir_samples",
    "interference_sum_samples",
    "mc_estimate",
]

_MAX_REDRAWS = 64


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
class ChannelRealization:
    """One draw of correlated effective channels.

    desired has shape (N,); interferers has shape (I, N). All entries are
    zero-mean complex Gaussian with per-port variance omega and the
    inter-port correlation of the generating matrix.
    """

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
    sir_i: float  # in-phase branch alone
    k_i_size: int
    k_q_size: int
    flagged: bool = False


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


def _draw_vectors(rng: np.random.Generator, factor: np.ndarray, omega: float, count: int) -> np.ndarray:
    # (count, N) correlated complex Gaussians; real and imaginary parts
    # are independent with per-port variance omega/2 each.
    n = factor.shape[0]
    x = rng.standard_normal((n, count))
    y = rng.standard_normal((n, count))
    return (math.sqrt(omega / 2.0) * (factor @ x + 1j * (factor @ y))).T


def draw_realization(
    corr: CorrelationMatrix,
    omega: float,
    interferers: int,
    seed: SeedSpec,
    trial: int,
    substream: int = 0,
) -> ChannelRealization:
    """Draw the desired and interfering channel vectors for one trial."""
    if interferers < 1:
        raise DomainError(f"need at least one interferer, got {interferers}")
    if not 0.0 < omega < math.inf:
        raise DomainError(f"omega must be positive and finite, got {omega}")
    rng = seed.rng(trial, substream)
    return _draw_from_rng(rng, corr.factor, omega, interferers)


def _draw_from_rng(rng, factor, omega, interferers) -> ChannelRealization:
    desired = _draw_vectors(rng, factor, omega, 1)[0]
    interf = _draw_vectors(rng, factor, omega, interferers)
    return ChannelRealization(desired=desired, interferers=interf)


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


def sir_sample(realization: ChannelRealization, delta: float) -> TrialResult:
    """Form the SIR sample of one realization.

    Flagged (excluded) when either branch has zero interference power,
    which requires an empty activation set and has probability 2^-N per
    branch.
    """
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    k_i, k_q = select_ports(realization.desired)
    re_d = realization.desired.real
    im_d = realization.desired.imag
    nu_i = re_d[k_i].sum() ** 2
    nu_q = im_d[k_q].sum() ** 2
    per_stream_i = realization.interferers.real[:, k_i].sum(axis=1)
    per_stream_q = realization.interferers.imag[:, k_q].sum(axis=1)
    xi_i = float(per_stream_i @ per_stream_i)
    xi_q = float(per_stream_q @ per_stream_q)
    if xi_i == 0.0 or xi_q == 0.0:
        return TrialResult(sir=math.nan, sir_i=math.nan, k_i_size=len(k_i), k_q_size=len(k_q), flagged=True)
    sir_i = nu_i / (delta * xi_i)
    sir = sir_i + nu_q / (delta * xi_q)
    return TrialResult(sir=float(sir), sir_i=float(sir_i), k_i_size=len(k_i), k_q_size=len(k_q))


@dataclass
class SampleSet:
    """Per-trial outputs of a run, in trial order."""

    sir: np.ndarray
    sir_i: np.ndarray
    k_i_sizes: np.ndarray
    k_q_sizes: np.ndarray
    redrawn: int


def sir_samples(config: SimConfig, trials: int, seed: SeedSpec, substream: int = 0) -> SampleSet:
    """Draw `trials` independent SIR samples.

    A flagged realization is redrawn from the same trial's stream. A
    sample that is not finite (channel powers so large that the sums
    overflow) raises FloatingPointError.
    """
    if trials < 1:
        raise DomainError(f"trials must be positive, got {trials}")
    factor = config.corr.factor
    sir = np.empty(trials)
    sir_i = np.empty(trials)
    ki = np.empty(trials, dtype=np.int64)
    kq = np.empty(trials, dtype=np.int64)
    redrawn = 0
    for t in range(trials):
        rng = seed.rng(t, substream)
        for _ in range(_MAX_REDRAWS):
            real = _draw_from_rng(rng, factor, config.omega, config.interferers)
            res = sir_sample(real, config.delta)
            if not res.flagged:
                break
            redrawn += 1
        else:
            raise DomainError(f"trial {t}: interference power stayed zero after {_MAX_REDRAWS} redraws")
        sir[t], sir_i[t], ki[t], kq[t] = res.sir, res.sir_i, res.k_i_size, res.k_q_size
    bad = np.flatnonzero(~np.isfinite(sir))
    if bad.size:
        raise FloatingPointError(f"trial {bad[0]}: SIR sample is not finite at omega = {config.omega:g}")
    return SampleSet(sir=sir, sir_i=sir_i, k_i_sizes=ki, k_q_sizes=kq, redrawn=redrawn)


def interference_sum_samples(
    config: SimConfig,
    trials: int,
    seed: SeedSpec,
    substream: int = 0,
) -> np.ndarray:
    """Per-interferer activated in-phase sums, shape (trials, I).

    These are the pre-squared quantities whose variance the analytic
    sigma2^2 models; used for variance calibration.
    """
    if trials < 1:
        raise DomainError(f"trials must be positive, got {trials}")
    factor = config.corr.factor
    out = np.empty((trials, config.interferers))
    for t in range(trials):
        rng = seed.rng(t, substream)
        real = _draw_from_rng(rng, factor, config.omega, config.interferers)
        k_i, _ = select_ports(real.desired)
        out[t] = real.interferers.real[:, k_i].sum(axis=1)
    return out


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
        hits = np.log2(1.0 + bob.sir) < gamma_th
    elif metric in ("sop", "sop_lower"):
        if eve is None:
            raise DomainError(f"{metric} needs Eve's samples")
        if rs < 0.0:
            raise DomainError(f"secrecy rate must be nonnegative, got {rs}")
        if metric == "sop":
            hits = np.log2(1.0 + bob.sir) - np.log2(1.0 + eve.sir) < rs
        else:
            hits = bob.sir < 2.0**rs * eve.sir
    else:
        raise DomainError(f"unknown Monte Carlo metric {metric!r}")
    p = float(np.mean(hits))
    return p, math.sqrt(p * (1.0 - p) / n)
