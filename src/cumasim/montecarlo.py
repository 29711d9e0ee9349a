"""Monte Carlo ground truth: conditional-Gaussian SIR draws, port activation.

A trial draws the desired effective channel as a spatially correlated
complex Gaussian, Re d + i Im d = F z from 2r standard normals z and the
rank-r correlation factor F, activates the ports whose in-phase
(quadrature) component is positive, giving the masks m_I (m_Q), and forms

    SIR_I = (sum of activated Re d)^2 / (sum over interferers of (activated Re sum)^2)

with the quadrature branch analogous; the reported sample is SIR_I + SIR_Q
at delta = 1 (`SampleSet.over` divides it by delta). The interferer
channels are never drawn: interferer j's activated in-phase sum is
m_I^T F x_j with x_j ~ N(0, I) independent of d, so given d the I sums are
i.i.d. N(0, q_I) with q_I = |F^T m_I|^2 = m_I^T C m_I, and their power is
exactly q_I times a chi-square variate with I degrees of freedom (likewise
for Q, independently). A trial therefore costs two products with F and two
chi-square variates, whatever the user count. Real and imaginary parts
carry unit variance instead of the 1/2 of unit channel power: the scale
multiplies numerator and denominator alike, so it cancels from the SIR.

Trials run in blocks of _BLOCK: a block stacks its trials' normals into
one (2 _BLOCK, r) matrix and costs two GEMMs with F, one for the draws
and one for the masks, instead of two matrix-vector products per trial.

Reproducibility contract: block b of a run (trials b _BLOCK onwards)
draws from the one generator derived from (master seed, b, substream):
its 2 _BLOCK x r normals first, then its _BLOCK x 2 chi-square variates,
then, round by round, the redraws of the trials still left with an empty
branch, in trial order (normals, then variates). A block is always drawn
in full and a short last block is cut to length, so a run is
bit-identical to any longer run's prefix. `sir_samples` is the one trial
loop. Its `SampleSet` is also the samples' empirical law, with
`ExactLaw`'s `expect` and `cdf`, so `analytic`'s metric functions read it
as they read an exact law; `mc_stderr` adds each metric's standard error.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .analytic import _rate, exact_op
from .geometry import CorrelationMatrix
from .specfun import DomainError, _check_delta, _check_rate, _check_users, exp2

__all__ = [
    "SeedSpec",
    "SimConfig",
    "SampleSet",
    "select_ports",
    "sir_sample",
    "sir_samples",
    "mc_stderr",
]

_MAX_REDRAWS = 64
# Trials per block: each block makes two GEMMs with the factor, of 2 * _BLOCK rows.
_BLOCK = 64
# A SampleSet holds four 8-byte values per trial (sir, sir_i, |K_I|, q_I), and
# its view at delta != 1 two more (sir, sir_i); refuse runs past 1 GiB.
_TRIAL_BYTES = 6 * 8
_MAX_SAMPLE_BYTES = 1 << 30


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus the derivation rule for per-block streams."""

    master_seed: int

    def __post_init__(self):
        if not (isinstance(self.master_seed, numbers.Integral) and 0 <= self.master_seed < 2**64):
            raise DomainError(f"master seed must be a u64, got {self.master_seed}")

    def rng(self, block: int, substream: int = 0) -> np.random.Generator:
        """Generator for one (block, substream); identical inputs give identical streams."""
        key = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(block, substream))
        return np.random.default_rng(key)


@dataclass(frozen=True)
class SimConfig:
    """System parameters for a simulation run."""

    corr: CorrelationMatrix
    users: int

    def __post_init__(self):
        _check_users(self.users)

    @property
    def interferers(self) -> int:
        return self.users - 1


def select_ports(pair: np.ndarray) -> int:
    """Turn one trial's (2, N) positive parts into its masks m_I, m_Q, in place; return |K_I|.

    ``pair`` holds max(Re d, 0) and max(Im d, 0), so a port joins K_I (K_Q)
    when the real (imaginary) part of its desired-channel entry is strictly
    positive, ties at exactly zero staying out: the masks are ``pair > 0``.
    `sir_sample` calls it once per trial, not once per block, only because
    the benchmark's tracer test (bench/tests/test_bench_tracer.py) counts
    one call per trial.
    """
    np.greater(pair, 0.0, out=pair)
    return int(np.count_nonzero(pair[0]))


def sir_sample(rng: np.random.Generator, factor: np.ndarray, interferers: int):
    """Conditional draws for one block of _BLOCK trials: (sir, sir_i, |K_I|, q_I, redraws) arrays.

    ``factor`` is the (N, r) correlation factor, and every draw comes from
    the one generator ``rng``, in rounds. A round draws 2r standard normals
    per trial (its d = F z) and then one chi-square(interferers) variate per
    trial and branch, and costs two GEMMs with F. The first round draws the
    whole block; each later one redraws, in trial order, the trials left
    with a branch without interference (an empty activation set,
    probability 2^-N per branch). ``redraws`` counts each trial's discarded
    draws.
    """
    if interferers < 1:
        raise DomainError(f"need at least one interferer, got {interferers}")
    sir, sir_i, q_i = np.empty(_BLOCK), np.empty(_BLOCK), np.empty(_BLOCK)
    k_i = np.empty(_BLOCK, dtype=np.int64)
    redraws = np.zeros(_BLOCK, dtype=np.int64)
    rows = np.arange(_BLOCK)
    for attempt in range(_MAX_REDRAWS + 1):
        n = len(rows)
        redraws[rows] = attempt
        d = rng.standard_normal((2 * n, factor.shape[1])) @ factor.T  # rows 2j, 2j + 1: Re d, Im d
        chi = rng.chisquare(interferers, (n, 2))
        # d is the round's one working array: activation is d > 0, so the
        # activated sums are the sums of max(d, 0); then d holds the masks
        nu = np.square(np.maximum(d, 0.0, out=d).sum(axis=1)).reshape(n, 2)
        for j, t in enumerate(rows):
            k_i[t] = select_ports(d[2 * j : 2 * j + 2])
        proj = d @ factor
        q = np.square(proj, out=proj).sum(axis=1).reshape(n, 2)
        xi = q * chi
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = nu / xi
            sir_i[rows], sir[rows], q_i[rows] = ratio[:, 0], ratio[:, 0] + ratio[:, 1], q[:, 0]
        rows = rows[(xi == 0.0).any(axis=1)]
        if not rows.size:
            return sir, sir_i, k_i, q_i, redraws
    raise DomainError(f"interference power stayed zero after {_MAX_REDRAWS} redraws")


@dataclass
class SampleSet:
    """Per-trial outputs of a run, in trial order.

    ``q_i`` is each trial's m_I^T C m_I: one interferer's activated
    in-phase sum is N(0, q_i / 2) at unit channel power, given the
    desired draw. Every SIR sample is finite, or FloatingPointError.
    """

    sir: np.ndarray
    sir_i: np.ndarray
    k_i_sizes: np.ndarray
    q_i: np.ndarray
    redrawn: int

    def __post_init__(self):
        bad = np.flatnonzero(~np.isfinite(self.sir))
        if bad.size:
            raise FloatingPointError(f"trial {bad[0]}: SIR sample is not finite")

    def over(self, delta: float) -> "SampleSet":
        """The samples of SIR / delta: this set itself at delta = 1, else new sir and sir_i sharing the rest."""
        _check_delta("delta", delta)
        if delta == 1.0:
            return self
        with np.errstate(over="ignore"):
            return replace(self, sir=self.sir / delta, sir_i=self.sir_i / delta)

    def expect(self, phi) -> float:
        """E[phi(Z)] under the samples' empirical law: the mean of ``phi`` (vectorised over z) over the SIR samples."""
        return float(np.mean(phi(self.sir)))

    def cdf(self, z):
        """Pr{Z <= z} under the samples' empirical law, elementwise, NaN for NaN; it sorts per call, keeps no copy."""
        z = np.asarray(z, dtype=float)
        p = np.searchsorted(np.sort(self.sir), z, side="right") / len(self.sir)
        return np.where(np.isnan(z), np.nan, p)[()]


def sir_samples(config: SimConfig, trials: int, seed: SeedSpec, substream: int = 0) -> SampleSet:
    """Draw `trials` independent SIR samples, one `sir_sample` block per _BLOCK trials.

    Block b draws from ``seed.rng(b, substream)`` and a short last block is
    cut to length; `redrawn` counts the discarded draws of the returned
    trials. A sample that is not finite raises FloatingPointError. A
    trial count that is not a positive integer, or whose sample arrays
    would pass _MAX_SAMPLE_BYTES, is refused before anything is allocated.
    """
    if not (isinstance(trials, numbers.Integral) and trials >= 1):
        raise DomainError(f"trials must be a positive integer, got {trials}")
    if trials * _TRIAL_BYTES > _MAX_SAMPLE_BYTES:
        raise DomainError(
            f"{trials} trials would need {trials * _TRIAL_BYTES / 2**30:.3g} GiB of samples "
            f"and their view at delta != 1 (limit {_MAX_SAMPLE_BYTES // _TRIAL_BYTES} trials per run)"
        )
    factor = config.corr.factor
    sir = np.empty(trials)
    sir_i = np.empty(trials)
    ki = np.empty(trials, dtype=np.int64)
    q_i = np.empty(trials)
    redrawn = 0
    for b, start in enumerate(range(0, trials, _BLOCK)):
        n = min(_BLOCK, trials - start)
        *block, redraws = sir_sample(seed.rng(b, substream), factor, config.interferers)
        for arr, got in zip((sir, sir_i, ki, q_i), block):
            arr[start : start + n] = got[:n]
        redrawn += int(redraws[:n].sum())
    return SampleSet(sir=sir, sir_i=sir_i, k_i_sizes=ki, q_i=q_i, redrawn=redrawn)


def mc_stderr(metric: str, bob: SampleSet, eve: SampleSet | None = None, *, users: int = 1, gamma_th: float = 1.0,
              rs: float = 1.0) -> float:
    """Standard error of a metric's Monte Carlo value, its exact metric function read on the samples.

    er: the sample standard error of users * log2(1 + sir), `exact_er`'s
    term, refusing the user counts `exact_er` refuses. op: the binomial
    standard error of `exact_op`'s share. sop (s = 1) and sop_lower
    (s = 0) average 1{sir_B <= tau (s + sir_E) - s}, tau = 2^rs, over
    every Bob/Eve pair; this U-statistic's variance is
    Hoeffding's var_E[F_B(tau (s + Z_E) - s)] / n_E + var_B[F_E((s + Z_B) / tau - s)] / n_B,
    read on the empirical CDFs. Bob's and Eve's sets come from disjoint
    substreams of one seed, and each holds at least two samples.
    """
    for s in (bob, eve):
        if s is not None and len(s.sir) < 2:
            raise DomainError(f"a Monte Carlo estimate needs at least 2 samples, got {len(s.sir)}")
    n = len(bob.sir)
    if metric == "er":
        _check_users(users)
        return users * float(_rate(bob.sir).std(ddof=1)) / math.sqrt(n)
    if metric == "op":
        p = exact_op(gamma_th, bob)
        return math.sqrt(p * (1.0 - p) / n)
    if metric not in ("sop", "sop_lower"):
        raise DomainError(f"unknown Monte Carlo metric {metric!r}")
    if eve is None:
        raise DomainError(f"{metric} needs Eve's samples")
    _check_rate("secrecy rate", rs)
    tau, shift = exp2(rs), 1.0 if metric == "sop" else 0.0
    with np.errstate(over="ignore"):  # an overflow to inf is above every sample
        var_e = np.var(bob.cdf(tau * (shift + eve.sir) - shift), ddof=1) / len(eve.sir)
    var_b = np.var(eve.cdf((shift + bob.sir) / tau - shift), ddof=1) / n
    return math.sqrt(var_e + var_b)
