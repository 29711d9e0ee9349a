"""Sweep driver: figure-style parameter sweeps with CSV emission.

A sweep walks one axis (number of users, secrecy rate, Bob's residual
interference factor, or Bob's total port count) and evaluates the
requested metrics three ways per point: closed-form approximation,
the tabulated exact law (optional) and Monte Carlo with standard
errors.
"""

from __future__ import annotations

import dataclasses
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import analytic, approx, montecarlo
from .analytic import ChannelStats, ExactLaw
from .geometry import (
    HANDSET_APERTURE_M,
    PortGrid,
    PRESETS,
    correlation_matrix,
    grid_from_aperture,
    preset_grid,
)
from .montecarlo import SeedSpec, SimConfig
from .specfun import DomainError

__all__ = [
    "SweepSpec",
    "Row",
    "ComparisonReport",
    "KSReport",
    "run_sweep",
    "compare_distributions",
    "ks_statistic",
    "parse_config",
    "CSV_HEADER",
]

_AXES = ("users", "rs", "delta_b", "ports")
_METRICS = ("er", "op", "sop", "sop_lower")
_SOP_METRICS = ("sop", "sop_lower")
_EXACT_MODES = ("on", "off")
_PORTS_AXIS_N1_SPACING = 0.05  # ports axis densifies dimension 2 of the 6 GHz VC layout

CSV_HEADER = "axis_value,metric,analytic_approx,analytic_exact,mc_mean,mc_stderr,trials,seed"


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one sweep."""

    axis: str
    values: tuple[float, ...]
    metrics: tuple[str, ...]
    preset: str | None = None
    eve_preset: str | None = None
    users: int = 20
    gamma_th: float = 1.0
    rs: float = 1.0
    delta_b: float = 1.0
    delta_e: float = 1.0
    omega: float = 1.0
    trials: int = 10_000
    seed: int = 0
    exact: str = "on"
    mc: bool = True
    out: str | None = None

    def __post_init__(self):
        if self.axis not in _AXES:
            raise DomainError(f"axis must be one of {_AXES}, got {self.axis!r}")
        if not self.values:
            raise DomainError("sweep needs at least one axis value")
        if not all(math.isfinite(v) for v in self.values):
            raise DomainError(f"axis values must be finite, got {self.values}")
        if not self.metrics:
            raise DomainError("sweep needs at least one metric")
        bad = [m for m in self.metrics if m not in _METRICS]
        if bad:
            raise DomainError(f"unknown metrics {bad}; known: {_METRICS}")
        if self.exact not in _EXACT_MODES:
            raise DomainError(f"exact must be one of {_EXACT_MODES}, got {self.exact!r}")
        if self.axis == "ports":
            if self.preset is not None:
                raise DomainError("the ports axis builds its own grids; drop the preset")
            if any(v != int(v) or v < 2 for v in self.values):
                raise DomainError("ports-axis values are integer row counts >= 2")
        elif self.preset is None:
            raise DomainError(f"axis {self.axis!r} requires a preset")
        elif self.preset not in PRESETS:
            raise DomainError(f"unknown preset {self.preset!r}; known: {', '.join(PRESETS)}")
        if any(m in _SOP_METRICS for m in self.metrics):
            if self.eve_preset is None:
                raise DomainError("secrecy metrics require eve_preset")
            if self.eve_preset not in PRESETS:
                raise DomainError(f"unknown eve preset {self.eve_preset!r}")
        if self.axis == "users" and any(v != int(v) or v < 2 for v in self.values):
            raise DomainError("users-axis values must be integers >= 2")
        if self.axis == "delta_b" and any(not 0.0 < v <= 1.0 for v in self.values):
            raise DomainError("delta_b values must lie in (0, 1]")
        if self.axis == "rs" and any(v < 0.0 for v in self.values):
            raise DomainError("rs values must be nonnegative")
        if self.mc and self.trials < 1000:
            raise DomainError("Monte Carlo sweeps need at least 1000 trials")


@dataclass(frozen=True)
class Row:
    axis_value: float
    metric: str
    analytic_approx: float
    analytic_exact: float | None
    mc_mean: float | None
    mc_stderr: float | None
    trials: int
    seed: int


@dataclass(frozen=True)
class ComparisonReport:
    spec: SweepSpec
    rows: tuple[Row, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for r in self.rows:
            cells = [
                _fmt(r.axis_value),
                r.metric,
                _fmt(r.analytic_approx),
                _fmt(r.analytic_exact),
                _fmt(r.mc_mean),
                _fmt(r.mc_stderr),
                str(r.trials),
                str(r.seed),
            ]
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()

    def write(self, path: str) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv())


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return format(v, ".12g")


@dataclass(frozen=True)
class _Side:
    """One terminal's analytic bundle and, for Monte Carlo, its simulation config."""

    stats: ChannelStats
    config: SimConfig | None

    @classmethod
    def build(cls, grid: PortGrid, users: int, delta: float, omega: float, mc: bool) -> "_Side":
        stats = ChannelStats.from_grid(grid, users, delta=delta, omega=omega)
        config = None
        if mc:
            config = SimConfig(corr=correlation_matrix(grid), users=users, delta=delta, omega=omega)
        return cls(stats=stats, config=config)

    @property
    def users(self) -> int:
        return self.stats.interferers + 1

    def _replace(self, stats_kw: dict, config_kw: dict) -> "_Side":
        config = dataclasses.replace(self.config, **config_kw) if self.config else None
        return _Side(stats=dataclasses.replace(self.stats, **stats_kw), config=config)

    def with_users(self, users: int) -> "_Side":
        return self._replace({"interferers": users - 1}, {"users": users})

    def with_delta(self, delta: float) -> "_Side":
        return self._replace({"delta": delta}, {"delta": delta})


def _ports_axis_grid(n2: int) -> PortGrid:
    freq = PRESETS["6GHz-VC"].freq_hz
    base = grid_from_aperture(*HANDSET_APERTURE_M, freq, _PORTS_AXIS_N1_SPACING, 0.5)
    return PortGrid(n1=base.n1, n2=n2, w1=base.w1, w2=base.w2)


def run_sweep(spec: SweepSpec) -> ComparisonReport:
    """Evaluate the sweep and (optionally) write its CSV."""
    seed = SeedSpec(spec.seed)
    rows: list[Row] = []

    bob_base = None
    if spec.axis != "ports":
        bob_base = _Side.build(preset_grid(spec.preset), spec.users, spec.delta_b, spec.omega, spec.mc)
    eve_base = None
    if any(m in _SOP_METRICS for m in spec.metrics):
        eve_base = _Side.build(preset_grid(spec.eve_preset), spec.users, spec.delta_e, spec.omega, spec.mc)

    for v in spec.values:
        if spec.axis == "users":
            users = int(v)
            bob = bob_base.with_users(users)
            eve = eve_base.with_users(users) if eve_base else None
            axis_value, rs = float(users), spec.rs
        elif spec.axis == "rs":
            bob, eve = bob_base, eve_base
            axis_value, rs = float(v), float(v)
        elif spec.axis == "delta_b":
            bob = bob_base.with_delta(float(v))
            eve = eve_base
            axis_value, rs = float(v), spec.rs
        else:  # ports
            grid = _ports_axis_grid(int(v))
            bob = _Side.build(grid, spec.users, spec.delta_b, spec.omega, spec.mc)
            eve = eve_base
            axis_value, rs = float(grid.total_ports), spec.rs

        rows.extend(_point_rows(spec, axis_value, bob, eve, rs, seed))

    report = ComparisonReport(spec=spec, rows=tuple(rows))
    if spec.out:
        report.write(spec.out)
    return report


def _point_rows(spec, axis_value, bob, eve, rs, seed):
    tau_metrics = [m for m in spec.metrics if m in _SOP_METRICS]
    bob_samples = eve_samples = None
    if spec.mc:
        bob_samples = montecarlo.sir_samples(bob.config, spec.trials, seed, substream=0)
        if tau_metrics:
            eve_samples = montecarlo.sir_samples(eve.config, spec.trials, seed, substream=1)
    exact_on = spec.exact == "on"
    law_b = law_e = None
    if exact_on:
        law_b = ExactLaw.from_stats(bob.stats)
        if tau_metrics:
            law_e = ExactLaw.from_stats(eve.stats)

    beta_b = approx.beta_I(bob.stats)
    rows = []
    for metric in spec.metrics:
        exact_val = mc_mean = mc_se = None
        if metric == "er":
            approx_val = approx.approx_er(bob.users, beta_b)
            if exact_on:
                exact_val = analytic.exact_er(bob.users, law_b)
        elif metric == "op":
            approx_val = approx.approx_op(spec.gamma_th, beta_b)
            if exact_on:
                exact_val = analytic.exact_op(spec.gamma_th, law_b)
        elif metric == "sop":
            approx_val = approx.sop_lower_closed(beta_b, approx.beta_I(eve.stats), rs)
            if exact_on:
                exact_val = analytic.exact_sop(law_b, law_e, rs)
        else:  # sop_lower
            approx_val = approx.sop_lower_closed(beta_b, approx.beta_I(eve.stats), rs)
            if exact_on:
                exact_val = analytic.sop_lower_numeric(law_b, law_e, rs)
        if bob_samples is not None:
            mc_mean, mc_se = montecarlo.mc_estimate(
                metric, bob_samples, eve_samples, users=bob.users, gamma_th=spec.gamma_th, rs=rs
            )
        rows.append(
            Row(
                axis_value=axis_value,
                metric=metric,
                analytic_approx=approx_val,
                analytic_exact=exact_val,
                mc_mean=mc_mean,
                mc_stderr=mc_se,
                trials=spec.trials,
                seed=spec.seed,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# distribution comparison
# ---------------------------------------------------------------------------


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a CDF.

    ``cdf`` is called once, on the array of sorted samples, and must
    work elementwise.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    n = len(s)
    if n == 0:
        raise DomainError("KS statistic needs at least one sample")
    f = np.asarray(cdf(s), dtype=float)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(hi - f)), np.max(np.abs(lo - f))))


@dataclass(frozen=True)
class KSReport:
    ks_total: float
    ks_inphase: float
    trials: int


def compare_distributions(config: SimConfig, stats: ChannelStats, trials: int, seed: SeedSpec) -> KSReport:
    """KS distances between simulated SIR samples and the fitted laws.

    ``config`` and ``stats`` describe the same terminal (users, delta and
    omega must agree). The total SIR is tested against the exponential
    fit and the in-phase branch against the Gamma(1/2) fit, both at the
    raw-SIR scale beta_I.
    """
    if (config.users - 1, config.delta, config.omega) != (stats.interferers, stats.delta, stats.omega):
        raise DomainError("simulation config and channel stats describe different systems")
    samples = montecarlo.sir_samples(config, trials, seed)
    beta = approx.beta_I(stats)
    ks_total = ks_statistic(samples.sir, lambda x: approx.approx_cdf_z(x, beta))
    ks_i = ks_statistic(samples.sir_i, lambda x: erf(np.sqrt(np.maximum(x, 0.0) / beta)))  # Gamma(1/2, beta)
    return KSReport(ks_total=ks_total, ks_inphase=ks_i, trials=trials)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def parse_config(text: str) -> SweepSpec:
    """Parse the key = value sweep format (schema field required)."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise DomainError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, val = body.split("=", 1)
        raw[key.strip().lower()] = val.strip()

    def take(key, conv, default):
        if key not in raw:
            return default
        try:
            return conv(raw.pop(key))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"config field {key}: {exc}") from None

    def floats(s):
        return tuple(float(p) for p in s.replace(",", " ").split())

    def words(s):
        return tuple(p.strip() for p in s.replace(",", " ").split())

    if "schema" not in raw:
        raise DomainError("config is missing the schema field")
    schema = take("schema", int, None)
    if schema != 1:
        raise DomainError(f"unsupported sweep schema {schema}")

    spec = SweepSpec(
        axis=take("axis", str, ""),
        values=take("values", floats, ()),
        metrics=take("metrics", words, ()),
        preset=take("preset", str, None),
        eve_preset=take("eve_preset", str, None),
        users=take("users", int, 20),
        gamma_th=take("gamma_th", float, 1.0),
        rs=take("rs", float, 1.0),
        delta_b=take("delta_b", float, 1.0),
        delta_e=take("delta_e", float, 1.0),
        omega=take("omega", float, 1.0),
        trials=take("trials", int, 10_000),
        seed=take("seed", int, 0),
        exact=take("exact", str, "on"),
        mc=take("mc", lambda s: _BOOL[s.lower()], True),
        out=take("out", str, None),
    )
    if raw:
        raise DomainError(f"unknown config fields: {', '.join(sorted(raw))}")
    return spec
