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
    "integer",
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
        if self.users < 2:
            raise DomainError(f"need at least 2 users, got {self.users}")
        if not 0.0 < self.delta_b <= 1.0:
            raise DomainError(f"delta_b must lie in (0, 1], got {self.delta_b}")
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


def _ports_axis_grid(n2: int) -> PortGrid:
    freq = PRESETS["6GHz-VC"].freq_hz
    base = grid_from_aperture(*HANDSET_APERTURE_M, freq, _PORTS_AXIS_N1_SPACING, 0.5)
    return PortGrid(n1=base.n1, n2=n2, w1=base.w1, w2=base.w2)


def run_sweep(spec: SweepSpec) -> ComparisonReport:
    """Evaluate the sweep and (optionally) write its CSV.

    Each grid's correlation factor is built once per sweep, and only for
    Monte Carlo columns; each point builds its own stats and configs.
    """

    def factor(grid):
        return correlation_matrix(grid) if spec.mc and grid is not None else None

    seed = SeedSpec(spec.seed)
    secrecy = any(m in _SOP_METRICS for m in spec.metrics)
    grid = None if spec.axis == "ports" else preset_grid(spec.preset)
    eve_grid = preset_grid(spec.eve_preset) if secrecy else None
    corr, eve_corr = factor(grid), factor(eve_grid)

    rows: list[Row] = []
    for v in spec.values:
        users, delta_b, rs = spec.users, spec.delta_b, spec.rs
        if spec.axis == "users":
            users = int(v)
        elif spec.axis == "rs":
            rs = float(v)
        elif spec.axis == "delta_b":
            delta_b = float(v)
        else:  # ports
            grid = _ports_axis_grid(int(v))
            corr = factor(grid)
        axis_value = float(grid.total_ports) if spec.axis == "ports" else float(v)

        bob = ChannelStats.from_grid(grid, users, delta=delta_b)
        eve = ChannelStats.from_grid(eve_grid, users, delta=spec.delta_e) if secrecy else None
        bob_samples = eve_samples = None
        if spec.mc:
            bob_samples = montecarlo.sir_samples(SimConfig(corr, users, delta_b), spec.trials, seed, substream=0)
            if secrecy:
                eve_config = SimConfig(eve_corr, users, spec.delta_e)
                eve_samples = montecarlo.sir_samples(eve_config, spec.trials, seed, substream=1)
        rows.extend(_point_rows(spec, axis_value, users, rs, bob, eve, bob_samples, eve_samples))

    report = ComparisonReport(rows=tuple(rows))
    if spec.out:
        report.write(spec.out)
    return report


def _point_rows(spec, axis_value, users, rs, bob, eve, bob_samples, eve_samples):
    exact_on = spec.exact == "on"
    law_b = law_e = None
    if exact_on:
        law_b = ExactLaw.from_stats(bob)
        if eve is not None:
            law_e = ExactLaw.from_stats(eve)

    beta_b = approx.beta_I(bob)
    rows = []
    for metric in spec.metrics:
        exact_val = mc_mean = mc_se = None
        if metric == "er":
            approx_val = approx.approx_er(users, beta_b)
            if exact_on:
                exact_val = analytic.exact_er(users, law_b)
        elif metric == "op":
            approx_val = approx.approx_op(spec.gamma_th, beta_b)
            if exact_on:
                exact_val = analytic.exact_op(spec.gamma_th, law_b)
        elif metric == "sop":
            approx_val = approx.sop_lower_closed(beta_b, approx.beta_I(eve), rs)
            if exact_on:
                exact_val = analytic.exact_sop(law_b, law_e, rs)
        else:  # sop_lower
            approx_val = approx.sop_lower_closed(beta_b, approx.beta_I(eve), rs)
            if exact_on:
                exact_val = analytic.sop_lower_numeric(law_b, law_e, rs)
        if bob_samples is not None:
            mc_mean, mc_se = montecarlo.mc_estimate(
                metric, bob_samples, eve_samples, users=users, gamma_th=spec.gamma_th, rs=rs
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


def compare_distributions(config: SimConfig, stats: ChannelStats, trials: int, seed: SeedSpec) -> KSReport:
    """KS distances between simulated SIR samples and the fitted laws.

    ``config`` and ``stats`` describe the same terminal (users and delta
    must agree). The total SIR is tested against the exponential
    fit and the in-phase branch against the Gamma(1/2) fit, both at the
    raw-SIR scale beta_I.
    """
    if (config.users - 1, config.delta) != (stats.interferers, stats.delta):
        raise DomainError("simulation config and channel stats describe different systems")
    samples = montecarlo.sir_samples(config, trials, seed)
    beta = approx.beta_I(stats)
    ks_total = ks_statistic(samples.sir, lambda x: approx.approx_cdf_z(x, beta))
    ks_i = ks_statistic(samples.sir_i, lambda x: erf(np.sqrt(np.maximum(x, 0.0) / beta)))  # Gamma(1/2, beta)
    return KSReport(ks_total=ks_total, ks_inphase=ks_i)


# ---------------------------------------------------------------------------
# sweep fields from text: config files and CLI flags
# ---------------------------------------------------------------------------

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _items(text):
    """Split a list field: comma-separated items, blanks around an item ignored."""
    items = tuple(item.strip() for item in text.split(","))
    if "" in items:
        raise ValueError(f"empty item in {text!r}")
    return items


def integer(text: str) -> int:
    """An integer read from text: '20', and integral floats such as '20.0' or '1e3'.

    A fraction, inf or nan raises ValueError, and so does a float form
    from 2^53 on, where a float no longer holds every integer.
    """
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer() or abs(value) >= 2**53:
        raise ValueError(f"{text!r} is not an integer")
    return int(value)


# the sweep fields are SweepSpec's, each read from text by the converter of
# its type, whether the text comes from a config line or a CLI flag
_CONVERTERS = {
    "str": str,
    "str | None": str,
    "int": integer,
    "float": float,
    "bool": lambda s: _BOOL[s.lower()],
    "tuple[float, ...]": lambda s: tuple(float(item) for item in _items(s)),
    "tuple[str, ...]": _items,
}
_CONFIG_FIELDS = {f.name: _CONVERTERS[f.type] for f in dataclasses.fields(SweepSpec)}


def _convert(key, conv, val):
    try:
        return conv(val)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"sweep field {key}: {exc}") from None


def parse_config(text: str | None, **given: str) -> SweepSpec:
    """Build a SweepSpec from the key = value sweep format and text fields.

    ``text`` is a config file's contents, whose schema field is required,
    or None when there is no file. ``given`` holds fields set elsewhere,
    such as the CLI's flags, as text; they override the file's. Every
    field, from either source, is read by the converter of its SweepSpec
    type: a list is comma separated, blanks around an item are ignored
    and an empty item is an error. A field that neither sets keeps
    SweepSpec's default.
    """
    raw: dict[str, str] = {}
    if text is not None:
        for lineno, line in enumerate(text.splitlines(), 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise DomainError(f"config line {lineno}: expected 'key = value', got {line!r}")
            key, val = body.split("=", 1)
            raw[key.strip().lower()] = val.strip()
        if "schema" not in raw:
            raise DomainError("config is missing the schema field")
        schema = _convert("schema", integer, raw.pop("schema"))
        if schema != 1:
            raise DomainError(f"unsupported sweep schema {schema}")
    raw.update(given)
    unknown = sorted(raw.keys() - _CONFIG_FIELDS.keys())
    if unknown:
        raise DomainError(f"unknown config fields: {', '.join(unknown)}")

    fields = {key: _convert(key, _CONFIG_FIELDS[key], val) for key, val in raw.items()}
    missing = [key for key in ("axis", "values", "metrics") if key not in fields]
    if missing:
        raise DomainError(f"sweep is missing {', '.join(missing)}")
    return SweepSpec(**fields)
