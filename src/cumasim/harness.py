"""Sweep driver: figure-style parameter sweeps with CSV emission.

A sweep walks one axis (number of users, secrecy rate, Bob's residual
interference factor, or Bob's total port count) and evaluates the
requested metrics three ways per point: closed-form approximation,
the tabulated exact law (optional) and Monte Carlo with standard
errors. A receiver's exact law is tabulated and its samples are drawn
once per grid and users, at delta = 1: delta only scales them. No sweep
and no KS check loads scipy.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from . import analytic, approx, montecarlo
from .analytic import ChannelStats
from .geometry import PRESETS, correlation_matrix, preset_grid
from .montecarlo import SeedSpec, SimConfig
from .specfun import DomainError, _check_delta, _check_rate, _check_users

__all__ = [
    "SweepSpec",
    "Row",
    "ComparisonReport",
    "run_sweep",
    "evaluate_point",
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
_erf = np.frompyfunc(math.erf, 1, 1)  # math.erf elementwise, into an object array; numpy has no erf

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
        if len(set(self.metrics)) < len(self.metrics):
            raise DomainError(f"each metric may appear once, got {self.metrics}")
        if self.exact not in _EXACT_MODES:
            raise DomainError(f"exact must be one of {_EXACT_MODES}, got {self.exact!r}")
        if self.axis in ("users", "ports") and any(v != int(v) or v < 2 for v in self.values):
            raise DomainError(f"{self.axis}-axis values must be integers >= 2")
        if self.axis == "ports":
            if self.preset is not None:
                raise DomainError("the ports axis builds its own grids; drop the preset")
        elif self.preset is None:
            raise DomainError(f"axis {self.axis!r} requires a preset")
        elif self.preset not in PRESETS:
            raise DomainError(f"unknown preset {self.preset!r}; known: {', '.join(PRESETS)}")
        if self.eve_preset is None and any(m in _SOP_METRICS for m in self.metrics):
            raise DomainError("secrecy metrics require eve_preset")
        if self.eve_preset is not None and self.eve_preset not in PRESETS:
            raise DomainError(f"unknown eve preset {self.eve_preset!r}")
        if self.axis == "delta_b" and any(not 0.0 < v <= 1.0 for v in self.values):
            raise DomainError("delta_b values must lie in (0, 1]")
        if self.axis == "rs" and any(v < 0.0 for v in self.values):
            raise DomainError("rs values must be nonnegative")
        _check_users(self.users)
        _check_delta("delta_b", self.delta_b)
        _check_delta("delta_e", self.delta_e)
        _check_rate("gamma_th", self.gamma_th)
        _check_rate("secrecy rate", self.rs)
        if self.trials < 1:
            raise DomainError(f"trials must be positive, got {self.trials}")
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
            values = (r.analytic_approx, r.analytic_exact, r.mc_mean, r.mc_stderr)
            cells = [_fmt(r.axis_value), r.metric, *map(_fmt, values), str(r.trials), str(r.seed)]
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return format(v, ".12g")


def run_sweep(spec: SweepSpec) -> ComparisonReport:
    """Evaluate the sweep and (optionally) write its CSV.

    A receiver's stats, which keep its exact law, and its samples for
    Monte Carlo columns are at delta = 1 and depend only on its grid and
    users. Each is built once while the axis leaves those unchanged (so a
    delta_b sweep draws each receiver once) and released before its
    replacement; Bob and Eve on one grid and users share one stats and
    law, whatever their deltas, and each draws its own samples. Only Monte
    Carlo columns build a grid's factor, once per grid.
    """
    factor = functools.lru_cache(maxsize=2)(correlation_matrix)
    stats = functools.lru_cache(maxsize=2)(ChannelStats.from_grid)
    drawn = {}  # substream -> ((grid, users), samples): the last Bob (0) and the last Eve (1)
    seed = SeedSpec(spec.seed)

    def receiver(grid, users, substream):
        key = (grid, users)
        if spec.mc and drawn.get(substream, (None,))[0] != key:
            drawn.pop(substream, None)
            # the factor first: its budget refuses a huge ports-axis grid before the stats build its table
            config = SimConfig(factor(grid), users)
            drawn[substream] = key, montecarlo.sir_samples(config, spec.trials, seed, substream=substream)
        return stats(grid, users), drawn[substream][1] if spec.mc else None

    secrecy = any(m in _SOP_METRICS for m in spec.metrics)
    grid = None if spec.axis == "ports" else preset_grid(spec.preset)
    eve_grid = preset_grid(spec.eve_preset) if secrecy else None

    rows: list[Row] = []
    for v in spec.values:
        users, delta_b, rs = spec.users, spec.delta_b, spec.rs
        if spec.axis == "users":
            users = int(v)
        elif spec.axis == "rs":
            rs = float(v)
        elif spec.axis == "delta_b":
            delta_b = float(v)
        else:  # ports: the 6GHz-VC layout with v rows along dimension 2
            grid = dataclasses.replace(preset_grid("6GHz-VC"), n2=int(v))
        axis_value = float(grid.total_ports) if spec.axis == "ports" else float(v)

        bob_samples = eve_samples = None  # so that a replaced receiver is freed before its redraw
        bob, bob_samples = receiver(grid, users, 0)
        eve, eve_samples = receiver(eve_grid, users, 1) if secrecy else (None, None)
        point = evaluate_point(
            spec.metrics, users, gamma_th=spec.gamma_th, rs=rs, bob=bob, eve=eve, delta_b=delta_b,
            delta_e=spec.delta_e, exact=spec.exact == "on", bob_samples=bob_samples, eve_samples=eve_samples,
        )
        rows.extend(Row(axis_value, m, *point[m], spec.trials, spec.seed) for m in spec.metrics)

    report = ComparisonReport(rows=tuple(rows))
    if spec.out:
        with open(spec.out, "w", newline="\n") as fh:
            fh.write(report.to_csv())
    return report


def _route(metric, exact, users, gamma_th, rs, bob, eve):
    """One metric from Bob's and Eve's Gamma scales, or from their laws (exact or sampled) if ``exact``.

    Each closed form takes the same arguments as its exact counterpart;
    sop and sop_lower share the closed-form lower bound.
    """
    if metric == "er":
        return (analytic.exact_er if exact else approx.approx_er)(users, bob)
    if metric == "op":
        return (analytic.exact_op if exact else approx.approx_op)(gamma_th, bob)
    if not exact:
        return approx.sop_lower_closed(bob, eve, rs)
    return (analytic.exact_sop if metric == "sop" else analytic.sop_lower_numeric)(bob, eve, rs)


def evaluate_point(
    metrics, users, *, gamma_th, rs, bob=None, eve=None, delta_b=1.0, delta_e=1.0, exact=False,
    bob_samples=None, eve_samples=None,
) -> dict[str, tuple]:
    """Closed-form, exact and Monte Carlo values of each metric at one system point.

    Returns {metric: (approx, exact, mc_mean, mc_stderr)}, the value
    columns of a sweep row. A column is computed only when its input is
    given and is None otherwise: the closed form needs Bob's ChannelStats
    ``bob``, the exact law needs ``bob`` and ``exact``, and Monte Carlo
    needs Bob's SampleSet ``bob_samples``. The secrecy metrics also need
    Eve's stats ``eve`` or samples ``eve_samples`` (``rs`` is read only by
    them). The stats and samples are at delta = 1: ``delta_b`` and
    ``delta_e`` scale them here, through beta_I, ``ExactLaw.over`` and
    ``SampleSet.over``. The Monte Carlo mean is the exact column's metric
    function read on the samples, after ``montecarlo.mc_stderr``, whose
    refusals come before a failing law's; then each terminal's exact law,
    ``ChannelStats.law``, is read, tabulated on its first use.
    """
    bad = [m for m in metrics if m not in _METRICS]
    if bad:
        raise DomainError(f"unknown metrics {bad}; known: {_METRICS}")
    secrecy = any(m in _SOP_METRICS for m in metrics)
    if secrecy and bob is not None and eve is None:
        raise DomainError("secrecy metrics need Eve's stats")
    mc = {m: (None, None) for m in metrics}
    if bob_samples is not None:
        samples = (bob_samples.over(delta_b), None if eve_samples is None else eve_samples.over(delta_e))
        for m in metrics:
            se = montecarlo.mc_stderr(m, *samples, users=users, gamma_th=gamma_th, rs=rs)
            mc[m] = (_route(m, True, users, gamma_th, rs, *samples), se)
    laws = scales = None
    if bob is not None:
        sides = ((bob, delta_b), (eve if secrecy else None, delta_e))
        laws = [None if s is None else s.law.over(d) for s, d in sides] if exact else None
        scales = [None if s is None else approx.beta_I(s, d) for s, d in sides]
    point = {}
    for m in metrics:
        closed = None if scales is None else _route(m, False, users, gamma_th, rs, *scales)
        exact_val = None if laws is None else _route(m, True, users, gamma_th, rs, *laws)
        point[m] = (closed, exact_val, *mc[m])
    return point


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


def compare_distributions(config: SimConfig, beta: float, trials: int, seed: SeedSpec) -> tuple[float, float]:
    """KS distances (total, in-phase) of simulated SIR samples from the fitted laws at the raw-SIR scale ``beta``.

    The total SIR is tested against the exponential fit and the in-phase
    branch against the Gamma(1/2) fit. The samples are at delta = 1 and
    ``beta`` is beta_I(stats): KS is scale-free, so that serves any delta.
    """
    samples = montecarlo.sir_samples(config, trials, seed)
    ks_total = ks_statistic(samples.sir, lambda x: approx.approx_cdf_z(x, beta))
    # the Gamma(1/2, beta) CDF
    ks_i = ks_statistic(samples.sir_i, lambda x: _erf(np.sqrt(np.maximum(x, 0.0) / beta)).astype(float))
    return ks_total, ks_i


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
    and an empty item is an error. A file may set each field once. A field
    that neither sets keeps SweepSpec's default.
    """
    raw: dict[str, str] = {}
    if text is not None:
        set_on: dict[str, int] = {}  # field -> the line that sets it
        for lineno, line in enumerate(text.splitlines(), 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise DomainError(f"config line {lineno}: expected 'key = value', got {line!r}")
            key, val = body.split("=", 1)
            key = key.strip().lower()
            if key in set_on:
                raise DomainError(f"config field {key} is set twice, on lines {set_on[key]} and {lineno}")
            set_on[key] = lineno
            raw[key] = val.strip()
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
