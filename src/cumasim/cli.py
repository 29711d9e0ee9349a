"""Command line front end.

Subcommands: presets, analyze (closed-form only), simulate (Monte Carlo
only), compare (both plus KS), sweep (figure recipes from a config file
or flags; flags given beside a file override its fields). Exit codes: 0
success, 2 validation error, 3 numerical failure. The `cumasim` command
and ``python -m cumasim`` run `entry`; `main` is the in-process call.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import sys

import numpy as np

from . import approx, harness, montecarlo
from .analytic import ChannelStats
from .geometry import PRESETS, correlation_matrix, preset_grid
from .harness import SweepSpec, evaluate_point, integer, parse_config, run_sweep
from .montecarlo import SeedSpec, SimConfig
from .specfun import DomainError, _check_delta

__all__ = ["EXIT_OK", "EXIT_VALIDATION", "EXIT_NUMERICAL", "main", "entry"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _common_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", required=True, help="named port layout, see `presets`")
    p.add_argument("--users", type=integer, default=20)
    p.add_argument("--delta", type=float, default=1.0, help="residual interference factor in (0,1]")
    p.add_argument("--gamma-th", type=float, default=1.0, help="outage rate threshold (bits)")


_SWEEP_HELP = {
    "axis": "one of users, rs, delta_b, ports",
    "values": "comma separated axis values",
    "metrics": "comma separated subset of er,op,sop,sop_lower",
    "exact": "on or off",
    "out": "CSV output path",
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cumasim", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("presets", help="list named port layouts")

    p = sub.add_parser("analyze", help="closed-form metrics only")
    _common_system_flags(p)
    p.add_argument("--rs", type=float, default=None, help="secrecy rate; needs --eve-preset")
    p.add_argument("--eve-preset", default=None)
    p.add_argument("--delta-e", type=float, default=1.0)

    p = sub.add_parser("simulate", help="Monte Carlo metrics only")
    _common_system_flags(p)
    p.add_argument("--trials", type=integer, default=10_000)
    p.add_argument("--seed", type=integer, default=0)

    p = sub.add_parser("compare", help="closed-form, exact and Monte Carlo side by side")
    _common_system_flags(p)
    p.add_argument("--trials", type=integer, default=10_000)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--exact", choices=("on", "off"), default="on")

    # one text flag per SweepSpec field, read by harness with the config
    # file's converters; a flag that is not given stays off the namespace,
    # so the file's field, or else SweepSpec's default, applies
    p = sub.add_parser(
        "sweep", help="run a sweep from a config file or flags", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--config", default=None, help="key = value sweep description; flags override its fields")
    for field in dataclasses.fields(SweepSpec):
        if field.name != "mc":
            p.add_argument("--" + field.name.replace("_", "-"), help=_SWEEP_HELP.get(field.name))
    p.add_argument("--no-mc", dest="mc", action="store_const", const="false", help="skip Monte Carlo columns")
    return ap


def _cmd_presets(args) -> int:
    print(f"{'name':<10} {'grid':>9} {'ports':>6} {'spacing (wl)':>14}")
    for name in PRESETS:
        g = preset_grid(name)
        s1, s2 = g.spacings
        print(f"{name:<10} {g.n1:>4}x{g.n2:<4} {g.total_ports:>6} {s1:>7.4f},{s2:.4f}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    if args.rs is not None and args.eve_preset is None:
        raise DomainError("--rs needs --eve-preset")
    _check_delta("delta_e", args.delta_e)
    stats = ChannelStats.from_grid(preset_grid(args.preset), args.users)
    eve = None
    if args.eve_preset is not None:
        eve = ChannelStats.from_grid(preset_grid(args.eve_preset), args.users)
    metrics = ("er", "op") if args.rs is None else ("er", "op", "sop_lower")
    point = evaluate_point(metrics, args.users, gamma_th=args.gamma_th, rs=args.rs, bob=stats, eve=eve,
                           delta_b=args.delta, delta_e=args.delta_e)
    lines = [
        f"preset = {args.preset}",
        f"users = {args.users}",
        f"nbar = {stats.nbar}",
        f"mu = {stats.mu:.9g}",
        f"sigma1_sq = {stats.sigma1_sq:.9g}",
        f"sigma2_sq = {stats.sigma2_sq:.9g}",
        f"beta = {approx.beta_I(stats, args.delta):.9g}",
    ]
    lines += [f"{metric}_approx = {cols[0]:.9g}" for metric, cols in point.items()]
    # every value is computed before the first line goes out
    print("\n".join(lines))
    return EXIT_OK


def _finite_mean(x: np.ndarray) -> float:
    """Mean of finite samples; relative to the largest where their sum overflows, as the mean never does."""
    with np.errstate(over="ignore"):
        mean = x.mean()
    if not np.isfinite(mean):
        top = x.max()
        mean = top * np.mean(x / top)
    return float(mean)


def _cmd_simulate(args) -> int:
    _check_delta("delta", args.delta)  # before the grid is factored
    config = SimConfig(corr=correlation_matrix(preset_grid(args.preset)), users=args.users)
    samples = montecarlo.sir_samples(config, args.trials, SeedSpec(args.seed)).over(args.delta)
    point = evaluate_point(("er", "op"), args.users, gamma_th=args.gamma_th, rs=None, bob_samples=samples)
    (_, _, er, er_se), (_, _, op, op_se) = point.values()
    print(f"preset = {args.preset}")
    print(f"trials = {args.trials}")
    print(f"er_mc = {er:.9g} +- {er_se:.3g}")
    print(f"op_mc[{args.gamma_th:g}] = {op:.9g} +- {op_se:.3g}")
    print(f"mean_sir = {_finite_mean(samples.sir):.9g}")
    print(f"mean_k_i = {float(samples.k_i_sizes.mean()):.9g}")
    print(f"redrawn = {samples.redrawn}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    grid = preset_grid(args.preset)
    stats = ChannelStats.from_grid(grid, args.users)
    _check_delta("delta", args.delta)  # before the grid is factored
    seed = SeedSpec(args.seed)
    config = SimConfig(corr=correlation_matrix(grid), users=args.users)
    samples = montecarlo.sir_samples(config, args.trials, seed)
    point = evaluate_point(
        ("er", "op"), args.users, gamma_th=args.gamma_th, rs=None, bob=stats, delta_b=args.delta,
        exact=args.exact == "on", bob_samples=samples,
    )
    ks_total, ks_inphase = harness.compare_distributions(config, approx.beta_I(stats), args.trials, seed)
    lines = [f"preset = {args.preset}  users = {args.users}  trials = {args.trials}"]
    for label, (closed, exact, mc, mc_se) in zip(("er", f"op[{args.gamma_th:g}]"), point.values()):
        exact_text = "" if exact is None else f"  exact = {exact:.6g}"
        lines.append(f"{label}: approx = {closed:.6g}{exact_text}  mc = {mc:.6g} +- {mc_se:.3g}")
    lines += [f"ks_total_vs_fit = {ks_total:.4f}", f"ks_inphase_vs_fit = {ks_inphase:.4f}"]
    print("\n".join(lines))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    given = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    text = None
    if args.config:
        try:
            with open(args.config, encoding="utf-8-sig") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"config {args.config} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    spec = parse_config(text, **given)
    report = run_sweep(spec)
    if not spec.out:
        sys.stdout.write(report.to_csv())
    else:
        print(f"wrote {len(report.rows)} rows to {spec.out}")
    return EXIT_OK


_COMMANDS = {
    "presets": _cmd_presets,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, OSError) as exc:  # OSError: a config or --out path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:  # QuadratureError, OverflowError, FloatingPointError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry():
    """Run `main` on the command line and exit the process with its code.

    The heap left by the imports is frozen out of the garbage collector
    first, so the exiting interpreter neither walks nor frees it. Only the
    process entry freezes: `main` leaves its caller's heap alone.
    """
    code = main()
    gc.freeze()
    sys.exit(code)
