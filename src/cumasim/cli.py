"""Command line front end.

Subcommands: presets, analyze (closed-form only), simulate (Monte Carlo
only), compare (both plus KS), sweep (figure recipes from a config file
or flags; flags given beside a file override its fields). Exit codes: 0
success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import analytic, approx, harness, montecarlo
from .analytic import ChannelStats, ExactLaw, QuadratureError
from .geometry import correlation_matrix, preset_grid, preset_names
from .harness import SweepSpec, integer, parse_config, run_sweep
from .montecarlo import SeedSpec, SimConfig
from .specfun import DomainError

__all__ = ["EXIT_OK", "EXIT_VALIDATION", "EXIT_NUMERICAL", "main"]

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


def _cmd_presets() -> int:
    print(f"{'name':<10} {'grid':>9} {'ports':>6} {'spacing (wl)':>14}")
    for name in preset_names():
        g = preset_grid(name)
        s1, s2 = g.spacings
        print(f"{name:<10} {g.n1:>4}x{g.n2:<4} {g.total_ports:>6} {s1:>7.4f},{s2:.4f}")
    return EXIT_OK


def _stats_for(args) -> ChannelStats:
    return ChannelStats.from_grid(preset_grid(args.preset), args.users, delta=args.delta)


def _cmd_analyze(args) -> int:
    stats = _stats_for(args)
    beta = approx.beta_I(stats)
    lines = [
        f"preset = {args.preset}",
        f"users = {args.users}",
        f"nbar = {stats.nbar}",
        f"mu = {stats.mu:.9g}",
        f"sigma1_sq = {stats.sigma1_sq:.9g}",
        f"sigma2_sq = {stats.sigma2_sq:.9g}",
        f"beta = {beta:.9g}",
        f"er_approx = {approx.approx_er(args.users, beta):.9g}",
        f"op_approx = {approx.approx_op(args.gamma_th, beta):.9g}",
    ]
    if args.rs is not None:
        if args.eve_preset is None:
            raise DomainError("--rs needs --eve-preset")
        eve = ChannelStats.from_grid(preset_grid(args.eve_preset), args.users, delta=args.delta_e)
        lines.append(f"sop_lower_approx = {approx.sop_lower_closed(beta, approx.beta_I(eve), args.rs):.9g}")
    # every value is computed before the first line goes out
    print("\n".join(lines))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    grid = preset_grid(args.preset)
    config = SimConfig(corr=correlation_matrix(grid), users=args.users, delta=args.delta)
    samples = montecarlo.sir_samples(config, args.trials, SeedSpec(args.seed))
    er, er_se = montecarlo.mc_estimate("er", samples, users=args.users)
    op, op_se = montecarlo.mc_estimate("op", samples, gamma_th=args.gamma_th)
    print(f"preset = {args.preset}")
    print(f"trials = {args.trials}")
    print(f"er_mc = {er:.9g} +- {er_se:.3g}")
    print(f"op_mc[{args.gamma_th:g}] = {op:.9g} +- {op_se:.3g}")
    print(f"mean_sir = {float(samples.sir.mean()):.9g}")
    print(f"mean_k_i = {float(samples.k_i_sizes.mean()):.9g}")
    print(f"redrawn = {samples.redrawn}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    grid = preset_grid(args.preset)
    stats = _stats_for(args)
    beta = approx.beta_I(stats)
    seed = SeedSpec(args.seed)
    config = SimConfig(corr=correlation_matrix(grid), users=args.users, delta=args.delta)
    samples = montecarlo.sir_samples(config, args.trials, seed)
    er, er_se = montecarlo.mc_estimate("er", samples, users=args.users)
    op, op_se = montecarlo.mc_estimate("op", samples, gamma_th=args.gamma_th)
    ks = harness.compare_distributions(config, stats, args.trials, seed)
    er_exact = op_exact = ""
    if args.exact == "on":
        law = ExactLaw.from_stats(stats)
        er_exact = f"  exact = {analytic.exact_er(args.users, law):.6g}"
        op_exact = f"  exact = {analytic.exact_op(args.gamma_th, law):.6g}"
    lines = [
        f"preset = {args.preset}  users = {args.users}  trials = {args.trials}",
        f"er: approx = {approx.approx_er(args.users, beta):.6g}{er_exact}  mc = {er:.6g} +- {er_se:.3g}",
        f"op[{args.gamma_th:g}]: approx = {approx.approx_op(args.gamma_th, beta):.6g}{op_exact}"
        f"  mc = {op:.6g} +- {op_se:.3g}",
        f"ks_total_vs_fit = {ks.ks_total:.4f}",
        f"ks_inphase_vs_fit = {ks.ks_inphase:.4f}",
    ]
    print("\n".join(lines))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    given = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    text = None
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    spec = parse_config(text, **given)
    report = run_sweep(spec)
    if not spec.out:
        sys.stdout.write(report.to_csv())
    else:
        print(f"wrote {len(report.rows)} rows to {spec.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "presets":
            return _cmd_presets()
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        raise DomainError(f"unknown command {args.command!r}")
    except (DomainError, OSError) as exc:  # OSError: a config or --out path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (QuadratureError, OverflowError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
