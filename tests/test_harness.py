import argparse
import dataclasses
import gc
import math
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from cumasim import analytic, approx, cli, harness, montecarlo
from cumasim.analytic import ChannelStats, ExactLaw
from cumasim.approx import approx_cdf_z, beta_I
from cumasim.cli import main
from cumasim.geometry import correlation_matrix, preset_grid
from cumasim.harness import (
    CSV_HEADER,
    ComparisonReport,
    SweepSpec,
    compare_distributions,
    integer,
    ks_statistic,
    parse_config,
    run_sweep,
)
from cumasim.montecarlo import SeedSpec, SimConfig, mc_stderr, sir_samples
from cumasim.specfun import DomainError


def small_spec(**kw):
    base = dict(
        axis="users",
        values=(4.0, 8.0),
        metrics=("er", "op"),
        preset="6GHz-NC",
        trials=1000,
        seed=11,
        exact="off",
    )
    base.update(kw)
    return SweepSpec(**base)


class TestSweepSpecValidation:
    def test_minimal_valid(self):
        small_spec()

    # (fields, message): the message names the check that refuses the fields
    REJECTIONS = [
        ({"metrics": ()}, "needs at least one metric"),
        ({"values": ()}, "needs at least one axis value"),
        ({"metrics": ("bogus",)}, r"unknown metrics \['bogus'\]"),
        ({"axis": "sideways"}, "axis must be one of"),
        ({"preset": "5GHz-XX"}, "unknown preset '5GHz-XX'"),
        ({"trials": 10}, "need at least 1000 trials"),
        ({"exact": "maybe"}, "exact must be one of"),
        ({"values": (4.5, 8.0)}, "users-axis values must be integers >= 2"),
        ({"exact": "auto"}, "exact must be one of"),
        ({"values": (4.0, math.nan)}, "axis values must be finite"),
        ({"values": (math.inf,)}, "axis values must be finite"),
        ({"axis": "rs", "values": (math.nan,)}, "axis values must be finite"),
        ({"axis": "ports", "preset": None, "values": (math.nan,)}, "axis values must be finite"),
        # users and delta_b are checked even where the axis replaces them
        ({"users": 1}, "need at least 2 users, got 1"),
        ({"axis": "delta_b", "values": (0.5,), "delta_b": 0.0}, r"^delta_b must lie in \(0, 1\], got 0.0"),
        # a repeated metric would print its rows twice
        ({"metrics": ("er", "op", "er")}, "each metric may appear once"),
        # the fields that only some metrics read are checked for every sweep
        ({"metrics": ("er",), "gamma_th": math.nan}, "gamma_th must be nonnegative and finite, got nan"),
        ({"gamma_th": -1.0}, "gamma_th must be nonnegative and finite, got -1.0"),
        ({"rs": -1.0}, "secrecy rate must be nonnegative and finite, got -1.0"),
        ({"axis": "rs", "values": (1.0,), "rs": math.inf}, "secrecy rate must be nonnegative and finite, got inf"),
        ({"delta_e": 2.0}, "delta_e must lie in"),
        ({"delta_e": 0.0}, "delta_e must lie in"),
        # a sweep without Monte Carlo still prints its trial count, and a
        # given eve preset is checked whatever the metrics
        ({"trials": -5, "mc": False}, "trials must be positive, got -5"),
        ({"metrics": ("er",), "eve_preset": "nonsense"}, "unknown eve preset 'nonsense'"),
        # only the ports axis builds its own grids
        ({"preset": None}, "axis 'users' requires a preset"),
        ({"axis": "delta_b", "values": (0.5, 1.5)}, r"delta_b values must lie in \(0, 1\]"),
        ({"axis": "rs", "values": (1.0, -1.0)}, "rs values must be nonnegative"),
    ]

    @pytest.mark.parametrize("kw,match", REJECTIONS, ids=[f"kw{i}" for i in range(len(REJECTIONS))])
    def test_rejections(self, kw, match):
        with pytest.raises(DomainError, match=match):
            small_spec(**kw)

    @pytest.mark.parametrize("field", ["delta_b", "delta_e"])
    def test_delta_rejection_names_its_field(self, field):
        with pytest.raises(DomainError, match=f"^{field} must lie in"):
            small_spec(**{field: 2.0})

    def test_ports_axis_conflicts_with_preset(self):
        with pytest.raises(DomainError):
            small_spec(axis="ports", values=(4.0, 6.0))

    def test_secrecy_metrics_need_eve(self):
        with pytest.raises(DomainError):
            small_spec(metrics=("sop",))

    def test_mc_off_allows_small_trials(self):
        small_spec(trials=10, mc=False)


class TestRunSweep:
    def test_users_axis_er_increases(self):
        spec = small_spec(values=(4.0, 10.0, 20.0, 30.0), trials=2000)
        report = run_sweep(spec)
        er = [r.mc_mean for r in report.rows if r.metric == "er"]
        assert len(er) == 4
        assert all(a < b for a, b in zip(er, er[1:]))

    def test_exact_column_present_when_on(self):
        spec = small_spec(values=(4.0,), metrics=("op",), trials=1000, exact="on")
        report = run_sweep(spec)
        row = report.rows[0]
        assert row.analytic_exact is not None
        assert 0.0 <= row.analytic_exact <= 1.0

    def test_closed_form_only_mode(self):
        spec = small_spec(mc=False, trials=10)
        report = run_sweep(spec)
        assert all(r.mc_mean is None for r in report.rows)
        assert all(r.analytic_approx is not None for r in report.rows)

    @pytest.mark.parametrize("eve_preset,factored", [
        ("6GHz-C", ["6GHz-NC", "6GHz-C"]),
        ("6GHz-NC", ["6GHz-NC"]),  # Bob and Eve on one grid share its factor
    ], ids=["two-grids", "one-grid"])
    def test_factor_is_built_once_per_grid(self, monkeypatch, eve_preset, factored):
        # three users-axis points share Bob's factor, and Eve's
        grids = []

        def counting(grid):
            grids.append(grid)
            return correlation_matrix(grid)

        monkeypatch.setattr(harness, "correlation_matrix", counting)
        spec = small_spec(values=(4.0, 6.0, 8.0), metrics=("er", "sop"), eve_preset=eve_preset)
        assert len(run_sweep(spec).rows) == 6
        assert grids == [preset_grid(name) for name in factored]

    @pytest.mark.parametrize("axis,values,draws", [
        ("rs", (0.0, 1.0, 2.0), 2),  # neither receiver depends on the secrecy rate
        ("delta_b", (1.0, 0.5, 0.25), 2),  # delta only scales the samples
        ("ports", (3.0, 4.0, 5.0), 4),
        ("users", (4.0, 6.0, 8.0), 6),  # both receivers change at every point
    ])
    def test_each_receiver_is_drawn_once_per_system(self, monkeypatch, axis, values, draws):
        # a receiver's samples and its exact law once per (grid, users): a
        # delta_b sweep draws Bob's samples and tabulates his law once
        calls, laws = [], []
        init = ExactLaw.__init__

        def counting(*args, **kwargs):
            calls.append(args)
            return sir_samples(*args, **kwargs)

        def tabulating(law, *args):
            laws.append(args)
            init(law, *args)

        monkeypatch.setattr(montecarlo, "sir_samples", counting)
        monkeypatch.setattr(ExactLaw, "__init__", tabulating)
        spec = small_spec(
            axis=axis, values=values, metrics=("er", "sop"), eve_preset="6GHz-C",
            preset=None if axis == "ports" else "6GHz-NC", users=6, exact="on",
        )
        assert len(run_sweep(spec).rows) == 6
        assert len(calls) == draws
        assert len(laws) == draws

    @pytest.mark.parametrize("mc", [False, True], ids=["no-mc", "mc"])
    def test_equal_receivers_share_one_law(self, monkeypatch, capsys, mc):
        # Eve with Bob's CUMA type: one stats and one law, her own samples
        argv = ["sweep", "--preset", "6GHz-NC", "--eve-preset", "6GHz-NC", "--axis", "rs", "--values", "0,1,2",
                "--metrics", "sop", "--users", "20"] + (["--trials", "1000"] if mc else ["--no-mc"])
        laws, substreams = [], []
        init = ExactLaw.__init__

        def tabulating(law, *args):
            laws.append(args)
            init(law, *args)

        def counting(*args, substream=0):
            substreams.append(substream)
            return sir_samples(*args, substream=substream)

        monkeypatch.setattr(ExactLaw, "__init__", tabulating)
        monkeypatch.setattr(montecarlo, "sir_samples", counting)
        assert main(argv) == 0
        assert len(laws) == 1
        assert substreams == ([0, 1] if mc else [])
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3 and all(row.startswith(f"{v},sop,") for row, v in zip(rows, (0, 1, 2)))

    @pytest.mark.parametrize("mc", [False, True], ids=["no-mc", "mc"])
    def test_receivers_with_other_deltas_share_one_law(self, monkeypatch, capsys, mc):
        # Bob and Eve on one grid and users, at delta_b != delta_e: one law, read at each delta
        argv = ["sweep", "--preset", "6GHz-NC", "--eve-preset", "6GHz-NC", "--axis", "delta_b", "--values", "1,0.5",
                "--delta-e", "0.25", "--metrics", "er,sop", "--users", "6"] + (["--trials", "1000"] if mc else ["--no-mc"])
        laws, substreams = [], []
        init = ExactLaw.__init__

        def tabulating(law, *args):
            laws.append(args)
            init(law, *args)

        def counting(*args, substream=0):
            substreams.append(substream)
            return sir_samples(*args, substream=substream)

        monkeypatch.setattr(ExactLaw, "__init__", tabulating)
        monkeypatch.setattr(montecarlo, "sir_samples", counting)
        assert main(argv) == 0
        assert len(laws) == 1
        assert substreams == ([0, 1] if mc else [])
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        stats = ChannelStats.from_grid(preset_grid("6GHz-NC"), 6)
        for row, delta_b in zip(rows[1::2], (1.0, 0.5)):
            law_b, law_e = stats.law.over(delta_b), stats.law.over(0.25)
            assert row[1] == "sop" and row[3] == harness._fmt(analytic.exact_sop(law_b, law_e, 1.0))

    @pytest.mark.parametrize("axis", ["users", "ports", "delta_b"])
    @pytest.mark.parametrize("metrics", [("er",), ("er", "sop")], ids=["bob", "bob-and-eve"])
    def test_a_sweep_holds_one_bob_and_one_eve(self, monkeypatch, axis, metrics):
        # a replaced receiver is released before its successor is drawn; a
        # delta_b sweep draws each receiver once
        live, others = [], []

        def counting(*args, **kwargs):
            others.append(sum(ref() is not None for ref in live))
            samples = sir_samples(*args, **kwargs)
            live.append(weakref.ref(samples))
            return samples

        monkeypatch.setattr(montecarlo, "sir_samples", counting)
        values = (1.0, 0.5, 0.25) if axis == "delta_b" else (4.0, 6.0, 8.0)
        spec = small_spec(
            axis=axis, values=values, metrics=metrics, eve_preset="6GHz-C",
            preset=None if axis == "ports" else "6GHz-NC",
        )
        run_sweep(spec)
        assert len(others) >= (len(metrics) if axis == "delta_b" else 3)
        assert max(others) <= len(metrics) - 1

    @pytest.mark.parametrize("axis,values", [("users", (4.0, 8.0)), ("ports", (4.0,))])
    def test_closed_form_only_mode_factors_nothing(self, monkeypatch, axis, values):
        def refuse(grid):
            raise AssertionError("an analytic-only sweep factored a correlation matrix")

        monkeypatch.setattr(harness, "correlation_matrix", refuse)
        spec = SweepSpec(
            axis=axis,
            values=values,
            metrics=("er", "sop"),
            preset="6GHz-NC" if axis != "ports" else None,
            eve_preset="6GHz-NC",
            trials=10,
            mc=False,
        )
        report = run_sweep(spec)
        assert len(report.rows) == 2 * len(values)
        assert all(r.mc_mean is None and r.analytic_exact is not None for r in report.rows)

    def test_secrecy_sweep_delta_axis(self):
        spec = SweepSpec(
            axis="delta_b",
            values=(1.0, 0.25),
            metrics=("sop", "sop_lower"),
            preset="6GHz-VC",
            eve_preset="6GHz-NC",
            users=20,
            rs=1.0,
            trials=1500,
            seed=3,
            exact="off",
        )
        report = run_sweep(spec)
        sop = [r.mc_mean for r in report.rows if r.metric == "sop"]
        assert sop[1] < sop[0]
        bound = [r for r in report.rows if r.metric == "sop_lower"]
        for row in bound:
            assert 0.0 <= row.analytic_approx <= 1.0

    def test_ports_axis_reports_total_ports(self):
        spec = SweepSpec(
            axis="ports",
            values=(4.0, 6.0),
            metrics=("sop",),
            eve_preset="6GHz-NC",
            users=6,
            rs=1.0,
            trials=1000,
            seed=5,
            exact="off",
        )
        report = run_sweep(spec)
        axis_vals = sorted({r.axis_value for r in report.rows})
        assert axis_vals == [61 * 4, 61 * 6]

    def test_rs_axis_monotone_bound(self):
        spec = SweepSpec(
            axis="rs",
            values=(0.0, 1.0, 3.0),
            metrics=("sop_lower",),
            preset="6GHz-NC",
            eve_preset="6GHz-NC",
            users=10,
            trials=1000,
            seed=5,
            exact="off",
            mc=False,
        )
        report = run_sweep(spec)
        vals = [r.analytic_approx for r in report.rows]
        assert vals[0] == pytest.approx(0.5, rel=1e-12)
        assert vals[0] < vals[1] < vals[2]


class TestEvaluatePoint:
    @pytest.fixture(scope="class")
    def point_inputs(self):
        bob = ChannelStats.from_grid(preset_grid("6GHz-NC"), 6)
        eve = ChannelStats.from_grid(preset_grid("6GHz-C"), 6)
        seed = SeedSpec(13)
        bob_samples = sir_samples(SimConfig(correlation_matrix(preset_grid("6GHz-NC")), 6), 1000, seed, substream=0)
        eve_samples = sir_samples(SimConfig(correlation_matrix(preset_grid("6GHz-C")), 6), 1000, seed, substream=1)
        return dict(bob=bob, eve=eve, bob_samples=bob_samples, eve_samples=eve_samples)

    def test_every_route_of_every_metric(self, point_inputs):
        bob, eve = point_inputs["bob"], point_inputs["eve"]
        point = harness.evaluate_point(harness._METRICS, 6, gamma_th=1.0, rs=0.5, exact=True, **point_inputs)
        law_b, law_e = bob.law, eve.law
        beta_b, beta_e = beta_I(bob), beta_I(eve)
        samples = (point_inputs["bob_samples"], point_inputs["eve_samples"])
        # the Monte Carlo mean is the exact metric function on the sample sets
        want = {
            "er": (approx.approx_er(6, beta_b), analytic.exact_er(6, law_b), analytic.exact_er(6, samples[0])),
            "op": (approx.approx_op(1.0, beta_b), analytic.exact_op(1.0, law_b), analytic.exact_op(1.0, samples[0])),
            "sop": (approx.sop_lower_closed(beta_b, beta_e, 0.5), analytic.exact_sop(law_b, law_e, 0.5),
                    analytic.exact_sop(*samples, 0.5)),
            "sop_lower": (approx.sop_lower_closed(beta_b, beta_e, 0.5), analytic.sop_lower_numeric(law_b, law_e, 0.5),
                          analytic.sop_lower_numeric(*samples, 0.5)),
        }
        for metric, cols in want.items():
            se = mc_stderr(metric, *samples, users=6, gamma_th=1.0, rs=0.5)
            assert point[metric] == (*cols, se)

    def test_a_column_needs_its_input(self, point_inputs, monkeypatch):
        def refuse(stats):
            raise AssertionError("a law was read without exact=True")

        # a property outranks the law already cached on the fixture's stats
        monkeypatch.setattr(ChannelStats, "law", property(refuse))
        closed = harness.evaluate_point(("er", "sop"), 6, gamma_th=1.0, rs=0.5, bob=point_inputs["bob"],
                                        eve=point_inputs["eve"])
        assert all(cols[0] is not None and cols[1:] == (None, None, None) for cols in closed.values())
        mc = harness.evaluate_point(("er", "sop"), 6, gamma_th=1.0, rs=0.5, exact=True,
                                    bob_samples=point_inputs["bob_samples"], eve_samples=point_inputs["eve_samples"])
        assert all(cols[:2] == (None, None) and None not in cols[2:] for cols in mc.values())

    def test_rejections(self, point_inputs):
        with pytest.raises(DomainError, match="unknown metrics"):
            harness.evaluate_point(("bogus",), 6, gamma_th=1.0, rs=0.5, bob=point_inputs["bob"])
        with pytest.raises(DomainError, match="Eve"):
            harness.evaluate_point(("sop",), 6, gamma_th=1.0, rs=0.5, bob=point_inputs["bob"])
        for metric in ("sop", "sop_lower"):
            with pytest.raises(DomainError, match=f"{metric} needs Eve's samples"):
                harness.evaluate_point((metric,), 6, gamma_th=1.0, rs=0.5, bob_samples=point_inputs["bob_samples"])
        one = dataclasses.replace(point_inputs["bob_samples"], sir=np.ones(1))
        with pytest.raises(DomainError, match="needs at least 2 samples, got 1"):
            harness.evaluate_point(("er",), 6, gamma_th=1.0, rs=0.5, bob_samples=one)


class TestCsv:
    def test_golden_mc_columns(self):
        # all four Monte Carlo columns of one small sweep, frozen from the
        # first run of the one-generator-per-block stream on the
        # reflection-folded factor at this seed (secrecy over all Bob/Eve pairs)
        spec = SweepSpec(
            axis="delta_b",
            values=(1.0, 0.25),
            metrics=("er", "op", "sop", "sop_lower"),
            preset="6GHz-NC",
            eve_preset="6GHz-C",
            users=6,
            rs=0.5,
            trials=1000,
            seed=13,
            exact="off",
        )
        cells = [line.split(",") for line in run_sweep(spec).to_csv().splitlines()[1:]]
        assert [",".join(c[:2] + c[4:6]) for c in cells] == [
            "1,er,16.4107138673,0.151238089934",
            "1,op,0.003,0.00172945077987",
            "1,sop,0.69455,0.0116500452598",
            "1,sop_lower,0.665564,0.0120009062808",
            "0.25,er,27.1922620792,0.170451043098",
            "0.25,op,0,0",
            "0.25,sop,0.143046,0.00828440070633",
            "0.25,sop_lower,0.135143,0.00804432982568",
        ]

    def test_header_and_shape(self):
        report = run_sweep(small_spec())
        text = report.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(report.rows)

    def test_byte_identical_reruns(self):
        a = run_sweep(small_spec()).to_csv()
        b = run_sweep(small_spec()).to_csv()
        assert a == b

    def test_write(self, tmp_path):
        out = tmp_path / "sweep.csv"
        spec = small_spec(out=str(out))
        run_sweep(spec)
        content = out.read_text()
        assert content.startswith(CSV_HEADER)
        assert content == run_sweep(small_spec()).to_csv().replace("", "")


class TestExactMode:
    def test_default_fills_exact_columns_at_thirty_users(self):
        spec = SweepSpec(axis="users", values=(30.0,), metrics=("er", "op"), preset="6GHz-NC", trials=10, mc=False)
        assert spec.exact == parse_config(TestConfigParsing.GOOD.replace("exact = off", "")).exact == "on"
        rows = run_sweep(spec).rows
        assert all(r.analytic_exact is not None for r in rows)
        assert 0.0 < rows[1].analytic_exact < 1.0

    def test_auto_is_rejected(self, tmp_path, capsys):
        # SweepSpec itself: TestSweepSpecValidation::test_rejections
        cfg = tmp_path / "auto.cfg"
        cfg.write_text(TestConfigParsing.GOOD.replace("exact = off", "exact = auto"))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert main(["compare", "--preset", "6GHz-NC", "--users", "8", "--exact", "auto"]) == 2
        assert main([
            "sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "4",
            "--metrics", "er", "--exact", "auto",
        ]) == 2


class TestKsStatistic:
    def test_uniform_samples_vs_identity(self, rng):
        u = rng.random(20_000)
        ks = ks_statistic(u, lambda x: np.clip(x, 0.0, 1.0))
        assert ks < 0.02

    def test_own_empirical_cdf(self, rng):
        x = np.sort(rng.normal(size=500))
        cdf = lambda v: np.searchsorted(x, v, side="right") / len(x)
        assert ks_statistic(x, cdf) <= 1.0 / len(x) + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ks_statistic(np.array([]), lambda x: x)

    @pytest.mark.parametrize("law", ["exponential", "gamma_half", "exact"])
    def test_matches_scalar_loop(self, law, case1_stats):
        # one vectorised CDF call gives the statistic of the per-sample loop
        beta = 2.3
        cdfs = {
            "exponential": (lambda x: approx_cdf_z(x, beta), lambda x: -math.expm1(-x / beta) if x > 0 else 0.0),
            "gamma_half": (
                lambda x: erf(np.sqrt(np.maximum(x, 0.0) / beta)),
                lambda x: math.erf(math.sqrt(max(x, 0.0) / beta)),
            ),
            "exact": (case1_stats.law.cdf, case1_stats.law.cdf),
        }
        vec, scalar = cdfs[law]
        x = np.sort(np.random.default_rng(3).exponential(beta, 2000))
        f = np.array([float(scalar(float(v))) for v in x])
        n = len(x)
        want = max(np.max(np.abs(np.arange(1, n + 1) / n - f)), np.max(np.abs(np.arange(n) / n - f)))
        assert abs(ks_statistic(x, vec) - want) <= 1e-15


@pytest.fixture(scope="module")
def nc_system():
    grid = preset_grid("6GHz-NC")
    return SimConfig(corr=correlation_matrix(grid), users=20), ChannelStats.from_grid(grid, 20)


@pytest.fixture(scope="module")
def nc_samples(nc_system):
    return sir_samples(nc_system[0], 20_000, SeedSpec(5))


class TestCompareDistributions:
    def test_exact_distribution_tracks_simulation(self, nc_system, nc_samples):
        # the analytic chain is a Gaussian surrogate of the true port
        # selection; at this layout the gap stays near 0.1
        assert ks_statistic(nc_samples.sir, nc_system[1].law.cdf) < 0.12

    def test_fit_distance_reported(self, nc_system, nc_samples):
        # the raw samples against the raw-SIR scale beta_I
        beta = beta_I(nc_system[1])
        ks_total, ks_inphase = compare_distributions(nc_system[0], beta, 20_000, SeedSpec(5))
        assert ks_total == ks_statistic(nc_samples.sir, lambda x: approx_cdf_z(x, beta))
        assert ks_inphase == ks_statistic(nc_samples.sir_i, lambda x: erf(np.sqrt(x / beta)))
        assert 0.0 <= ks_total <= 1.0
        assert 0.0 <= ks_inphase <= 1.0

    def test_negative_control_detects_misfit(self, nc_system, nc_samples):
        beta = 2.0 * beta_I(nc_system[1])
        assert ks_statistic(nc_samples.sir[:2000], lambda x: approx_cdf_z(x, beta)) > 0.1


class TestConfigParsing:
    GOOD = """
    # sweep description
    schema = 1
    preset = 6GHz-NC
    axis = users
    values = 4, 8, 12
    metrics = er, op
    trials = 2000
    seed = 9
    exact = off
    """

    def test_roundtrip(self):
        spec = parse_config(self.GOOD)
        assert spec.axis == "users"
        assert spec.values == (4.0, 8.0, 12.0)
        assert spec.metrics == ("er", "op")
        assert spec.trials == 2000
        assert spec.seed == 9

    def test_integer_reader(self):
        for text, want in (("20", 20), (" 20.0 ", 20), ("1e3", 1000), ("-3.0", -3), (str(2**64 - 1), 2**64 - 1)):
            assert integer(text) == want
        for text in ("20.5", "inf", "-inf", "nan", "abc", "", "1e16", "9007199254740993.0"):
            with pytest.raises(ValueError):
                integer(text)
        assert parse_config(self.GOOD.replace("trials = 2000", "trials = 2e3")).trials == 2000
        with pytest.raises(DomainError, match="sweep field seed"):
            parse_config(self.GOOD.replace("seed = 9", "seed = 9.5"))

    def test_schema_required(self):
        with pytest.raises(DomainError):
            parse_config("preset = 6GHz-NC\naxis = users\nvalues = 4\nmetrics = er")

    def test_unsupported_schema_rejected(self):
        with pytest.raises(DomainError, match="unsupported sweep schema 2"):
            parse_config(self.GOOD.replace("schema = 1", "schema = 2"))

    def test_bad_boolean_rejected(self):
        with pytest.raises(DomainError):
            parse_config(self.GOOD + "\nmc = maybe")

    def test_unknown_field_rejected(self):
        with pytest.raises(DomainError):
            parse_config(self.GOOD + "\nwarp_factor = 9")

    def test_malformed_line(self):
        with pytest.raises(DomainError):
            parse_config("schema = 1\nnonsense line")

    def test_given_fields_override_the_file(self):
        spec = parse_config(self.GOOD, seed="3", mc="false", metrics="op")
        assert (spec.seed, spec.mc, spec.metrics) == (3, False, ("op",))
        # fields given nowhere else keep the file's values, and the rest SweepSpec's defaults
        assert (spec.trials, spec.values, spec.exact, spec.users) == (2000, (4.0, 8.0, 12.0), "off", 20)

    def test_required_field_may_come_from_outside(self):
        text = self.GOOD.replace("metrics = er, op", "")
        with pytest.raises(DomainError, match="missing metrics"):
            parse_config(text)
        assert parse_config(text, metrics="er").metrics == ("er",)

    def test_fields_without_a_file(self):
        spec = parse_config(None, axis="users", values="4, 8", metrics="er", preset="6GHz-NC", users="6")
        assert spec == SweepSpec(axis="users", values=(4.0, 8.0), metrics=("er",), preset="6GHz-NC", users=6)
        with pytest.raises(DomainError, match="missing values, metrics"):
            parse_config(None, axis="users")

    def test_field_set_twice_rejected(self, tmp_path, capsys):
        # the GOOD text sets values on its line 6; the appended line is 12
        with pytest.raises(DomainError, match="config field values is set twice, on lines 6 and 12"):
            parse_config(self.GOOD + "\nvalues = 5")
        with pytest.raises(DomainError, match="config field seed is set twice"):
            parse_config(self.GOOD + "\nSeed = 3")
        with pytest.raises(DomainError, match="config field schema is set twice, on lines 1 and 2"):
            parse_config("schema = 1\nschema = 1\n" + self.GOOD.replace("schema = 1", ""))
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("schema = 1\npreset = 6GHz-NC\naxis = users\nvalues = 3\nvalues = 5\nmetrics = er\n")
        assert main(["sweep", "--config", str(cfg), "--no-mc"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config field values is set twice, on lines 4 and 5" in captured.err
        # a flag beside the file still overrides a field the file sets once
        cfg.write_text("schema = 1\npreset = 6GHz-NC\naxis = users\nvalues = 3\nmetrics = er\n")
        assert main(["sweep", "--config", str(cfg), "--no-mc", "--values", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("5,er,")

    def test_channel_power_is_no_field(self):
        # the package fixes the channel power at 1; omega is no key
        with pytest.raises(DomainError, match="unknown config fields: omega"):
            parse_config(self.GOOD + "\nomega = 1")


class TestCli:
    def test_presets(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "6GHz-NC" in out and "40GHz-VC" in out

    GOLDEN_STDOUT = {
        "analyze --preset 6GHz-NC --users 12": (
            "preset = 6GHz-NC\nusers = 12\nnbar = 28\nmu = 7.89865417\nsigma1_sq = 3.82407756\n"
            "sigma2_sq = 5.81492297\nbeta = 1523087\ner_approx = 236.470016\nop_approx = 6.56561098e-07\n"
        ),
        "analyze --preset 6GHz-VC --users 12 --rs 1 --eve-preset 6GHz-NC": (
            "preset = 6GHz-VC\nusers = 12\nnbar = 244\nmu = 68.8311292\nsigma1_sq = 303.541449\n"
            "sigma2_sq = 220.498569\nbeta = 1572904.09\ner_approx = 237.027199\nop_approx = 6.3576647e-07\n"
            "sop_lower_approx = 0.659476618\n"
        ),
        "simulate --preset 6GHz-NC --users 8 --trials 1500 --seed 3": (
            "preset = 6GHz-NC\ntrials = 1500\ner_mc = 17.6865209 +- 0.122\nop_mc[1] = 0.00866666667 +- 0.00239\n"
            "mean_sir = 4.05951807\nmean_k_i = 13.96\nredrawn = 0\n"
        ),
        "compare --preset 6GHz-NC --users 8 --trials 1500 --seed 3 --exact off": (
            "preset = 6GHz-NC  users = 8  trials = 1500\ner: approx = 163.161  mc = 17.6865 +- 0.122\n"
            "op[1]: approx = 4.07171e-07  mc = 0.00866667 +- 0.00239\nks_total_vs_fit = 1.0000\n"
            "ks_inphase_vs_fit = 0.9968\n"
        ),
        "sweep --preset 6GHz-NC --eve-preset 6GHz-C --axis rs --values 0,1,2 --metrics sop,sop_lower "
        "--users 8 --trials 1000 --seed 3 --exact off": (
            f"{CSV_HEADER}\n0,sop,0.535978121092,,0.543286,0.0128592450241,1000,3\n"
            "0,sop_lower,0.535978121092,,0.543286,0.0128592450241,1000,3\n"
            "1,sop,0.697898119422,,0.902823,0.00671527976516,1000,3\n"
            "1,sop_lower,0.697898119422,,0.850601,0.00843656999682,1000,3\n"
            "2,sop,0.822073022449,,0.992115,0.00154517931941,1000,3\n"
            "2,sop_lower,0.822073022449,,0.974342,0.00289113138974,1000,3\n"
        ),
        "sweep --axis ports --values 3,4 --eve-preset 6GHz-NC --metrics sop,er --users 6 --trials 1000 "
        "--seed 5 --exact off": (
            f"{CSV_HEADER}\n183,sop,0.976457974599,,0.866719,0.00798320070971,1000,5\n"
            "183,er,99.2822627063,,15.1780930733,0.146638893161,1000,5\n"
            "244,sop,0.659476617873,,0.807971,0.00965060259509,1000,5\n"
            "244,er,125.805746327,,16.8198723612,0.146532128772,1000,5\n"
        ),
        "compare --preset 6GHz-NC --users 8 --trials 1000 --seed 5 --exact on": (
            "preset = 6GHz-NC  users = 8  trials = 1000\ner: approx = 163.161  exact = 18.4571  mc = 17.6566 +- 0.16\n"
            "op[1]: approx = 4.07171e-07  exact = 0.0099498  mc = 0.009 +- 0.00299\nks_total_vs_fit = 1.0000\n"
            "ks_inphase_vs_fit = 0.9965\n"
        ),
        "sweep --preset 6GHz-VC --eve-preset 6GHz-NC --axis rs --values 0,1,2 --metrics er,op,sop,sop_lower "
        "--users 20 --no-mc": (
            f"{CSV_HEADER}\n0,er,378.72481213,36.2737451208,,,10000,0\n"
            "0,op,1.11930544828e-06,0.0288662365036,,,10000,0\n"
            "0,sop,0.491954580328,0.130230889249,,,10000,0\n"
            "0,sop_lower,0.491954580328,0.130230889249,,,10000,0\n"
            "1,er,378.72481213,36.2737451208,,,10000,0\n"
            "1,op,1.11930544828e-06,0.0288662365036,,,10000,0\n"
            "1,sop,0.659476617873,0.746819334965,,,10000,0\n"
            "1,sop_lower,0.659476617873,0.498597216916,,,10000,0\n"
            "2,er,378.72481213,36.2737451208,,,10000,0\n"
            "2,op,1.11930544828e-06,0.0288662365036,,,10000,0\n"
            "2,sop,0.794800735088,0.992424879111,,,10000,0\n"
            "2,sop_lower,0.794800735088,0.869072763714,,,10000,0\n"
        ),
        # Monte Carlo at delta != 1: samples drawn at delta = 1 and read at delta
        "sweep --preset 6GHz-VC --eve-preset 6GHz-NC --axis delta_b --values 1,0.3,0.07 "
        "--metrics er,op,sop,sop_lower --users 8 --trials 1000 --seed 4 --exact off": (
            f"{CSV_HEADER}\n1,er,163.532464549,,18.1692651584,0.154083433168,1000,4\n"
            "1,op,3.94274597367e-07,,0.006,0.00244213021766,1000,4\n"
            "1,sop,0.659476617873,,0.866904,0.00787631652043,1000,4\n"
            "1,sop_lower,0.659476617873,,0.799933,0.00966751239036,1000,4\n"
            "0.3,er,177.428142627,,30.052712106,0.180760875073,1000,4\n"
            "0.3,op,1.18282395533e-07,,0,0,1000,4\n"
            "0.3,sop,0.367487639105,,0.280834,0.0112882638962,1000,4\n"
            "0.3,sop_lower,0.367487639105,,0.231854,0.0103961161305,1000,4\n"
            "0.07,er,194.224411342,,46.0820794889,0.192430111149,1000,4\n"
            "0.07,op,2.75992268757e-08,,0,0,1000,4\n"
            "0.07,sop,0.119381809185,,0.004967,0.000950902748991,1000,4\n"
            "0.07,sop_lower,0.119381809185,,0.004111,0.000827724885748,1000,4\n"
        ),
        "compare --preset 6GHz-C --users 8 --delta 0.3 --trials 1500 --seed 3 --exact off": (
            "preset = 6GHz-C  users = 8  trials = 1500\ner: approx = 178.721  mc = 30.4248 +- 0.153\n"
            "op[1]: approx = 1.05752e-07  mc = 0 +- 0\nks_total_vs_fit = 1.0000\n"
            "ks_inphase_vs_fit = 0.9970\n"
        ),
        "simulate --preset 6GHz-NC --users 8 --delta 0.3 --trials 1500 --seed 3": (
            "preset = 6GHz-NC\ntrials = 1500\ner_mc = 29.4856287 +- 0.144\nop_mc[1] = 0 +- 0\n"
            "mean_sir = 13.5317269\nmean_k_i = 13.96\nredrawn = 0\n"
        ),
        # exact columns in the far tail (OP near 1e-55 and below)
        "sweep --preset 26GHz-C --eve-preset 6GHz-NC --axis delta_b --values 1,0.1,0.01 "
        "--metrics er,op,sop,sop_lower --users 10 --no-mc": (
            f"{CSV_HEADER}\n1,er,2998.96551309,62.6400528397,,,10000,0\n"
            "1,op,2.9611532331e-91,9.37462418244e-55,,,10000,0\n"
            "1,sop,1.11360345335e-84,0.000113375815725,,,10000,0\n"
            "1,sop_lower,1.11360345335e-84,0.000101858763287,,,10000,0\n"
            "0.1,er,3032.18479404,95.6765249782,,,10000,0\n"
            "0.1,op,2.9611532331e-92,1.96695527921e-85,,,10000,0\n"
            "0.1,sop,1.11360345335e-85,3.29564070937e-09,,,10000,0\n"
            "0.1,sop_lower,1.11360345335e-85,3.261001659e-09,,,10000,0\n"
            "0.01,er,3065.40407499,128.87737876,,,10000,0\n"
            "0.01,op,2.9611532331e-93,4.96147681131e-92,,,10000,0\n"
            "0.01,sop,1.11360345335e-86,1.03845838387e-13,,,10000,0\n"
            "0.01,sop_lower,1.11360345335e-86,1.03736151351e-13,,,10000,0\n"
        ),
    }

    @pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
    def test_golden_stdout(self, command, capsys):
        # the whole report, byte for byte: the other CLI tests check substrings
        assert main(command.split()) == 0
        assert capsys.readouterr().out == self.GOLDEN_STDOUT[command]

    def test_sweep_config_file(self, tmp_path, capsys):
        # a config saved with a UTF-8 byte-order mark is the same config
        rows = {}
        for name, bom in (("plain", ""), ("bom", "\ufeff")):
            cfg = tmp_path / f"{name}.cfg"
            out = tmp_path / f"{name}.csv"
            cfg.write_text(
                f"{bom}schema = 1\npreset = 6GHz-NC\naxis = users\nvalues = 4, 6\n"
                f"metrics = er\ntrials = 1000\nseed = 2\nexact = off\nout = {out}\n",
                encoding="utf-8",
            )
            assert main(["sweep", "--config", str(cfg)]) == 0
            rows[name] = out.read_text()
        assert rows["plain"].startswith(CSV_HEADER)
        assert rows["bom"] == rows["plain"]

    def test_sweep_inline_flags(self, capsys):
        rc = main([
            "sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "4,6",
            "--metrics", "er", "--trials", "1000", "--seed", "2", "--exact", "off",
        ])
        assert rc == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_unknown_preset_is_validation_error(self, capsys):
        assert main(["analyze", "--preset", "9GHz-XL", "--users", "8"]) == 2
        # Eve's preset is read even without --rs
        assert main(["analyze", "--preset", "6GHz-NC", "--users", "3", "--eve-preset", "6GHz-XX"]) == 2
        assert capsys.readouterr().out == ""

    def test_bad_config_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("axis = users\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        # a file that is not UTF-8 text, such as a binary, is refused by name
        cfg.write_bytes(b"axis = users\n\xff\xfe\x00")
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(cfg) in captured.err and "UTF-8" in captured.err

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent/x.cfg"]) == 2

    @pytest.mark.parametrize("flag", ["--config", "--out"])
    def test_unopenable_path_is_validation_error(self, flag, tmp_path, capsys):
        # a directory can be neither read as a config nor written as the CSV
        argv = ["sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "4", "--metrics", "er",
                "--exact", "off", "--no-mc", flag, str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(tmp_path) in captured.err

    def test_oversized_factor_is_validation_error(self, capsys):
        # 331 rows of the ports axis, the first the factor's budget refuses,
        # are 20,191 ports: refused before any array is built
        assert main(["sweep", "--axis", "ports", "--values", "331", "--metrics", "er", "--trials", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "GiB budget" in captured.err

    INTEGER_ARGV = {
        "analyze": ["analyze", "--preset", "6GHz-NC", "--users"],
        "simulate": ["simulate", "--preset", "6GHz-NC", "--users", "8", "--seed", "3", "--trials"],
        "sweep": ["sweep", "--preset", "6GHz-NC", "--axis", "rs", "--values", "1", "--metrics", "er",
                  "--exact", "off", "--no-mc", "--users"],
    }

    @pytest.mark.parametrize("command", sorted(INTEGER_ARGV))
    def test_integral_floats_read_as_integers(self, command, capsys):
        argv = self.INTEGER_ARGV[command]
        outputs = []
        for text in ("1000", "1000.0", "1e3"):
            assert main([*argv, text]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1:] == outputs[:1] * 2
        for text in ("1000.5", "inf", "nan"):
            assert main([*argv, text]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and text in captured.err

    def test_bad_flag_usage(self, capsys):
        assert main(["analyze"]) == 2

    @pytest.mark.parametrize("command", ["analyze", "simulate", "compare"])
    def test_omega_flag_is_gone(self, command, capsys):
        assert main([command, "--preset", "6GHz-NC", "--users", "8", "--omega", "2"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "flags,kw",
        [
            # given flags override the file's seed, trials, metrics and mc
            (["--seed", "5", "--trials", "1000", "--metrics", "op", "--no-mc"],
             {"seed": 5, "trials": 1000, "metrics": ("op",), "mc": False}),
            # flags not given leave the file's seed and trials
            (["--metrics", "er", "--no-mc", "--users", "6"], {"metrics": ("er",), "mc": False, "users": 6}),
        ],
    )
    def test_sweep_flags_override_the_config(self, tmp_path, capsys, flags, kw):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TestConfigParsing.GOOD)
        assert main(["sweep", "--config", str(cfg), *flags]) == 0
        file_fields = dict(axis="users", values=(4.0, 8.0, 12.0), metrics=("er", "op"), preset="6GHz-NC",
                           trials=2000, seed=9, exact="off")
        assert capsys.readouterr().out == run_sweep(SweepSpec(**{**file_fields, **kw})).to_csv()

    def test_sweep_flags_are_the_spec_fields(self):
        sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices["sweep"]._actions} - {"help"}
        assert dests == {f.name for f in dataclasses.fields(SweepSpec)} | {"config"}

    @pytest.mark.parametrize(
        "field,text,want",
        [
            ("values", "4,6", (4.0, 6.0)),
            ("values", " 4 , 6 ", (4.0, 6.0)),
            ("values", "4,,5", None),
            ("values", "4,6,", None),
            ("values", "4 6", None),
            ("values", "4,abc", None),
            ("metrics", "er,op", ("er", "op")),
            ("metrics", " er , op ", ("er", "op")),
            ("metrics", "er,,op", None),
            ("metrics", "er op", None),
        ],
    )
    def test_flag_and_config_line_share_one_grammar(self, tmp_path, monkeypatch, capsys, field, text, want):
        specs = []
        monkeypatch.setattr(cli, "run_sweep", lambda spec: specs.append(spec) or ComparisonReport(rows=()))
        fields = {"preset": "6GHz-NC", "axis": "users", "values": "4", "metrics": "er", field: text}
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("schema = 1\n" + "".join(f"{k} = {v}\n" for k, v in fields.items()))
        flags = [arg for key, val in fields.items() for arg in (f"--{key}", val)]
        codes = [main(["sweep", *flags]), main(["sweep", "--config", str(cfg)])]
        if want is None:
            assert codes == [2, 2] and specs == []
            assert capsys.readouterr().out == ""
        else:
            assert codes == [0, 0]
            base = dict(axis="users", values=(4.0,), metrics=("er",), preset="6GHz-NC")
            assert specs == [SweepSpec(**{**base, field: want})] * 2

    def test_zero_rate_threshold_is_no_outage(self, capsys):
        # 2^0 - 1 = 0: no SIR lies below it, in every column
        rc = main(["sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "4", "--gamma-th", "0",
                   "--metrics", "op", "--trials", "1000"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [[float(c) for c in row.split(",")[2:6]] for row in rows] == [[0.0, 0.0, 0.0, 0.0]]

    def test_config_file_with_omega_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TestConfigParsing.GOOD + "omega = 1\n")
        assert main(["sweep", "--config", str(cfg), "--no-mc"]) == 2
        assert "unknown config fields: omega" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "4", "--gamma-th", "1e308",
             "--metrics", "op"],
            ["sweep", "--preset", "6GHz-NC", "--eve-preset", "6GHz-NC", "--axis", "rs", "--values", "1e308",
             "--metrics", "sop,sop_lower", "--users", "4"],
            # 2^1000 is finite, but its products with the laws' upper nodes
            # overflow to inf, the intended limit, without a warning
            ["sweep", "--preset", "6GHz-NC", "--eve-preset", "6GHz-NC", "--axis", "rs", "--values", "1000",
             "--metrics", "sop,sop_lower", "--users", "4"],
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_huge_threshold_gives_the_limit(self, argv, capsys):
        # 2^1e308 overflows; outage and secrecy outage are then certain in
        # every column (the exact ones within the law's mass tolerance)
        assert main([*argv, "--trials", "1000", "--seed", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == argv.count("op") + 2 * argv.count("sop,sop_lower")
        for row in rows:
            approx_val, exact_val, mc_mean, mc_se = (float(c) for c in row.split(",")[2:6])
            assert (approx_val, mc_mean, mc_se) == (1.0, 1.0, 0.0)
            assert exact_val == pytest.approx(1.0, abs=2e-8)

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--preset", "6GHz-NC", "--rs", "nan", "--eve-preset", "6GHz-NC"],
            ["analyze", "--preset", "6GHz-NC", "--rs", "1"],
            ["analyze", "--preset", "6GHz-NC", "--gamma-th", "-1"],
            ["compare", "--preset", "6GHz-NC", "--users", "8", "--trials", "200", "--gamma-th", "-1"],
            ["simulate", "--preset", "6GHz-NC", "--users", "8", "--trials", "200", "--gamma-th", "-1"],
            ["sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "4", "--metrics", "er,op,er",
             "--no-mc", "--exact", "off"],
        ],
    )
    def test_failed_report_prints_nothing(self, argv, capsys):
        # every value is computed before the first line is printed
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("command", [
        ["analyze"], ["simulate", "--trials", "1000"], ["compare", "--trials", "1000"],
    ], ids=["analyze", "simulate", "compare"])
    @pytest.mark.parametrize("delta", ["0", "1.5", "nan"])
    def test_delta_rejection(self, command, delta, capsys):
        assert main([*command, "--preset", "6GHz-NC", "--users", "3", "--delta", delta]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: delta must lie in (0, 1], got {float(delta)}\n"

    def test_eve_delta_rejection_names_its_flag(self, capsys):
        argv = ["analyze", "--preset", "6GHz-NC", "--users", "3", "--eve-preset", "6GHz-NC", "--delta-e", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: delta_e must lie in (0, 1], got 2.0\n"

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_single_trial_is_validation_error(self, command, capsys):
        rc = main([command, "--preset", "6GHz-NC", "--users", "8", "--trials", "1", "--seed", "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "at least 2 samples" in captured.err
        assert "nan" not in captured.out

    def test_simulate_trial_cap_is_validation_error(self, capsys):
        rc = main(["simulate", "--preset", "6GHz-NC", "--users", "8", "--trials", str(10**12)])
        assert rc == 2
        assert "GiB of samples" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "4,,5", "--metrics", "er", "--no-mc"],
            ["sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "4,abc", "--metrics", "er", "--no-mc"],
            ["sweep", "--preset", "6GHz-NC", "--axis", "rs", "--values", "nan", "--metrics", "er", "--no-mc"],
            ["sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "4", "--gamma-th", "nan",
             "--metrics", "op", "--no-mc"],
            ["analyze", "--preset", "6GHz-NC", "--users", "8", "--gamma-th", "nan"],
            ["analyze", "--preset", "6GHz-NC", "--users", "8", "--rs", "nan", "--eve-preset", "6GHz-NC"],
            ["simulate", "--preset", "6GHz-NC", "--users", "8", "--trials", "100", "--gamma-th", "nan"],
            ["analyze", "--preset", "6GHz-NC", "--users", "3", "--eve-preset", "6GHz-NC", "--delta-e", "2"],
            # checked even where no metric reads them
            ["analyze", "--preset", "6GHz-NC", "--users", "3", "--delta-e", "5"],
            ["sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "3", "--metrics", "er", "--no-mc",
             "--exact", "off", "--trials", "-5"],
            ["sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "3", "--metrics", "er", "--no-mc",
             "--eve-preset", "nonsense"],
        ],
    )
    def test_unusable_numbers_are_validation_errors(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "nan" not in captured.out

    @pytest.mark.filterwarnings("error")
    def test_unusable_law_scale_is_numerical_failure(self, capsys):
        cases = [
            # 1e308 users: the exact law's scale, the mean SIR, underflows to zero
            (["sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "1e308", "--metrics", "er", "--no-mc"],
             "law scale"),
            # delta = 1e-300 at 3 users: the law's table would reach z = e^729
            (["compare", "--preset", "6GHz-NC", "--users", "3", "--trials", "1000", "--delta", "1e-300"],
             "past the float range"),
            (["sweep", "--preset", "6GHz-NC", "--axis", "delta_b", "--values", "1e-300", "--users", "3",
              "--metrics", "er", "--no-mc"], "past the float range"),
            # delta = 1e-320: the closed-form scale beta_I passes the float range
            (["analyze", "--preset", "6GHz-NC", "--delta", "1e-320"], "beta_I = e^"),
            # delta = 1e-300 at 2 users: a trial's nu / xi overflows to inf;
            # at 1e-305 the two branches' finite ratios overflow their sum
            (["simulate", "--preset", "6GHz-NC", "--users", "2", "--trials", "1000", "--delta", "1e-300"],
             "not finite"),
            (["simulate", "--preset", "6GHz-NC", "--users", "2", "--trials", "1000", "--delta", "1e-305"],
             "not finite"),
            # delta = 5e-324: every sample read at delta overflows
            (["sweep", "--preset", "6GHz-NC", "--axis", "delta_b", "--values", "5e-324", "--metrics", "er",
              "--users", "3", "--trials", "1000", "--exact", "off"], "not finite"),
            # 1500 users on 40GHz-NC: the density is finite, but 0.5-wide panels
            # no longer resolve the law, whose table misses its mass check
            (["sweep", "--preset", "40GHz-NC", "--axis", "users", "--values", "1500", "--metrics", "er,op", "--no-mc",
              "--exact", "on"], "tabulated law has mass"),
        ]
        for argv, message in cases:
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err and "RuntimeWarning" not in captured.err

    @pytest.mark.filterwarnings("error")
    def test_large_user_count_gives_finite_exact_columns(self, capsys):
        # 1F1 at 2999 interferers passes e^700 from t ~ 95; its log does not
        argv = ["sweep", "--preset", "26GHz-NC", "--axis", "users", "--values", "3000", "--metrics", "er,op", "--no-mc"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        assert [row[:2] for row in rows] == [["3000", "er"], ["3000", "op"]]
        assert all(math.isfinite(float(row[3])) for row in rows) and captured.err == ""

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sample_sum_gives_a_finite_mean(self, capsys):
        # every sample is finite but their sum overflows; the mean is at most the largest sample
        argv = ["simulate", "--preset", "6GHz-NC", "--users", "5", "--delta", "1e-305", "--trials", "1000", "--seed", "1"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        values = [float(v) for line in lines[1:] for v in line.split(" = ")[1].split(" +- ")]
        assert lines[4].startswith("mean_sir = ") and all(math.isfinite(v) for v in values)

    def test_oversized_offset_table_is_validation_error(self, capsys):
        # a --no-mc ports sweep builds no factor, but its offset table has
        # 61 x 1e30 entries: refused before numpy is asked for the array
        assert main(["sweep", "--axis", "ports", "--values", "1e30", "--metrics", "er", "--no-mc"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "port-offset table" in captured.err and "GiB budget" in captured.err


def child_env(**given):
    """This process's environment with the package on the path; a variable given as None is unset."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for key, value in given.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def run_child(args, code=None, **env):
    """A fresh interpreter: ``python -m cumasim ARGS``, or ``python -c CODE ARGS``, in ``child_env(**env)``."""
    head = ["-m", "cumasim"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *args], env=child_env(**env), capture_output=True, timeout=300)


class TestProcessEntry:
    """``python -m cumasim`` and the `cumasim` script run `cli.entry`, which exits with main's code."""

    @pytest.mark.parametrize("argv,code", [
        (["sweep", "--preset", "6GHz-NC", "--eve-preset", "6GHz-NC", "--axis", "rs", "--values", "0,1",
          "--metrics", "er,sop", "--users", "20", "--no-mc"], 0),
        (["analyze", "--preset", "6GHz-NC", "--rs", "1"], 2),
        (["sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "1e308", "--metrics", "er", "--no-mc"], 3),
    ], ids=["ok", "validation", "numerical"])
    def test_module_run_prints_what_main_prints(self, argv, code, capsysbinary):
        child = run_child(argv)
        assert main(argv) == code
        captured = capsysbinary.readouterr()
        assert child.returncode == code
        assert (child.stdout, child.stderr) == (captured.out, captured.err)

    def test_only_the_entry_freezes_the_heap(self, capsys):
        frozen = gc.get_freeze_count()
        assert main(["presets"]) == 0
        assert gc.get_freeze_count() == frozen
        code = (
            "import gc, runpy, sys\n"
            "try:\n"
            "    runpy.run_module('cumasim', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    print('exit', exc.code, gc.get_freeze_count())\n"
        )
        child = run_child(["presets"], code)
        assert child.returncode == 0, child.stderr
        word, exit_code, count = child.stdout.decode().splitlines()[-1].split()
        assert (word, exit_code) == ("exit", "0") and int(count) > 0

    def test_import_loads_no_heavy_subpackage(self):
        # scipy.integrate on the cold path once cost 26 MB of peak RSS in every run
        heavy = ("scipy", "mpmath")
        code = f"import sys, cumasim\nprint(*sorted(m for m in {heavy!r} if m in sys.modules))\n"
        child = run_child([], code)
        assert child.returncode == 0, child.stderr
        assert child.stdout.decode() == "\n"

        # the closed forms, the Monte Carlo route, the correlation factor and
        # the exact law load no scipy module
        code = (
            "import sys\n"
            "from cumasim import (ChannelStats, SeedSpec, SimConfig, approx_er, approx_op, beta_I,\n"
            "                     correlation_matrix, exact_er, mc_stderr, preset_grid, sir_samples)\n"
            "beta = beta_I(ChannelStats.from_grid(preset_grid('6GHz-NC'), 20))\n"
            "approx_er(20, beta), approx_op(1.0, beta)\n"
            "samples = sir_samples(SimConfig(correlation_matrix(preset_grid('6GHz-NC')), 20), 100, SeedSpec(1))\n"
            "exact_er(20, samples), mc_stderr('er', samples, users=20)\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        child = run_child([], code)
        assert child.returncode == 0, child.stderr
        assert child.stdout.decode() == "[]\n"

        code = "import sys, cumasim.cli\nprint(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        child = run_child([], code)
        assert child.returncode == 0, child.stderr
        assert child.stdout.decode() == "[]\n"

        # a cold process whose first call is an exact metric gives the in-process values
        code = (
            "import sys\n"
            "from cumasim import ChannelStats, approx_er, beta_I, exact_er, preset_grid\n"
            "stats = ChannelStats.from_grid(preset_grid('6GHz-NC'), 20)\n"
            "print(repr(exact_er(20, stats.law)), repr(approx_er(20, beta_I(stats))))\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        child = run_child([], code)
        assert child.returncode == 0, child.stderr
        stats = ChannelStats.from_grid(preset_grid("6GHz-NC"), 20)
        want = f"{analytic.exact_er(20, stats.law)!r} {approx.approx_er(20, beta_I(stats))!r}\n[]\n"
        assert child.stdout.decode() == want

    @pytest.mark.parametrize("argv", [
        ["presets"],
        ["analyze", "--preset", "6GHz-C", "--users", "12", "--rs", "1", "--eve-preset", "6GHz-VC"],
        ["simulate", "--preset", "6GHz-NC", "--users", "8", "--trials", "1000"],
        ["sweep", "--preset", "26GHz-C", "--axis", "users", "--values", "10", "--metrics", "er",
         "--trials", "1000", "--exact", "off", "--seed", "3"],
        ["compare", "--preset", "6GHz-NC", "--users", "8", "--trials", "1000", "--seed", "2"],
        ["sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "4", "--metrics", "er,op",
         "--trials", "1000", "--exact", "on"],
    ], ids=["presets", "analyze", "simulate", "mc-large-grid", "compare", "sweep-exact-and-mc"])
    def test_cli_loads_scipy_only_ahead_of_a_special_function(self, argv):
        # no command evaluates a scipy function, so none loads a scipy module:
        # the exact density's 1F1 and the KS check's erf are the package's own
        code = (
            "import sys\n"
            "from cumasim import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
            "sys.exit(code)\n"
        )
        child = run_child(argv, code)
        assert child.returncode == 0, child.stderr
        assert child.stdout.decode().splitlines()[-1] == "[]"

    def test_exact_runs_call_no_eigensolver(self):
        # the exact chain's quadrature rules come from Newton's method; only a Monte Carlo factor diagonalises
        code = (
            "import sys, numpy.linalg\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('numpy.linalg eigensolver called')\n"
            "for name in ('eigvalsh', 'eigh', 'eigvals', 'eig'):\n"
            "    setattr(numpy.linalg, name, refuse)\n"
            "from cumasim import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        for argv in (
            ["sweep", "--preset", "6GHz-VC", "--eve-preset", "6GHz-NC", "--axis", "rs", "--values", "1",
             "--metrics", "er,op,sop", "--users", "20", "--no-mc"],
            ["analyze", "--preset", "6GHz-NC", "--users", "12"],
        ):
            child = run_child(argv, code)
            assert child.returncode == 0, child.stderr

    def test_script_target_is_what_the_module_runs(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["cumasim"]
        module, attr = target.split(":")
        code = (
            "import importlib, runpy, sys\n"
            f"importlib.import_module({module!r}).{attr} = lambda: print('script target called')\n"
            "runpy.run_module('cumasim', run_name='__main__')\n"
        )
        child = run_child([], code)
        assert child.returncode == 0, child.stderr
        assert child.stdout.decode() == "script target called\n"


def uses_openblas():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


class TestBlasThreads:
    """Cold runs under 1 and 2 BLAS threads: what the idle pool costs, and which bytes hold."""

    # importing this package already set the bound in this process, so
    # each child has it unset and must set it itself
    @pytest.mark.parametrize("given,want", [(None, "24"), ("28", "28")], ids=["unset", "caller"])
    def test_import_bounds_the_idle_spin(self, given, want):
        code = "import os, cumasim\nprint(os.environ['OPENBLAS_THREAD_TIMEOUT'])\n"
        child = run_child([], code, OPENBLAS_THREAD_TIMEOUT=given)
        assert child.returncode == 0, child.stderr
        assert child.stdout.decode() == f"{want}\n"

    @pytest.mark.skipif(not uses_openblas(), reason="numpy is not built on OpenBLAS")
    def test_idle_workers_cost_no_cpu(self):
        # the exact chain makes no BLAS call, so a second thread's CPU is
        # only its spin: 2^28 cycles (about 0.1 s) unbounded, a few ms bounded
        argv = ["sweep", "--preset", "6GHz-VC", "--eve-preset", "6GHz-NC", "--axis", "rs", "--values", "1",
                "--metrics", "er,op,sop", "--users", "20", "--exact", "on", "--no-mc"]
        env = child_env(OPENBLAS_NUM_THREADS="2", OPENBLAS_THREAD_TIMEOUT=None)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "cumasim", *argv], env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        assert os.waitstatus_to_exitcode(status) == 0
        assert usage.ru_utime + usage.ru_stime <= wall + 0.05

    @pytest.mark.parametrize("preset,trials,users", [("6GHz-VC", "2000", "5,20"), ("26GHz-C", "1000", "5,10")])
    def test_csv_bytes_do_not_depend_on_the_thread_count(self, preset, trials, users):
        # sample bits may differ in the last ulps across thread counts; the
        # 12 printed digits do not, on these commands
        argv = ["sweep", "--preset", preset, "--axis", "users", "--values", users, "--metrics", "er,op",
                "--trials", trials, "--exact", "off"]
        one, two = (run_child(argv, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
        assert one.returncode == two.returncode == 0, one.stderr + two.stderr
        assert one.stdout == two.stdout
