import math

import numpy as np
import pytest
from scipy.special import erf

from cumasim import harness
from cumasim.analytic import ChannelStats, ExactLaw
from cumasim.approx import approx_cdf_z, beta_I
from cumasim.cli import main
from cumasim.geometry import correlation_matrix, preset_grid
from cumasim.harness import (
    CSV_HEADER,
    SweepSpec,
    compare_distributions,
    ks_statistic,
    parse_config,
    run_sweep,
)
from cumasim.montecarlo import SeedSpec, SimConfig, sir_samples
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

    @pytest.mark.parametrize("kw", [
        {"metrics": ()},
        {"values": ()},
        {"metrics": ("bogus",)},
        {"axis": "sideways"},
        {"preset": "5GHz-XX"},
        {"trials": 10},
        {"exact": "maybe"},
        {"values": (4.5, 8.0)},
        {"exact": "auto"},
        {"values": (4.0, math.nan)},
        {"values": (math.inf,)},
        {"axis": "rs", "values": (math.nan,)},
        {"axis": "ports", "preset": None, "values": (math.nan,)},
    ])
    def test_rejections(self, kw):
        with pytest.raises(DomainError):
            small_spec(**kw)

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


class TestCsv:
    def test_golden_mc_columns(self):
        # all four Monte Carlo reductions of one small sweep, frozen from the
        # first run of the conditional-Gaussian kernel at this seed
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
            "1,er,16.3961564503,0.154281290709",
            "1,op,0.002,0.001412798641",
            "1,sop,0.718,0.0142294061717",
            "1,sop_lower,0.694,0.014572714229",
            "0.25,er,27.1705449696,0.173559450392",
            "0.25,op,0,0",
            "0.25,sop,0.144,0.011102432166",
            "0.25,sop_lower,0.141,0.0110054077616",
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
            "exact": (ExactLaw.from_stats(case1_stats).cdf, ExactLaw.from_stats(case1_stats).cdf),
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
        assert ks_statistic(nc_samples.sir, ExactLaw.from_stats(nc_system[1]).cdf) < 0.12

    def test_fit_distance_reported(self, nc_system, nc_samples):
        # the raw samples against the raw-SIR scale beta_I
        report = compare_distributions(*nc_system, 20_000, SeedSpec(5))
        beta = beta_I(nc_system[1])
        assert report.ks_total == ks_statistic(nc_samples.sir, lambda x: approx_cdf_z(x, beta))
        assert report.ks_inphase == ks_statistic(nc_samples.sir_i, lambda x: erf(np.sqrt(x / beta)))
        assert 0.0 <= report.ks_total <= 1.0
        assert 0.0 <= report.ks_inphase <= 1.0

    def test_negative_control_detects_misfit(self, nc_system, nc_samples):
        beta = 2.0 * beta_I(nc_system[1])
        assert ks_statistic(nc_samples.sir[:2000], lambda x: approx_cdf_z(x, beta)) > 0.1

    def test_rejects_mismatched_config_and_stats(self, nc_system):
        config, _ = nc_system
        with pytest.raises(DomainError):
            compare_distributions(config, ChannelStats.from_grid(preset_grid("6GHz-NC"), 8), 1000, SeedSpec(5))


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


class TestCli:
    def test_presets(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "6GHz-NC" in out and "40GHz-VC" in out

    def test_analyze(self, capsys):
        rc = main(["analyze", "--preset", "6GHz-NC", "--users", "12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "beta =" in out and "er_approx =" in out

    def test_analyze_secrecy(self, capsys):
        rc = main([
            "analyze", "--preset", "6GHz-VC", "--users", "12",
            "--rs", "1.0", "--eve-preset", "6GHz-NC",
        ])
        assert rc == 0
        assert "sop_lower_approx =" in capsys.readouterr().out

    def test_simulate(self, capsys):
        rc = main(["simulate", "--preset", "6GHz-NC", "--users", "8", "--trials", "1500", "--seed", "3"])
        assert rc == 0
        assert "er_mc =" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main([
            "compare", "--preset", "6GHz-NC", "--users", "8",
            "--trials", "1500", "--seed", "3", "--exact", "off",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ks_total_vs_fit" in out

    def test_sweep_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        out = tmp_path / "rows.csv"
        cfg.write_text(
            "schema = 1\npreset = 6GHz-NC\naxis = users\nvalues = 4, 6\n"
            f"metrics = er\ntrials = 1000\nseed = 2\nexact = off\nout = {out}\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert out.read_text().startswith(CSV_HEADER)

    def test_sweep_inline_flags(self, capsys):
        rc = main([
            "sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "4,6",
            "--metrics", "er", "--trials", "1000", "--seed", "2", "--exact", "off",
        ])
        assert rc == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_unknown_preset_is_validation_error(self, capsys):
        assert main(["analyze", "--preset", "9GHz-XL", "--users", "8"]) == 2

    def test_bad_config_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("axis = users\n")
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent/x.cfg"]) == 2

    def test_bad_flag_usage(self, capsys):
        assert main(["analyze"]) == 2

    @pytest.mark.parametrize("omega", ["inf", "nan"])
    def test_simulate_non_finite_omega_is_validation_error(self, omega, capsys):
        rc = main(["simulate", "--preset", "6GHz-NC", "--users", "8", "--trials", "100", "--omega", omega])
        assert rc == 2
        assert "omega must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_single_trial_is_validation_error(self, command, capsys):
        rc = main([command, "--preset", "6GHz-NC", "--users", "8", "--trials", "1", "--seed", "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "at least 2 samples" in captured.err
        assert "nan" not in captured.out

    def test_simulate_output_does_not_depend_on_omega(self, capsys):
        # the SIR is invariant to the channel power, and the draws leave it
        # out: subnormal and near-overflow powers print the unit-power figures
        outs = []
        for omega in ("1", "1e-323", "1e308"):
            argv = ["simulate", "--preset", "6GHz-NC", "--users", "8", "--trials", "300", "--seed", "3"]
            assert main([*argv, "--omega", omega]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0] and outs[2] == outs[0]
        assert "nan" not in outs[0]

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
        ],
    )
    def test_unusable_numbers_are_validation_errors(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "nan" not in captured.out

    def test_unusable_law_scale_is_numerical_failure(self, capsys):
        # 1e308 users: the exact law's scale, the mean SIR, underflows to zero
        rc = main(["sweep", "--preset", "6GHz-NC", "--axis", "users", "--values", "1e308",
                   "--metrics", "er", "--no-mc"])
        assert rc == 3
        assert "law scale" in capsys.readouterr().err
