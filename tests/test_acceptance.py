"""End-to-end acceptance suite.

One test per criterion. Every test prints a single tagged line with the
measured numbers before asserting, so a failing criterion still leaves
its evidence in the log. Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from cumasim.analytic import ChannelStats, exact_er, exact_pdf_zI, sop_lower_numeric
from cumasim.approx import (
    approx_cdf_z,
    approx_er,
    approx_pdf_z,
    approx_pdf_zI,
    asymptote_a0,
    beta_I,
    sop_lower_closed,
)
from cumasim.geometry import PortGrid, correlation_matrix, grid_from_aperture, offset_correlation, preset_grid
from cumasim.harness import ks_statistic
from cumasim.montecarlo import SeedSpec, SimConfig, mc_estimate, sir_samples

from test_approx import exponential_law, random_stats
from test_montecarlo import interference_sums, sop_pair

APERTURE = (0.15, 0.08)
SEED = SeedSpec(987654321)


def report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")


class _Point:
    """One Monte Carlo evaluation at a sweep point."""

    def __init__(self, config, trials, seed):
        s = sir_samples(config, trials, seed)
        self.er, self.er_se = mc_estimate("er", s, users=config.users)
        self.op, op_se = mc_estimate("op", s, gamma_th=1.0)
        self.op_se = op_se + 1e-12


def test_a01_port_layout_reproduction():
    t0 = time.time()
    cells = {
        (6e9, 0.5): (7, 4),
        (6e9, 0.1): (31, 4),
        (6e9, 0.05): (61, 4),
        (26e9, 0.5): (27, 14),
        (26e9, 0.1): (131, 14),
        (26e9, 0.05): (261, 14),
        (40e9, 0.5): (41, 22),
        (40e9, 0.1): (201, 22),
        (40e9, 0.05): (401, 22),
    }
    got = {k: None for k in cells}
    for (freq, sp1), want in cells.items():
        g = grid_from_aperture(*APERTURE, freq, sp1, 0.5)
        got[(freq, sp1)] = (g.n1, g.n2)
    ok = got == cells
    report("A01 layout-reproduction", ok, f"9/9 cells exact={ok} elapsed={time.time()-t0:.2f}s")
    assert ok, f"layout mismatch: {got}"


def test_a02_half_wavelength_correlation_null():
    grid = PortGrid(4, 3, 1.5, 1.0)  # exactly half-wavelength pitch both ways
    rho = offset_correlation(grid)[1, 0]  # adjacent ports along dimension 1
    ok = abs(rho) < 1e-12
    report("A02 correlation-null", ok, f"adjacent rho={rho:.3e} (tol 1e-12)")
    assert ok


def test_a03_gamma_fit_identity(rng):
    worst = 0.0
    for st in random_stats(rng, 20):
        worst = max(worst, abs(beta_I(st) * math.pi * asymptote_a0(st) ** 2 - 1.0))
    ok = worst < 1e-12
    report("A03 fit-identity", ok, f"max |beta*pi*a0^2 - 1| = {worst:.2e} (tol 1e-12)")
    assert ok


def test_a04_asymptotic_matching_at_stated_point():
    # evaluation point pinned at z = 1e-8 * beta; at these layouts that
    # point is far outside the small-argument regime of the confluent
    # factor, so the stated check cannot reach its 2% tolerance even
    # though the z -> 0 limit itself is exact (see the module tests)
    worst = None
    ratios = {}
    for preset in ("6GHz-NC", "6GHz-C", "6GHz-VC"):
        grid = preset_grid(preset)
        for users in (10, 20):
            st = ChannelStats.from_grid(grid, users)
            beta = beta_I(st)
            z = 1e-8 * beta
            ratio = approx_pdf_zI(z, beta) / exact_pdf_zI(z, st)
            ratios[(preset, users)] = ratio
            if worst is None or abs(ratio - 1.0) > abs(worst - 1.0):
                worst = ratio
    ok = all(abs(r - 1.0) <= 0.02 for r in ratios.values())
    detail = " ".join(f"{p}/U{u}={r:.3f}" for (p, u), r in ratios.items())
    report("A04 asymptote-match@1e-8beta", ok, f"{detail} (tol 2%)")
    assert ok, f"ratios at z=1e-8*beta: {ratios}"


def test_a05_convolution_exactness():
    t0 = time.time()
    worst = 0.0
    for beta in (0.7, 2.5):
        for z in np.geomspace(0.01 * beta, 10.0 * beta, 80):
            conv = 2.0 * integrate.quad(
                lambda u: 2.0 * u * approx_pdf_zI(u * u, beta) * approx_pdf_zI(float(z) - u * u, beta),
                0.0,
                math.sqrt(float(z) / 2.0),
                epsabs=1e-14,
                epsrel=1e-11,
            )[0]
            worst = max(worst, abs(conv - approx_pdf_z(float(z), beta)))
    ok = worst < 1e-6
    report("A05 convolution-exactness", ok, f"sup|conv-exp| = {worst:.2e} (tol 1e-6), {time.time()-t0:.1f}s")
    assert ok


# (users, paper-unit scale, sigma2^2): the raw-SIR scale is their ratio
ER_TRIPLES = [
    (4, 0.5, 1.0),
    (10, 2.0, 7.0),
    (20, 865114.5, 5.81),
    (20, 50.0, 5.81),
    (40, 1.0, 30.0),
    (8, 12.0, 0.7),
    (2, 3.0, 3.0),
    (16, 0.08, 0.9),
    (30, 400.0, 60.0),
    (12, 7.7, 7.7),
]


def test_a06_rate_closed_form_vs_quadrature():
    worst = 0.0
    for users, beta, s2 in ER_TRIPLES:
        want = exact_er(users, exponential_law(beta / s2))
        got = approx_er(users, beta / s2)
        worst = max(worst, abs(got - want) / abs(want))
    ok = worst < 1e-6
    report("A06 rate-closed-form", ok, f"max rel err = {worst:.2e} over 10 triples (tol 1e-6)")
    assert ok


SOP_TRIPLES = [
    (1.0, 1.0, 0.0),
    (2.0, 1.0, 1.0),
    (0.3, 2.2, 0.5),
    (5.0, 0.1, 2.0),
    (1.4, 1.4, 3.0),
    (0.9, 0.9, 0.1),
    (10.0, 0.5, 0.0),
    (0.05, 4.0, 1.5),
    (3.3, 3.3, 0.0),
    (2.0, 7.0, 2.5),
]


def test_a07_secrecy_bound_vs_quadrature():
    worst = 0.0
    for bb, be, rs in SOP_TRIPLES:
        want = sop_lower_numeric(exponential_law(bb), exponential_law(be), rs)
        worst = max(worst, abs(sop_lower_closed(bb, be, rs) - want))
    symmetric = sop_lower_closed(1.7, 1.7, 0.0)
    ok = worst < 1e-6 and symmetric == 0.5
    report(
        "A07 secrecy-bound",
        ok,
        f"max |closed-quad| = {worst:.2e} (tol 1e-6), symmetric = {symmetric!r} (must be 0.5)",
    )
    assert ok


def test_a08_simulation_vs_fitted_distribution():
    # 7x4 half-wavelength layout, 20 users, no cancellation, 1e5 trials
    t0 = time.time()
    grid = preset_grid("6GHz-NC")
    st = ChannelStats.from_grid(grid, 20)
    config = SimConfig(corr=correlation_matrix(grid), users=20)
    samples = sir_samples(config, 100_000, SEED)
    z = samples.sir
    beta = beta_I(st)
    ks_fit = ks_statistic(z, lambda x: approx_cdf_z(x, beta))
    ks_control = ks_statistic(z, lambda x: approx_cdf_z(x, 2.0 * beta))
    # distance to the best exponential of any scale, for the record: the
    # simulated distribution is a bump around its mean, not exponential
    ks_floor = ks_statistic(z, lambda x: approx_cdf_z(x, float(z.mean())))
    ok_control = ks_control > 0.1
    ok_fit = ks_fit <= 0.05
    report(
        "A08 simulation-vs-fit",
        ok_fit and ok_control,
        f"KS_fit = {ks_fit:.4f} (tol 0.05), KS_control(2*beta) = {ks_control:.4f} (> 0.1), "
        f"KS_best_exponential ~= {ks_floor:.3f}, {time.time()-t0:.0f}s",
    )
    assert ok_control
    assert ok_fit, (
        f"fitted exponential scale is a left-tail asymptote; the simulated "
        f"distribution body gives KS = {ks_fit:.3f} (even the mean-fitted "
        f"exponential only reaches {ks_floor:.3f})"
    )


def _steps_ok(values, errs, direction):
    """No step significantly violates the claimed direction."""
    ok = True
    for (v1, e1), (v2, e2) in zip(zip(values, errs), zip(values[1:], errs[1:])):
        band = 2.0 * math.hypot(e1, e2)
        if direction > 0 and v2 < v1 - band:
            ok = False
        if direction < 0 and v2 > v1 + band:
            ok = False
    return ok


def _span_ok(values, errs, direction):
    band = 2.0 * math.hypot(errs[0], errs[-1])
    return (values[-1] - values[0]) * direction > band


def test_a09_sweep_trends():
    t0 = time.time()
    trials = 10_000
    failures = []
    cases = {}
    for name in ("6GHz-NC", "6GHz-C", "6GHz-VC"):
        cases[name] = correlation_matrix(preset_grid(name))

    # rate and outage against the user count, per compactness case
    users_axis = (4, 10, 20, 30)
    points = {}
    for name, corr in cases.items():
        for u in users_axis:
            points[(name, u)] = _Point(SimConfig(corr=corr, users=u), trials, SEED)

    for name in cases:
        er = [points[(name, u)].er for u in users_axis]
        se = [points[(name, u)].er_se for u in users_axis]
        ok = _steps_ok(er, se, +1) and _span_ok(er, se, +1)
        report("A09a rate-up-with-users", ok, f"{name}: " + " ".join(f"{v:.2f}" for v in er))
        if not ok:
            failures.append(f"rate vs users ({name})")

        op = [points[(name, u)].op for u in users_axis]
        ose = [points[(name, u)].op_se for u in users_axis]
        ok = _steps_ok(op, ose, +1) and _span_ok(op, ose, +1)
        report("A09c outage-up-with-users", ok, f"{name}: " + " ".join(f"{v:.3f}" for v in op))
        if not ok:
            failures.append(f"outage vs users ({name})")

    order = ("6GHz-NC", "6GHz-C", "6GHz-VC")
    er = [points[(n, 20)].er for n in order]
    se = [points[(n, 20)].er_se for n in order]
    ok = _steps_ok(er, se, +1) and _span_ok(er, se, +1)
    report("A09b rate-up-with-compactness", ok, "U=20: " + " ".join(f"{v:.2f}+-{s:.2f}" for v, s in zip(er, se)))
    if not ok:
        failures.append("rate vs compactness")

    op = [points[(n, 20)].op for n in order]
    ose = [points[(n, 20)].op_se for n in order]
    ok = _steps_ok(op, ose, -1) and _span_ok(op, ose, -1)
    report("A09d outage-down-with-compactness", ok, "U=20: " + " ".join(f"{v:.3f}" for v in op))
    if not ok:
        failures.append("outage vs compactness")

    # same port density on both sides: secrecy saturates at one half
    nc_cfg = SimConfig(corr=cases["6GHz-NC"], users=20)
    p, se_p = mc_estimate("sop", *sop_pair(nc_cfg, nc_cfg, 6000, SEED), rs=1e-9)
    ok = abs(p - 0.5) <= 2.5 * se_p + 0.01
    report("A09e secrecy-half-saturation", ok, f"SOP(rs->0) = {p:.3f} +- {se_p:.3f}")
    if not ok:
        failures.append("secrecy saturation")

    # better cancellation at the intended receiver helps
    eve_cfg = SimConfig(corr=cases["6GHz-NC"], users=20)
    deltas = (1.0, 0.5, 0.25, 0.1)
    sop_d = []
    sop_d_se = []
    for d in deltas:
        bob_cfg = SimConfig(corr=cases["6GHz-VC"], users=20, delta=d)
        p, se_p = mc_estimate("sop", *sop_pair(bob_cfg, eve_cfg, 6000, SEED), rs=1.0)
        sop_d.append(p)
        sop_d_se.append(se_p + 1e-12)
    ok = _steps_ok(sop_d, sop_d_se, -1) and _span_ok(sop_d, sop_d_se, -1)
    report("A09f secrecy-improves-with-cancellation", ok, " ".join(f"{v:.3f}" for v in sop_d))
    if not ok:
        failures.append("secrecy vs cancellation")

    # growing the intended receiver's port count at fixed eavesdropper
    base = preset_grid("6GHz-VC")
    sop_n = []
    sop_n_se = []
    labels = []
    for n2 in (4, 10, 20, 33):
        grid = PortGrid(base.n1, n2, base.w1, base.w2)
        n_trials = 2000 if grid.total_ports > 1500 else 4000
        bob_cfg = SimConfig(corr=correlation_matrix(grid), users=20, delta=0.1)
        p, se_p = mc_estimate("sop", *sop_pair(bob_cfg, eve_cfg, n_trials, SEED), rs=2.0)
        sop_n.append(p)
        sop_n_se.append(se_p + 1e-12)
        labels.append(f"N={grid.total_ports}:{p:.4f}")
    ok = _steps_ok(sop_n, sop_n_se, -1) and _span_ok(sop_n, sop_n_se, -1)
    report("A09g secrecy-down-with-ports", ok, " ".join(labels))
    if not ok:
        failures.append("secrecy vs port count")

    ok_all = not failures
    report("A09 sweep-trends", ok_all, f"failures={failures or 'none'} elapsed={time.time()-t0:.0f}s")
    assert ok_all, f"trend clauses failed: {failures}"


def test_a10_interference_variance_calibration(case1_config, case1_stats):
    t0 = time.time()
    # each trial's sums are N(0, (omega/2) q_I) given its desired draw
    sums = interference_sums(sir_samples(case1_config, 100_000, SEED), case1_config, SEED)
    ratio = float(sums.var(ddof=1)) / case1_stats.sigma2_sq
    ok = abs(ratio - 1.0) < 0.10
    report(
        "A10 variance-calibration",
        ok,
        f"empirical/analytic = {ratio:.4f} (tol 10%), {time.time()-t0:.0f}s",
    )
    assert ok
