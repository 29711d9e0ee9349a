import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cumasim.geometry import CorrelationMatrix, PortGrid, correlation_entries, correlation_matrix, preset_grid
from cumasim.harness import ks_statistic
from cumasim.montecarlo import _BLOCK, SeedSpec, SimConfig, mc_estimate, select_ports, sir_sample, sir_samples
from cumasim.specfun import DomainError
from link_oracle import ChannelRealization, draw_realization, link_samples, link_sir_sample

SEED = SeedSpec(20240611)


class TestSeedSpec:
    def test_u64_bounds(self):
        SeedSpec(0)
        SeedSpec(2**64 - 1)
        with pytest.raises(DomainError):
            SeedSpec(-1)
        with pytest.raises(DomainError):
            SeedSpec(2**64)

    def test_streams_differ_by_trial_and_substream(self):
        a = SEED.rng(0).standard_normal(4)
        b = SEED.rng(1).standard_normal(4)
        c = SEED.rng(0, substream=1).standard_normal(4)
        d = SEED.rng(0).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.array_equal(a, d)


class TestDrawRealization:
    """The link-level oracle's channel draws."""

    def test_reproducible(self, case1_corr):
        r1 = draw_realization(case1_corr, 1.0, 5, SEED, trial=3)
        r2 = draw_realization(case1_corr, 1.0, 5, SEED, trial=3)
        assert np.array_equal(r1.desired, r2.desired)
        assert np.array_equal(r1.interferers, r2.interferers)

    def test_per_port_variance_uncorrelated(self):
        corr = CorrelationMatrix(factor=np.eye(24))
        acc = []
        for t in range(800):
            r = draw_realization(corr, 1.0, 4, SEED, trial=t)
            acc.append(np.abs(r.desired) ** 2)
        var = float(np.mean(acc))
        assert var == pytest.approx(1.0, rel=0.03)

    def test_duplicate_port_limit(self):
        # fully correlated two-port layout: both entries identical
        entries = np.ones((2, 2))
        w, v = np.linalg.eigh(entries)
        corr = CorrelationMatrix(factor=v * np.sqrt(np.clip(w, 0, None)))
        for t in range(20):
            r = draw_realization(corr, 1.0, 2, SEED, trial=t)
            assert r.desired[0] == pytest.approx(r.desired[1], rel=1e-12)

    def test_validation(self, case1_corr):
        with pytest.raises(DomainError):
            draw_realization(case1_corr, 1.0, 0, SEED, trial=0)
        with pytest.raises(DomainError):
            draw_realization(case1_corr, -1.0, 2, SEED, trial=0)
        with pytest.raises(DomainError):
            draw_realization(case1_corr, math.nan, 2, SEED, trial=0)


class TestSelectPorts:
    def test_all_positive(self):
        k_i, _ = select_ports(np.array([1.0 + 1j, 2.0 + 1j, 0.5 - 1j]))
        assert list(k_i) == [0, 1, 2]

    def test_mixed_signs(self):
        k_i, k_q = select_ports(np.array([1.0 + 1j, -1.0 + 1j, 2.0 - 3j]))
        assert list(k_i) == [0, 2]
        assert list(k_q) == [0, 1]

    def test_zero_ties_excluded(self):
        k_i, k_q = select_ports(np.array([0.0 + 0.0j, 1.0 + 0.0j]))
        assert list(k_i) == [1]
        assert list(k_q) == []

    def test_negation_swaps_to_complement(self, case1_corr):
        r = draw_realization(case1_corr, 1.0, 2, SEED, trial=11)
        k_i, _ = select_ports(r.desired)
        k_i_neg, _ = select_ports(-r.desired)
        assert set(k_i) | set(k_i_neg) == set(range(28))
        assert set(k_i) & set(k_i_neg) == set()

    def test_activation_rate_is_half(self, case1_config):
        samples = sir_samples(case1_config, 4000, SEED)
        assert samples.k_i_sizes.mean() / 28 == pytest.approx(0.5, abs=0.005)

    def test_empty_vector(self):
        with pytest.raises(DomainError):
            select_ports(np.array([]))


class TestSirSample:
    """The link-level oracle's SIR of one realization."""

    def test_delta_scaling(self, case1_corr):
        r = draw_realization(case1_corr, 1.0, 5, SEED, trial=0)
        full = link_sir_sample(r, 1.0)
        half = link_sir_sample(r, 0.5)
        assert half.sir == pytest.approx(2.0 * full.sir, rel=1e-12)
        assert half.k_i_size == full.k_i_size

    def test_interferer_equal_to_desired(self, case1_corr):
        r = draw_realization(case1_corr, 1.0, 1, SEED, trial=5)
        clone = ChannelRealization(desired=r.desired, interferers=r.desired[None, :].copy())
        res = link_sir_sample(clone, 0.5)
        # each branch contributes 1/delta when the lone interferer aligns
        assert res.sir == pytest.approx(2.0 / 0.5, rel=1e-12)

    def test_zero_interference_flagged(self):
        desired = np.array([1.0 + 1.0j, 2.0 + 0.5j])
        interferers = np.zeros((3, 2), dtype=complex)
        res = link_sir_sample(ChannelRealization(desired=desired, interferers=interferers), 1.0)
        assert res.flagged
        assert math.isnan(res.sir)

    def test_delta_domain(self, case1_corr):
        r = draw_realization(case1_corr, 1.0, 2, SEED, trial=1)
        with pytest.raises(DomainError):
            link_sir_sample(r, 0.0)
        with pytest.raises(DomainError):
            link_sir_sample(r, 1.2)

    def test_quarter_turn_swaps_branches(self, case1_config, case1_corr):
        # rotating every channel by 90 degrees exchanges the I and Q roles,
        # so the SIR distribution is unchanged
        base = []
        rotated = []
        for t in range(10_000):
            r = draw_realization(case1_corr, 1.0, 19, SEED, trial=t)
            base.append(link_sir_sample(r, 1.0).sir)
            rot = ChannelRealization(desired=1j * r.desired, interferers=1j * r.interferers)
            rotated.append(link_sir_sample(rot, 1.0).sir)
        base = np.sort(base)
        cdf = lambda x: np.searchsorted(base, x, side="right") / len(base)
        ks = ks_statistic(np.asarray(rotated), cdf)
        assert ks <= 0.02


class TestConditionalKernel:
    """The package's block kernel, `sir_sample`, and its agreement with the oracle."""

    def test_delta_scaling(self, case1_corr):
        full = sir_sample(SEED.rng(0), case1_corr.factor, 19, 1.0)
        half = sir_sample(SEED.rng(0), case1_corr.factor, 19, 0.5)
        np.testing.assert_allclose(half[0], 2.0 * full[0], rtol=1e-12)
        np.testing.assert_allclose(half[1], 2.0 * full[1], rtol=1e-12)
        for a, b in zip(half[2:], full[2:]):  # the same masks, q_I and redraws
            assert np.array_equal(a, b)

    def test_empty_activation_is_redrawn(self):
        # a single port activates a branch with probability 1/2, so most
        # trials are redrawn, and every returned trial has both branches
        sir, sir_i, k_i, q_i, redraws = sir_sample(SEED.rng(0), np.ones((1, 1)), 3, 1.0)
        assert 0 < np.count_nonzero(redraws) < _BLOCK
        assert np.all(np.isfinite(sir)) and np.all(sir_i < sir)
        assert np.all(k_i == 1) and np.all(q_i == 1.0)

    def test_validation(self, case1_corr):
        for interferers, delta in ((0, 1.0), (2, 0.0), (2, 1.2)):
            with pytest.raises(DomainError):
                sir_sample(SEED.rng(0), case1_corr.factor, interferers, delta)
        # no port ever activates: every trial stays empty
        with pytest.raises(DomainError, match="redraws"):
            sir_sample(SEED.rng(0), np.zeros((2, 1)), 2, 1.0)

    def test_matches_per_trial_matrix_vector_reference(self):
        # the loop the blocks replaced: two matrix-vector products with F per
        # trial; the GEMMs sum in another order, so agreement is to rounding
        config = SimConfig(corr=correlation_matrix(preset_grid("6GHz-VC")), users=20)
        factor = config.corr.factor
        n = 2 * _BLOCK + 3
        want = np.empty((3 * _BLOCK, 4))
        for b in range(3):
            rng = SEED.rng(b)
            z = rng.standard_normal((2 * _BLOCK, factor.shape[1]))
            chi = rng.chisquare(config.interferers, (_BLOCK, 2))
            for j in range(_BLOCK):
                d = np.stack([factor @ z[2 * j], factor @ z[2 * j + 1]])
                masks = (d > 0.0).astype(float)
                q = np.array([np.square(factor.T @ m).sum() for m in masks])
                nu = np.square((masks * d).sum(axis=1))
                ratio = nu / (config.delta * q * chi[j])
                want[b * _BLOCK + j] = ratio.sum(), ratio[0], masks[0].sum(), q[0]
        s = sir_samples(config, n, SEED)
        assert s.redrawn == 0
        assert np.array_equal(s.k_i_sizes, want[:n, 2])
        for got, ref in ((s.sir, want[:n, 0]), (s.sir_i, want[:n, 1]), (s.q_i, want[:n, 3])):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_mean_mask_quadratic_form(self):
        # E[m_k m_l] = 1/4 + asin(rho_kl) / (2 pi) (Sheppard), so
        # E[q_I] = sum_kl rho_kl (1/4 + asin(rho_kl) / (2 pi))
        grid = preset_grid("6GHz-VC")
        corr = correlation_matrix(grid)
        rho = np.clip(correlation_entries(grid), -1.0, 1.0)
        want = float(np.sum(rho * (0.25 + np.arcsin(rho) / (2.0 * math.pi))))
        q = sir_samples(SimConfig(corr=corr, users=20), 4000, SEED).q_i
        assert abs(q.mean() - want) < 4.0 * q.std(ddof=1) / math.sqrt(len(q))

    @pytest.mark.parametrize("preset", ["6GHz-NC", "6GHz-VC"])
    def test_matches_link_level_oracle(self, preset):
        grid = preset_grid(preset)
        config = SimConfig(corr=correlation_matrix(grid), users=20)
        n = 5000
        # the oracle draws at channel power 2.5; the SIR does not depend on it
        oracle = link_samples(config, correlation_entries(grid), n, SeedSpec(77), omega=2.5)
        ks = ks_2samp(sir_samples(config, n, SEED).sir, oracle).statistic
        # two-sample KS critical value at alpha = 0.001
        crit = math.sqrt(-math.log(0.001 / 2.0) * (n + n) / (2.0 * n * n))
        assert ks < crit

    def test_large_grid_rate_matches_link_level_reference(self):
        # sum-rate ER on 26GHz-C with 10 users: 52.036 +- 0.055 is the
        # estimate from 10,000 link-level trials (full interferer channels)
        # at the benchmark's reference seed, as recorded in
        # bench/reference.json (workload mc-large-grid, key er.mc)
        config = SimConfig(corr=correlation_matrix(preset_grid("26GHz-C")), users=10)
        er, se = mc_estimate("er", sir_samples(config, 2000, SEED), users=10)
        assert abs(er - 52.036) < 5.0 * math.hypot(se, 0.055)


class TestSampleRuns:
    def test_bitwise_determinism(self, case1_config):
        a = sir_samples(case1_config, 600, SEED)
        b = sir_samples(case1_config, 600, SEED)
        assert np.array_equal(a.sir, b.sir)

    def test_trial_streams_are_prefix_stable(self, case1_config):
        a = sir_samples(case1_config, 400, SEED)
        b = sir_samples(case1_config, 700, SEED)
        assert np.array_equal(a.sir, b.sir[:400])

    @pytest.mark.parametrize("trials", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_block_edges_are_prefix_stable(self, trials):
        # 6GHz-VC has rank 60, so a GEMM of another shape would round
        # differently; on four ports 0.1 wavelength apart about three trials
        # in five are redrawn
        for grid in (preset_grid("6GHz-VC"), PortGrid(n1=2, n2=2, w1=0.1, w2=0.1)):
            config = SimConfig(corr=correlation_matrix(grid), users=20)
            short = sir_samples(config, trials, SEED)
            long = sir_samples(config, 3 * _BLOCK + 5, SEED)
            for field in ("sir", "sir_i", "k_i_sizes", "q_i"):
                assert np.array_equal(getattr(short, field), getattr(long, field)[:trials])
            # redrawn counts the returned trials' redraws, not the whole last block's
            blocks = [sir_sample(SEED.rng(b), config.corr.factor, config.interferers, config.delta) for b in range(4)]
            redraws = np.concatenate([block[4] for block in blocks])
            assert short.redrawn == redraws[:trials].sum()
            assert long.redrawn == redraws[: 3 * _BLOCK + 5].sum()

    def test_redraws_inside_a_block(self):
        # one port with F = 1, so d = z, q = 1 per active branch and the SIR
        # is sum z^2 / chi exactly: rebuild the block's stream by hand. Every
        # round draws its trials' normals, then their chi-square variates;
        # the first round is the whole block, each later one the trials
        # still with an empty branch, in trial order.
        config = SimConfig(corr=CorrelationMatrix(factor=np.ones((1, 1))), users=4)
        trials = _BLOCK + 7
        s = sir_samples(config, trials, SEED)
        want = np.empty((2 * _BLOCK, 2))
        redraws = np.zeros(2 * _BLOCK, dtype=int)
        for b in range(2):
            rng = SEED.rng(b)
            rows = list(range(_BLOCK))
            while rows:
                z = rng.standard_normal((len(rows), 2))
                chi = rng.chisquare(config.interferers, (len(rows), 2))
                for t, zt, ct in zip(rows, z, chi):
                    want[b * _BLOCK + t] = (zt[0] ** 2 / ct[0] + zt[1] ** 2 / ct[1], zt[0] ** 2 / ct[0])
                rows = [t for t, zt in zip(rows, z) if min(zt) <= 0.0]
                redraws[[b * _BLOCK + t for t in rows]] += 1
        assert np.array_equal(s.sir, want[:trials, 0])
        assert np.array_equal(s.sir_i, want[:trials, 1])
        assert np.all(s.k_i_sizes == 1) and np.all(s.q_i == 1.0)
        assert s.redrawn == redraws[:trials].sum() > trials // 2

    def test_branch_samples(self, case1_config):
        s = sir_samples(case1_config, 300, SEED)
        assert np.all(s.sir_i <= s.sir + 1e-12)


def interference_sums(samples, config, seed=SEED):
    """Per-interferer activated in-phase sums, shape (trials, I).

    Given its desired draw, trial t's sums are i.i.d. N(0, q_I / 2) at unit
    channel power; the unit normals come from a stream of their own.
    """
    z = np.random.default_rng(seed.master_seed).standard_normal((len(samples.q_i), config.interferers))
    return np.sqrt(samples.q_i / 2.0)[:, None] * z


class TestInterferenceCalibration:
    def test_per_interferer_variance_tracks_sigma2(self, case1_config, case1_stats):
        sums = interference_sums(sir_samples(case1_config, 20_000, SEED), case1_config)
        ratio = float(sums.var(ddof=1)) / case1_stats.sigma2_sq
        assert abs(ratio - 1.0) < 0.10


def sop_pair(bob_cfg, eve_cfg, trials, seed=SEED):
    # Bob and Eve on disjoint substreams of one seed
    return sir_samples(bob_cfg, trials, seed, substream=0), sir_samples(eve_cfg, trials, seed, substream=1)


class TestMcMetrics:
    def test_op_monotone_on_grid(self, case1_config):
        s = sir_samples(case1_config, 3000, SEED)
        op = [mc_estimate("op", s, gamma_th=g)[0] for g in (0.25, 0.5, 1.0, 1.5, 2.5)]
        assert all(a <= b for a, b in zip(op, op[1:]))

    def test_stderr_shrinks_with_trials(self, case1_config):
        _, se1 = mc_estimate("er", sir_samples(case1_config, 4000, SEED), users=20)
        _, se2 = mc_estimate("er", sir_samples(case1_config, 8000, SEED), users=20)
        ratio = se1 / se2
        assert abs(ratio - math.sqrt(2.0)) < 0.2 * math.sqrt(2.0)

    def test_golden_run(self, case1_config):
        # frozen from the first run of the one-generator-per-block stream on
        # the reflection-folded factor at this seed (the link-level sampler gave 22.20694317794273 and 0.3831)
        s = sir_samples(case1_config, 20_000, SeedSpec(1234))
        er, _ = mc_estimate("er", s, users=case1_config.users)
        op, _ = mc_estimate("op", s, gamma_th=1.0)
        assert er == pytest.approx(22.34180952658907, rel=1e-9)
        assert op == pytest.approx(0.3756, abs=1e-12)
        assert s.redrawn == 0

    def test_trial_floor(self, case1_config):
        with pytest.raises(DomainError):
            sir_samples(case1_config, 0, SEED)

    def test_trial_cap_refuses_before_allocating(self, case1_config):
        # 2^40 trials would need 40 TiB of sample arrays; np.empty would
        # raise MemoryError, so a DomainError shows the cap came first
        with pytest.raises(DomainError, match="GiB of samples"):
            sir_samples(case1_config, 2**40, SEED)

    def test_reducer_validation(self, case1_config):
        s = sir_samples(case1_config, 50, SEED)
        with pytest.raises(DomainError):
            mc_estimate("ks", s)
        with pytest.raises(DomainError):
            mc_estimate("sop", s)
        with pytest.raises(DomainError):
            mc_estimate("sop_lower", s, s, rs=-0.5)
        for gamma_th in (-0.5, math.nan, math.inf):
            with pytest.raises(DomainError, match="gamma_th must be nonnegative and finite"):
                mc_estimate("op", s, gamma_th=gamma_th)
        assert mc_estimate("op", s, gamma_th=0.0) == (0.0, 0.0)
        one = sir_samples(case1_config, 1, SEED)
        for metric in ("er", "op"):
            with pytest.raises(DomainError):
                mc_estimate(metric, one)


class TestMcSop:
    def test_identical_sides_near_half(self, case1_config):
        p, se = mc_estimate("sop", *sop_pair(case1_config, case1_config, 4000), rs=1e-9)
        assert abs(p - 0.5) < 2.5 * se + 0.01

    def test_large_rate_saturates(self, case1_config):
        p, _ = mc_estimate("sop", *sop_pair(case1_config, case1_config, 2000), rs=40.0)
        assert p == 1.0

    def test_overflowing_rate_saturates(self, case1_config):
        # 2^rs overflows: every trial is an outage, no float error
        pair = sop_pair(case1_config, case1_config, 200)
        for metric in ("sop", "sop_lower"):
            assert mc_estimate(metric, *pair, rs=1e308) == (1.0, 0.0)
        assert mc_estimate("op", pair[0], gamma_th=1e308) == (1.0, 0.0)

    def test_interference_cancellation_ordering(self):
        bob_grid = preset_grid("6GHz-VC")
        eve_cfg = SimConfig(corr=correlation_matrix(preset_grid("6GHz-NC")), users=20)
        vals = []
        for delta_b in (1.0, 0.5, 0.1):
            bob_cfg = SimConfig(corr=correlation_matrix(bob_grid), users=20, delta=delta_b)
            p, _ = mc_estimate("sop", *sop_pair(bob_cfg, eve_cfg, 4000), rs=1.0)
            vals.append(p)
        assert vals[0] > vals[1] > vals[2]

    def test_bob_and_eve_streams_independent(self, case1_config):
        bob = sir_samples(case1_config, 50, SEED, substream=0)
        eve = sir_samples(case1_config, 50, SEED, substream=1)
        assert not np.allclose(bob.sir, eve.sir)

    @pytest.mark.parametrize("rs", [0.0, 1e-9, 0.5, 1.0, 2.0, 6.0])
    def test_lower_bound_below_sop(self, case1_config, rs):
        # sir_B < 2^rs sir_E implies log2(1 + sir_B) - log2(1 + sir_E) < rs,
        # so on the same samples the bound never exceeds the SOP
        bob, eve = sop_pair(case1_config, SimConfig(corr=case1_config.corr, users=20, delta=0.5), 3000)
        lower, _ = mc_estimate("sop_lower", bob, eve, rs=rs)
        sop, _ = mc_estimate("sop", bob, eve, rs=rs)
        assert lower <= sop

    def test_zero_rate_sop_is_the_lower_bound(self, case1_config):
        # at rs = 0 both count the trials with sir_B < sir_E
        bob, eve = sop_pair(case1_config, SimConfig(corr=case1_config.corr, users=20, delta=0.5), 3000)
        sop = mc_estimate("sop", bob, eve, rs=0.0)
        assert 0.0 < sop[0] < 1.0
        assert sop == mc_estimate("sop_lower", bob, eve, rs=0.0)
