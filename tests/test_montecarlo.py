import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cumasim.analytic import exact_er, exact_op, exact_sop, sop_lower_numeric
from cumasim.geometry import CorrelationMatrix, PortGrid, correlation_matrix, preset_grid
from cumasim.harness import ks_statistic
from cumasim.montecarlo import _BLOCK, SampleSet, SeedSpec, SimConfig, mc_stderr, select_ports, sir_sample, sir_samples
from cumasim.specfun import DomainError
from link_oracle import ChannelRealization, dense_correlation, draw_realization, link_samples, link_sir_sample

SEED = SeedSpec(20240611)


class TestSeedSpec:
    def test_u64_bounds(self):
        SeedSpec(0)
        SeedSpec(2**64 - 1)
        with pytest.raises(DomainError):
            SeedSpec(-1)
        with pytest.raises(DomainError):
            SeedSpec(2**64)
        with pytest.raises(DomainError, match="master seed must be a u64, got 1.5"):
            SeedSpec(1.5)

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


def positive_parts(desired):
    """The (2, N) rows max(Re d, 0), max(Im d, 0) that the kernel hands `select_ports`."""
    return np.maximum(np.stack([desired.real, desired.imag]), 0.0)


class TestSelectPorts:
    def test_all_positive(self):
        pair = positive_parts(np.array([1.0 + 1j, 2.0 + 1j, 0.5 - 1j]))
        assert select_ports(pair) == 3
        assert np.array_equal(pair, [[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])

    def test_mixed_signs(self):
        pair = positive_parts(np.array([1.0 + 1j, -1.0 + 1j, 2.0 - 3j]))
        assert select_ports(pair) == 2
        assert np.array_equal(pair, [[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])

    def test_zero_ties_excluded(self):
        pair = positive_parts(np.array([0.0 + 0.0j, 1.0 + 0.0j, -0.0 - 0.0j]))
        assert select_ports(pair) == 1
        assert np.array_equal(pair, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])

    def test_negation_swaps_to_complement(self, case1_corr):
        r = draw_realization(case1_corr, 1.0, 2, SEED, trial=11)
        pair, neg = positive_parts(r.desired), positive_parts(-r.desired)
        k_i, k_i_neg = select_ports(pair), select_ports(neg)
        assert k_i + k_i_neg == 28
        assert np.array_equal(pair[0] + neg[0], np.ones(28))

    def test_activation_rate_is_half(self, case1_config):
        samples = sir_samples(case1_config, 4000, SEED)
        assert samples.k_i_sizes.mean() / 28 == pytest.approx(0.5, abs=0.005)

    def test_empty_vector(self):
        # a factor without ports leaves every branch empty, so the kernel runs out of redraws
        with pytest.raises(DomainError, match="interference power stayed zero after 64 redraws"):
            sir_sample(SEED.rng(0), np.zeros((0, 1)), 2)


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

    def test_empty_activation_is_redrawn(self):
        # a single port activates a branch with probability 1/2, so most
        # trials are redrawn, and every returned trial has both branches
        sir, sir_i, k_i, q_i, redraws = sir_sample(SEED.rng(0), np.ones((1, 1)), 3)
        assert 0 < np.count_nonzero(redraws) < _BLOCK
        assert np.all(np.isfinite(sir)) and np.all(sir_i < sir)
        assert np.all(k_i == 1) and np.all(q_i == 1.0)

    @pytest.mark.parametrize("preset", ["6GHz-NC", "6GHz-VC", "26GHz-NC", None], ids=lambda p: p or "one-port")
    def test_matches_separate_mask_kernel_bit_for_bit(self, preset):
        # the kernel with a separate mask array, masked sums of masks * d,
        # np.square(masks @ factor) and delta inside the interference power;
        # the in-place kernel, drawn at delta = 1 and read through over(delta),
        # must equal it exactly where delta is a power of two, and to
        # rounding (the division moves) elsewhere
        def separate_masks(rng, factor, interferers, delta):
            sir, sir_i, q_i = np.empty(_BLOCK), np.empty(_BLOCK), np.empty(_BLOCK)
            k_i = np.empty(_BLOCK, dtype=np.int64)
            redraws = np.zeros(_BLOCK, dtype=np.int64)
            rows = np.arange(_BLOCK)
            for attempt in range(65):
                n = len(rows)
                redraws[rows] = attempt
                d = rng.standard_normal((2 * n, factor.shape[1])) @ factor.T
                chi = rng.chisquare(interferers, (n, 2))
                masks = np.zeros_like(d)
                for j, t in enumerate(rows):
                    on_i, on_q = np.flatnonzero(d[2 * j] > 0.0), np.flatnonzero(d[2 * j + 1] > 0.0)
                    masks[2 * j, on_i] = 1.0
                    masks[2 * j + 1, on_q] = 1.0
                    k_i[t] = len(on_i)
                q = np.square(masks @ factor).sum(axis=1).reshape(n, 2)
                nu = np.square((masks * d).sum(axis=1)).reshape(n, 2)
                xi = delta * q * chi
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = nu / xi
                sir_i[rows], sir[rows], q_i[rows] = ratio[:, 0], ratio[:, 0] + ratio[:, 1], q[:, 0]
                rows = rows[(xi == 0.0).any(axis=1)]
                if not rows.size:
                    return sir, sir_i, k_i, q_i, redraws
            raise AssertionError("the reference kernel ran out of redraws")

        factor = np.ones((1, 1)) if preset is None else correlation_matrix(preset_grid(preset)).factor
        drawn = sir_samples(SimConfig(CorrelationMatrix(factor=factor), 10), 2 * _BLOCK, SEED)
        for delta, maxulp in ((1.0, 0), (0.5, 0), (0.3, 4)):
            got = drawn.over(delta)
            blocks = [separate_masks(SEED.rng(b), factor, 9, delta) for b in range(2)]
            sir, sir_i, k_i, q_i, redraws = map(np.concatenate, zip(*blocks))
            np.testing.assert_array_max_ulp(got.sir, sir, maxulp=maxulp)
            np.testing.assert_array_max_ulp(got.sir_i, sir_i, maxulp=maxulp)
            assert np.array_equal(got.k_i_sizes, k_i) and np.array_equal(got.q_i, q_i)
            assert got.redrawn == redraws.sum()
        if preset is None:  # the redraw rounds were exercised
            assert drawn.redrawn > 0

    def test_validation(self, case1_corr):
        with pytest.raises(DomainError, match="interferer"):
            sir_sample(SEED.rng(0), case1_corr.factor, 0)
        # no port ever activates: every trial stays empty
        with pytest.raises(DomainError, match="redraws"):
            sir_sample(SEED.rng(0), np.zeros((2, 1)), 2)

    def test_matches_per_trial_matrix_vector_reference(self):
        # the loop the blocks replaced: two matrix-vector products with F per
        # trial and delta inside the interference power; the GEMMs sum in
        # another order and over(delta) divides afterwards, so agreement is
        # to rounding
        config = SimConfig(corr=correlation_matrix(preset_grid("6GHz-VC")), users=20)
        factor = config.corr.factor
        n = 2 * _BLOCK + 3
        drawn = sir_samples(config, n, SEED)
        assert drawn.redrawn == 0
        for delta in (1.0, 0.3):
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
                    ratio = nu / (delta * q * chi[j])
                    want[b * _BLOCK + j] = ratio.sum(), ratio[0], masks[0].sum(), q[0]
            s = drawn.over(delta)
            assert np.array_equal(s.k_i_sizes, want[:n, 2])
            for got, ref in ((s.sir, want[:n, 0]), (s.sir_i, want[:n, 1]), (s.q_i, want[:n, 3])):
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_mean_mask_quadratic_form(self):
        # E[m_k m_l] = 1/4 + asin(rho_kl) / (2 pi) (Sheppard), so
        # E[q_I] = sum_kl rho_kl (1/4 + asin(rho_kl) / (2 pi))
        grid = preset_grid("6GHz-VC")
        corr = correlation_matrix(grid)
        rho = np.clip(dense_correlation(grid), -1.0, 1.0)
        want = float(np.sum(rho * (0.25 + np.arcsin(rho) / (2.0 * math.pi))))
        q = sir_samples(SimConfig(corr=corr, users=20), 4000, SEED).q_i
        assert abs(q.mean() - want) < 4.0 * q.std(ddof=1) / math.sqrt(len(q))

    @pytest.mark.parametrize("preset", ["6GHz-NC", "6GHz-VC"])
    def test_matches_link_level_oracle(self, preset):
        grid = preset_grid(preset)
        config = SimConfig(corr=correlation_matrix(grid), users=20)
        n = 5000
        # the oracle draws at channel power 2.5; the SIR does not depend on it
        oracle = link_samples(config, dense_correlation(grid), n, SeedSpec(77), 1.0, omega=2.5)
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
        s = sir_samples(config, 2000, SEED)
        er, se = exact_er(10, s), mc_stderr("er", s, users=10)
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
            blocks = [sir_sample(SEED.rng(b), config.corr.factor, config.interferers) for b in range(4)]
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


class TestSampleSetOver:
    """`SampleSet.over(delta)`: a set drawn at delta = 1, read at delta."""

    def test_unit_delta_is_the_set_itself(self, case1_config):
        s = sir_samples(case1_config, 100, SEED)
        assert s.over(1.0) is s

    def test_delta_scaling(self, case1_config):
        full = sir_samples(case1_config, 300, SEED)
        half = full.over(0.5)
        assert np.array_equal(half.sir, 2.0 * full.sir) and np.array_equal(half.sir_i, 2.0 * full.sir_i)
        # the masks, q_I and redraws are shared, not copied
        assert half.k_i_sizes is full.k_i_sizes and half.q_i is full.q_i and half.redrawn == full.redrawn
        # the drawn set is left as it was
        assert np.array_equal(full.sir, sir_samples(case1_config, 300, SEED).sir)

    @pytest.mark.parametrize("delta", [0.0, 1.2, math.nan])
    def test_delta_domain(self, case1_config, delta):
        s = sir_samples(case1_config, 50, SEED)
        with pytest.raises(DomainError, match="delta must lie in"):
            s.over(delta)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_view_is_not_finite(self, case1_config):
        s = sir_samples(case1_config, 50, SEED)
        with pytest.raises(FloatingPointError, match="trial 0: SIR sample is not finite"):
            s.over(5e-324)


def sample_set(sir):
    """A SampleSet of the given SIR samples; its other per-trial fields are placeholders."""
    sir = np.asarray(sir, dtype=float)
    return SampleSet(sir=sir, sir_i=sir, k_i_sizes=np.ones(len(sir), dtype=np.int64), q_i=np.ones(len(sir)), redrawn=0)


class TestSampleSetLaw:
    """A SampleSet read as its samples' empirical law, through `ExactLaw`'s `expect` and `cdf`."""

    SIR = (3.0, 0.5, 3.0, 7.25, 0.5, 0.5, 12.0)  # unsorted, with ties

    @pytest.mark.parametrize("delta", [1.0, 0.3])
    def test_cdf_counts_the_samples_at_or_below(self, delta):
        law = sample_set(self.SIR).over(delta)
        z = np.array([0.0, 0.4, 0.5, 1.0, 3.0, 3.5, 7.25, 12.0, 13.0, 1e300, math.inf]) / delta
        brute = np.array([np.count_nonzero(law.sir <= t) for t in z]) / len(law.sir)
        assert np.array_equal(law.cdf(z), brute)
        assert np.array_equal(law.cdf(z.reshape(-1, 1)), brute.reshape(-1, 1))
        assert all(law.cdf(t) == want for t, want in zip(z, brute))
        # a threshold on a sample counts it; 0 below the smallest sample, 1 at and above the largest
        low, high = law.sir.min(), law.sir.max()
        assert law.cdf(np.nextafter(low, 0.0)) == 0.0 and law.cdf(low) == 3 / 7
        assert law.cdf(np.nextafter(high, 0.0)) == 6 / 7 and law.cdf(high) == 1.0 == law.cdf(2.0 * high)

    def test_cdf_of_nan_is_nan(self):
        # as ExactLaw.cdf: NaN for NaN, a scalar for a scalar
        law = sample_set(self.SIR)
        assert isinstance(law.cdf(1.0), float) and math.isnan(law.cdf(math.nan))
        mixed = law.cdf(np.array([[0.4, math.nan], [3.0, math.inf]]))
        assert mixed.shape == (2, 2) and np.isnan(mixed[0, 1])
        assert np.array_equal(mixed[[0, 1, 1], [0, 0, 1]], [0.0, 5 / 7, 1.0])

    @pytest.mark.parametrize("delta", [1.0, 0.3])
    def test_cdf_of_a_drawn_set_with_ties(self, case1_config, delta):
        drawn = sir_samples(case1_config, 500, SEED)
        law = sample_set(np.round(drawn.sir, 1)).over(delta)  # rounding leaves many ties
        z = np.concatenate((law.sir[::7], np.random.default_rng(3).uniform(0.0, law.sir.max(), 50)))
        brute = np.array([np.count_nonzero(law.sir <= t) for t in z]) / len(law.sir)
        assert np.array_equal(law.cdf(z), brute)
        assert all(law.cdf(t) == want for t, want in zip(z, brute))

    @pytest.mark.parametrize("delta", [1.0, 0.3])
    def test_expect_is_the_sample_mean(self, case1_config, delta):
        drawn = sir_samples(case1_config, 500, SEED)
        law = drawn.over(delta)
        for phi in (np.log1p, lambda z: z <= 2.0, np.sqrt):
            assert law.expect(phi) == np.mean(phi(drawn.sir / delta))


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


def mc_secrecy(metric, bob, eve, rs):
    """A secrecy metric's Monte Carlo mean and standard error, as a sweep's columns read them."""
    return {"sop": exact_sop, "sop_lower": sop_lower_numeric}[metric](bob, eve, rs), mc_stderr(metric, bob, eve, rs=rs)


class TestMcMetrics:
    def test_op_monotone_on_grid(self, case1_config):
        s = sir_samples(case1_config, 3000, SEED)
        op = [exact_op(g, s) for g in (0.25, 0.5, 1.0, 1.5, 2.5)]
        assert all(a <= b for a, b in zip(op, op[1:]))

    def test_stderr_shrinks_with_trials(self, case1_config):
        se1 = mc_stderr("er", sir_samples(case1_config, 4000, SEED), users=20)
        se2 = mc_stderr("er", sir_samples(case1_config, 8000, SEED), users=20)
        ratio = se1 / se2
        assert abs(ratio - math.sqrt(2.0)) < 0.2 * math.sqrt(2.0)

    @pytest.mark.parametrize("users", [10**9, 10**18])
    def test_er_stderr_at_small_sir(self, users):
        # per-user SIRs near 2e-8 (2e-17): 1 + sir keeps about half their digits (rounds to 1)
        s = sir_samples(SimConfig(correlation_matrix(preset_grid("6GHz-NC")), users), 2000, SeedSpec(1))
        want = users * np.std(np.log1p(s.sir) / math.log(2), ddof=1) / math.sqrt(2000)
        assert mc_stderr("er", s, users=users) == pytest.approx(want, rel=1e-12)

    def test_golden_run(self, case1_config):
        # frozen from the first run of the one-generator-per-block stream on
        # the reflection-folded factor at this seed (the link-level sampler gave 22.20694317794273 and 0.3831)
        s = sir_samples(case1_config, 20_000, SeedSpec(1234))
        er = exact_er(case1_config.users, s)
        op = exact_op(1.0, s)
        assert er == pytest.approx(22.34180952658907, rel=1e-9)
        assert op == pytest.approx(0.3756, abs=1e-12)
        assert s.redrawn == 0

    def test_trial_floor(self, case1_config):
        # a float count, integral or not, is refused before np.empty sees it
        for trials in (0, 100.0, 2.5):
            with pytest.raises(DomainError, match="trials must be a positive integer"):
                sir_samples(case1_config, trials, SEED)

    def test_trial_cap_refuses_before_allocating(self, case1_config):
        # 2^40 trials would need 48 TiB of sample arrays; np.empty would
        # raise MemoryError, so a DomainError shows the cap came first
        with pytest.raises(DomainError, match="GiB of samples"):
            sir_samples(case1_config, 2**40, SEED)
        # six 8-byte values per trial, a set and its view at delta != 1, fit 1 GiB
        with pytest.raises(DomainError, match="limit 22369621 trials per run"):
            sir_samples(case1_config, 22_369_622, SEED)

    def test_reducer_validation(self, case1_config):
        s = sir_samples(case1_config, 50, SEED)
        with pytest.raises(DomainError, match="unknown Monte Carlo metric 'ks'"):
            mc_stderr("ks", s)
        for metric in ("sop", "sop_lower"):
            with pytest.raises(DomainError, match=f"{metric} needs Eve's samples"):
                mc_stderr(metric, s)
        with pytest.raises(DomainError):
            mc_stderr("sop_lower", s, s, rs=-0.5)
        for gamma_th in (-0.5, math.nan, math.inf):
            with pytest.raises(DomainError, match="gamma_th must be nonnegative and finite"):
                mc_stderr("op", s, gamma_th=gamma_th)
        assert (exact_op(0.0, s), mc_stderr("op", s, gamma_th=0.0)) == (0.0, 0.0)
        # er refuses the user counts exact_er refuses, the default 1 included; numpy integers pass
        for kwargs in ({}, {"users": 0}, {"users": 20.5}):
            with pytest.raises(DomainError, match="user count must be an integer|at least 2 users"):
                mc_stderr("er", s, **kwargs)
        assert mc_stderr("er", s, users=np.int64(20)) == mc_stderr("er", s, users=20)
        one = sir_samples(case1_config, 1, SEED)
        for metric, bob, eve in (("er", one, None), ("op", one, None), ("sop", s, one), ("sop_lower", one, s)):
            with pytest.raises(DomainError, match="needs at least 2 samples, got 1"):
                mc_stderr(metric, bob, eve)


class TestMcSop:
    def test_identical_sides_near_half(self, case1_config):
        p, se = mc_secrecy("sop", *sop_pair(case1_config, case1_config, 4000), rs=1e-9)
        assert abs(p - 0.5) < 2.5 * se + 0.01

    def test_large_rate_saturates(self, case1_config):
        p, _ = mc_secrecy("sop", *sop_pair(case1_config, case1_config, 2000), rs=40.0)
        assert p == 1.0

    def test_overflowing_rate_saturates(self, case1_config):
        # 2^rs overflows: every pair is an outage, no float error
        pair = sop_pair(case1_config, case1_config, 200)
        for metric in ("sop", "sop_lower"):
            assert mc_secrecy(metric, *pair, rs=1e308) == (1.0, 0.0)
        assert (exact_op(1e308, pair[0]), mc_stderr("op", pair[0], gamma_th=1e308)) == (1.0, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_eve_product_saturates(self, case1_config):
        # a finite 2^rs times Eve's SIR may overflow to inf, which every Bob sample is below
        bob, eve = sop_pair(case1_config, case1_config, 200)
        eve = dataclasses.replace(eve, sir=np.full_like(eve.sir, 1e307))
        assert mc_secrecy("sop_lower", bob, eve, rs=10.0) == (1.0, 0.0)

    def test_interference_cancellation_ordering(self):
        bob_grid = preset_grid("6GHz-VC")
        eve_cfg = SimConfig(corr=correlation_matrix(preset_grid("6GHz-NC")), users=20)
        bob, eve = sop_pair(SimConfig(corr=correlation_matrix(bob_grid), users=20), eve_cfg, 4000)
        vals = [exact_sop(bob.over(delta_b), eve, 1.0) for delta_b in (1.0, 0.5, 0.1)]
        assert vals[0] > vals[1] > vals[2]

    def test_bob_and_eve_streams_independent(self, case1_config):
        bob = sir_samples(case1_config, 50, SEED, substream=0)
        eve = sir_samples(case1_config, 50, SEED, substream=1)
        assert not np.allclose(bob.sir, eve.sir)

    @pytest.mark.parametrize("rs", [0.0, 1e-9, 0.5, 1.0, 2.0, 6.0])
    def test_lower_bound_below_sop(self, case1_config, rs):
        # sir_B < 2^rs sir_E implies log2(1 + sir_B) - log2(1 + sir_E) < rs,
        # so on the same samples the bound never exceeds the SOP
        bob, eve = sop_pair(case1_config, case1_config, 3000)
        eve = eve.over(0.5)
        lower = sop_lower_numeric(bob, eve, rs)
        sop = exact_sop(bob, eve, rs)
        assert lower <= sop

    def test_zero_rate_sop_is_the_lower_bound(self, case1_config):
        # at rs = 0 both count the Bob/Eve pairs with sir_B <= sir_E
        bob, eve = sop_pair(case1_config, case1_config, 3000)
        eve = eve.over(0.5)
        sop = mc_secrecy("sop", bob, eve, rs=0.0)
        assert 0.0 < sop[0] < 1.0
        assert sop == mc_secrecy("sop_lower", bob, eve, rs=0.0)

    def test_all_pairs_stderr_calibrated_and_below_pairing(self):
        # 32 seeds of Bob on 6GHz-VC against Eve on 6GHz-NC, 8 users, 1000 trials, rs = 1
        bob_cfg = SimConfig(correlation_matrix(preset_grid("6GHz-VC")), 8)
        eve_cfg = SimConfig(correlation_matrix(preset_grid("6GHz-NC")), 8)
        pairs = [sop_pair(bob_cfg, eve_cfg, 1000, SeedSpec(seed)) for seed in range(32)]
        rng = np.random.default_rng(0)
        for metric, shift in (("sop", 1.0), ("sop_lower", 0.0)):
            est, se = np.array([mc_secrecy(metric, bob, eve, rs=1.0) for bob, eve in pairs]).T
            spread = float(np.std(est, ddof=1))
            # the reference pairs trial t with trial t only. Given a seed's two
            # sets, its pairing is a uniformly random one, so random re-pairings
            # of each seed's sets sample the paired estimator's law; pooled over
            # the seeds, their spread holds the same seed-to-seed part as `spread`
            paired = [np.mean(bob.sir <= 2.0 * (shift + rng.permutation(eve.sir)) - shift)
                      for bob, eve in pairs for _ in range(64)]
            paired_spread = float(np.std(paired, ddof=1))
            detail = f"{metric}: spread {spread:.5f}, mean stderr {se.mean():.5f}, paired spread {paired_spread:.5f}"
            assert 1.0 / 1.5 <= se.mean() / spread <= 1.5, detail
            assert spread <= 0.85 * paired_spread, detail
