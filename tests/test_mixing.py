import dataclasses
import math

import numpy as np
import pytest
from scipy.special import zeta

from reference import evaluate_window, window_power_lhs
from shiftmix import mixing
from shiftmix.fourier import linear_fourier_table
from shiftmix.observables import (
    evaluate_windows,
    linear_functional,
    monomial_sum,
    with_exact_mean_subtracted,
)
from shiftmix.sampling import SamplerState, sample_symbol_matrix
from shiftmix.shift import canonical_shift


def iid_cov_oracle(var, alpha, depth, lag):
    """Var * sum_m c_m c_{m+p} / (W_m W_{m+p}) for the all-ones functional."""
    total = 0.0
    for m in range(0, depth + 1 - lag):
        total += 1.0 / (max(m, 1) ** alpha * (m + lag) ** alpha)
    return var * total


class TestEmpiricalCovariance:
    def test_point_mass_has_no_lagged_signal(self, model2, weights40):
        obs = linear_functional([1.0])
        rep = mixing.empirical_covariance(
            model2, weights40, obs, obs, np.array([1, 2, 4, 8]),
            n_samples=30_000, depth=8, state=SamplerState(3),
        )
        assert np.all(np.abs(rep.mc) <= 3.0 * rep.se)
        assert np.all(rep.exact == 0.0)

    def test_point_mass_zero_lag_matches_variance(self, model2, weights40, amp_moments):
        _, var = amp_moments
        obs = linear_functional([1.0])
        rep = mixing.empirical_covariance(
            model2, weights40, obs, obs, np.array([0]),
            n_samples=50_000, depth=4, state=SamplerState(5),
        )
        assert abs(rep.mc[0] - var) <= 3.0 * rep.se[0]

    def test_distinct_pair_tracks_exact_orientation(self, model2, weights40, amp_moments):
        # point functionals at depths 0 and 1 correlate exactly at lag 1
        _, var = amp_moments
        f = linear_functional([1.0])
        g = linear_functional([0.0, 1.0])
        rep = mixing.empirical_covariance(
            model2, weights40, f, g, np.array([0, 1, 2]),
            n_samples=40_000, depth=4, state=SamplerState(19),
        )
        assert rep.exact[0] == 0.0 and rep.exact[2] == 0.0
        assert rep.exact[1] == pytest.approx(var, rel=1e-12)
        assert np.all(np.abs(rep.mc - rep.exact) <= 3.0 * rep.se)

    def test_window_sum_agrees_with_exact_at_every_lag(self, model2, weights40):
        obs = linear_functional(np.ones(257))
        lags = np.array([1, 4, 16, 64, 256])
        rep = mixing.empirical_covariance(
            model2, weights40, obs, obs, lags,
            n_samples=40_000, depth=256, state=SamplerState(11),
        )
        assert np.all(np.abs(rep.mc - rep.exact) <= 3.0 * rep.se)

    def test_monomial_lags_match_one_window_at_a_time(self, chain, weights40):
        model = canonical_shift(2.0, depth=4, chain=chain)
        obs = monomial_sum([(1.0, (0, 1)), (0.5, (3, 3))])
        lags = [1, 3]
        rep = mixing.empirical_covariance(
            model, weights40, obs, obs, np.array(lags), 300, depth=3, state=SamplerState(2)
        )
        mat = sample_symbol_matrix(weights40, 300, 7, SamplerState(2).substream(0))

        def values(lag):  # window index 0 at column 6 - lag, realized to depth 4 at most
            d = min(6 - lag, 4)
            return np.array(
                [evaluate_window(obs, model, row[6 - lag - d : 7 - lag]) for row in mat]
            )

        g = values(0)
        for i, lag in enumerate(lags):
            f = values(lag)
            assert rep.mc[i] == ((f - f.mean()) * (g - g.mean())).mean()

    def test_depth_below_support_rejected(self, model2, weights40):
        obs = linear_functional(np.ones(257))
        with pytest.raises(ValueError, match="support"):
            mixing.empirical_covariance(
                model2, weights40, obs, obs, np.array([1]),
                n_samples=10, depth=100, state=SamplerState(1),
            )

    @pytest.mark.parametrize(
        "obs",
        [linear_functional([1.0, 0.0, 0.5, -2.0]), monomial_sum([(1.0, (0, 1)), (0.5, (3, 3))])],
        ids=["linear", "monomials"],
    )
    def test_one_observable_object_gives_the_bytes_of_two(self, model2, weights40, obs):
        # the same object takes one evaluation per sub-block, an equal copy two
        kw = dict(lags=np.array([1, 2, 3, 5, 8, 13, 16]), n_samples=2500, depth=20)
        one = mixing.empirical_covariance(model2, weights40, obs, obs, state=SamplerState(4), **kw)
        two = mixing.empirical_covariance(
            model2, weights40, obs, dataclasses.replace(obs), state=SamplerState(4), **kw
        )
        assert one.mc.tobytes() == two.mc.tobytes()
        assert one.se.tobytes() == two.se.tobytes()
        assert (one.exact is None) == (obs.kind != "linear")
        if one.exact is not None:
            assert one.exact.tobytes() == two.exact.tobytes()

    def test_worker_count_does_not_change_results(self, model2, weights40):
        obs = linear_functional(np.ones(65))
        kw = dict(lags=np.array([1, 2]), n_samples=9000, depth=64)
        a = mixing.empirical_covariance(
            model2, weights40, obs, obs, state=SamplerState(7), **kw
        )
        b = mixing.empirical_covariance(
            model2, weights40, obs, obs, state=SamplerState(7), workers=5, **kw
        )
        assert np.array_equal(a.mc, b.mc)
        assert np.array_equal(a.se, b.se)


class TestDecayRegimes:
    def lag_grid(self):
        out, v = [], 16.0
        while v <= 4096:
            out.append(int(round(v)))
            v *= math.sqrt(2.0)
        return np.array(sorted(set(out)))

    def exact_report(self, chain, weights40, alpha, depth=1_000_000):
        model = canonical_shift(alpha, depth=depth, chain=chain)
        obs = linear_functional(np.ones(depth + 1))
        return mixing.exact_decay_curve(model, weights40, obs, obs, self.lag_grid())

    def test_subcritical_regime(self, chain, weights40):
        rep = self.exact_report(chain, weights40, 0.75)
        fit = mixing.decay_exponent_fit(rep)
        assert abs(fit.slope - (1.0 - 2.0 * 0.75)) <= 0.1

    def test_supercritical_regime(self, chain, weights40):
        rep = self.exact_report(chain, weights40, 2.0)
        fit = mixing.decay_exponent_fit(rep)
        assert abs(fit.slope - (-2.0)) <= 0.1

    def test_boundary_regime_ratio_band(self, chain, weights40):
        rep = self.exact_report(chain, weights40, 1.0)
        lo, hi = mixing.log_lag_ratio_band(rep)
        assert hi / lo <= 2.0

    def test_slope_values_match_series_oracle(self, chain, weights40, amp_moments):
        # independent series oracle computed with plain loops
        _, var = amp_moments
        rep = self.exact_report(chain, weights40, 2.0, depth=5000)
        for lag, val in zip(rep.lags[:4], rep.exact[:4]):
            assert val == pytest.approx(iid_cov_oracle(var, 2.0, 5000, int(lag)), rel=1e-10)

    def test_monte_carlo_slope_reproduces_regime(self, chain, weights40):
        # sampled covariances carry the theoretical exponent within the
        # looser Monte Carlo band; the slow regime is the one whose signal
        # stays above the sampling noise across a usable lag range
        model = canonical_shift(0.75, depth=256, chain=chain)
        obs = linear_functional(np.ones(257))
        lags = np.array([1, 2, 4, 8, 16, 32, 64])
        rep = mixing.empirical_covariance(
            model, weights40, obs, obs, lags,
            n_samples=100_000, depth=256, state=SamplerState(29),
        )
        fit = mixing.decay_exponent_fit(dataclasses.replace(rep, exact=None))
        assert abs(fit.slope - (1.0 - 2.0 * 0.75)) <= 0.2

    def test_one_observable_object_shares_one_table(self, chain, weights40):
        model = canonical_shift(1.5, depth=4096, chain=chain)
        obs = linear_functional(np.ones(4097))
        lags = self.lag_grid()
        one = mixing.exact_decay_curve(model, weights40, obs, obs, lags)
        two = mixing.exact_decay_curve(model, weights40, obs, dataclasses.replace(obs), lags)
        assert one.exact.tobytes() == two.exact.tobytes()

    def test_all_zero_covariances_error(self, model2, weights40):
        obs = linear_functional([1.0])
        rep = mixing.exact_decay_curve(
            model2, weights40, obs, obs, np.arange(1, 10)
        )
        with pytest.raises(ValueError, match="no signal"):
            mixing.decay_exponent_fit(rep)

    def test_too_few_usable_lags_error(self, model2, weights40):
        obs = linear_functional(np.ones(257))
        rep = mixing.exact_decay_curve(model2, weights40, obs, obs, np.array([1, 2, 4]))
        with pytest.raises(ValueError, match="at least 5"):
            mixing.decay_exponent_fit(rep)


class TestClt:
    def test_iid_control_is_gaussian(self, model2, weights40):
        obs = with_exact_mean_subtracted(linear_functional([1.0]), model2, weights40)
        rep = mixing.clt_experiment(model2, weights40, obs, 4096, 600, SamplerState(7))
        assert rep.ks_distance < rep.ks_limit
        assert abs(rep.skewness) < rep.skew_limit
        assert abs(rep.excess_kurtosis) < rep.kurtosis_limit
        assert rep.sigma2_series is not None
        assert abs(rep.sigma2_hat - rep.sigma2_series) <= 0.1 * rep.sigma2_series

    def test_monomial_sums_match_step_by_step_loop(self, chain, weights40):
        model = canonical_shift(2.0, depth=4, chain=chain)
        obs = monomial_sum([(1.0, (0, 1)), (0.5, (2, 2)), (2.0, (6,))])  # (6,) reads past depth
        obs = with_exact_mean_subtracted(obs, model, weights40)
        n, width, state = 12, 18, SamplerState(3)
        rep = mixing.clt_experiment(model, weights40, obs, n, 100, state)
        for r in range(100):
            syms = sample_symbol_matrix(weights40, 1, width, state.substream(r))[0]
            total = 0.0
            for p in range(n):
                hi = width - 1 - p
                lo = max(hi - model.depth, 0)
                total += evaluate_window(obs, model, syms[lo : hi + 1])
            assert rep.samples[r] == total / math.sqrt(n)

    def test_linear_sums_match_step_by_step_loop(self, model2, weights40):
        obs = linear_functional([1.0, 0.0, 0.5, -2.0, 0.0, 0.3])  # signed, with gaps
        obs = with_exact_mean_subtracted(obs, model2, weights40)
        n, state = 64, SamplerState(4)
        width = n + obs.support_depth
        rep = mixing.clt_experiment(model2, weights40, obs, n, 100, state)
        kern_rev = np.convolve(obs.coefs / model2.W[: len(obs.coefs)], np.ones(n))[::-1]
        for r in range(100):
            amp = model2.amplitudes(sample_symbol_matrix(weights40, 1, width, state.substream(r)))
            dot = float(amp[0] @ kern_rev) - n * obs.mean_shift
            assert rep.samples[r] == dot / math.sqrt(n)
            total = 0.0
            for p in range(n):
                total += float(evaluate_windows(obs, model2, amp, [width - 1 - p])[0, 0])
            assert rep.samples[r] == pytest.approx(total / math.sqrt(n), rel=1e-12)

    def test_zero_observable_degenerates(self, model2, weights40):
        obs = linear_functional([0.0])
        rep = mixing.clt_experiment(model2, weights40, obs, 256, 200, SamplerState(1))
        assert rep.degenerate
        assert not rep.passed

    def test_too_few_replicas_rejected(self, model2, weights40):
        obs = with_exact_mean_subtracted(linear_functional([1.0]), model2, weights40)
        with pytest.raises(ValueError, match="replicas"):
            mixing.clt_experiment(model2, weights40, obs, 64, 50, SamplerState(1))

    def test_uncentered_observable_is_centered_first(self, model2, weights40):
        for obs in (linear_functional(np.ones(17)), monomial_sum([(1.0, (0, 1)), (0.5, (2, 2))])):
            centered = with_exact_mean_subtracted(obs, model2, weights40)
            assert centered.mean_shift != 0.0
            raw = mixing.clt_experiment(model2, weights40, obs, 64, 200, SamplerState(1))
            done = mixing.clt_experiment(model2, weights40, centered, 64, 200, SamplerState(1))
            assert raw.samples.tobytes() == done.samples.tobytes()

    def test_slow_decay_rejected(self, chain, weights40):
        slow = canonical_shift(0.75, depth=16, chain=chain)
        obs = with_exact_mean_subtracted(linear_functional([1.0]), slow, weights40)
        with pytest.raises(ValueError, match="needs alpha > 1"):
            mixing.clt_experiment(slow, weights40, obs, 64, 200, SamplerState(1))

    def test_linear_form_deeper_than_the_model_rejected(self, model2, weights40):
        obs = with_exact_mean_subtracted(linear_functional(np.eye(301)[300]), model2, weights40)
        with pytest.raises(ValueError, match="depth 256 below observable support 300"):
            mixing.clt_experiment(model2, weights40, obs, 64, 200, SamplerState(1))


class TestConditionalNorms:
    def test_point_mass_diagnostics(self, model2, basis40, amp_moments):
        # the point functional is fully known one step in: the projection
        # onto the known side is the observable itself and the residual
        # beyond the horizon vanishes
        _, var = amp_moments
        table = linear_fourier_table(model2, basis40, [1.0])
        d = mixing.conditional_norm_diagnostics(table, np.array([1, 2, 4, 8, 16]))
        assert np.allclose(d.known_sq, var, rtol=1e-12)
        assert np.all(d.residual_sq == 0.0)
        # summand sqrt(var)/n^{3/2} has convergent partial sums
        assert d.known_partial[-1] < math.sqrt(var) * zeta(1.5) + 1e-9

    def test_single_step_cross_check(self, model2, basis40):
        # n = 1 values against direct table arithmetic: the known side keeps
        # position 0 only, the residual side keeps positions strictly below -1
        c = np.array([1.0, 0.5, 0.25])
        table = linear_fourier_table(model2, basis40, c)
        d = mixing.conditional_norm_diagnostics(table, np.array([1]))
        amp = float(np.dot(table.level_factors, table.level_factors))
        g = table.depth_factors
        assert d.known_sq[0] == pytest.approx(amp * g[0] ** 2, rel=1e-14)
        assert d.residual_sq[0] == pytest.approx(amp * g[2] ** 2, rel=1e-14)

    def test_grid_below_one_rejected(self, model2, basis40):
        table = linear_fourier_table(model2, basis40, [1.0, 0.5])
        with pytest.raises(ValueError, match="at least 1"):
            mixing.conditional_norm_diagnostics(table, np.array([0, 4]))

    def test_window_functional_envelope_and_cauchy(self, chain, weights40, basis40):
        model = canonical_shift(2.0, depth=4096, chain=chain)
        table = linear_fourier_table(model, basis40, np.ones(4097))
        grid = np.array([4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096])
        d = mixing.conditional_norm_diagnostics(table, grid)
        assert np.all(d.cauchy_ratios("known") >= 1.5)
        assert np.all(d.cauchy_ratios("residual") >= 1.5)
        env = np.maximum(grid.astype(float) ** (3.0 - 4.0), np.log(grid + 1.0))
        c_fit = d.residual_sq / env
        assert int(np.argmax(c_fit)) < len(grid) - 3
        tail = c_fit[len(grid) // 2 :]
        assert tail.max() / tail.min() < 2.0


class TestWindowPowerSums:
    def test_single_step_is_zeta_tail(self):
        for alpha in (1.5, 2.0):
            fc = mixing.window_tail_constants(alpha, [1])
            assert fc.lhs[0] == pytest.approx(float(zeta(2 * alpha)), rel=1e-6)
            assert fc.c_stated[0] == pytest.approx(float(zeta(2 * alpha)), rel=1e-6)

    def test_constants_finite_and_positive(self):
        fc = mixing.window_tail_constants(2.0, [10])
        assert 0 < fc.c_stated[0] < 10

    def test_stated_envelope_stable_at_three_halves(self):
        fc = mixing.window_tail_constants(1.5, [4, 16, 64, 256, 1024, 4096])
        assert fc.stated_spread() < 2.0

    def test_regime_envelope_stable_above_three_halves(self):
        fc = mixing.window_tail_constants(2.0, [4, 16, 64, 256, 1024, 4096])
        assert fc.regime_spread() < 2.0

    @pytest.mark.parametrize("alpha", [1.01, 1.5, 2.0, 3.0])
    def test_sums_match_one_n_at_a_time_bit_for_bit(self, alpha):
        # unsorted, a repeated point, n = 1, and j_max = max(200_000, 400 n)
        # on both sides of its switch at n = 500
        grid = [501, 3, 1, 500, 499, 3]
        fc = mixing.window_tail_constants(alpha, grid)
        ref = {n: window_power_lhs(alpha, n) for n in set(grid)}
        assert fc.lhs.tobytes() == np.array([ref[n] for n in sorted(grid)]).tobytes()

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is double here"
    )
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.2])
    def test_sums_agree_with_a_longdouble_resum(self, alpha):
        grid = [1, 4, 512]
        fc = mixing.window_tail_constants(alpha, grid)
        a = np.longdouble(alpha)
        j_max = [max(200_000, 400 * n) for n in grid]
        i = np.arange(1, j_max[-1] + grid[-1] + 2, dtype=np.longdouble)
        # exp-log is 3x faster than a longdouble power, and off by about 1e-18
        c = np.concatenate([np.zeros(1, dtype=np.longdouble), np.cumsum(np.exp(-a * np.log(i)))])
        for n, jm, got in zip(grid, j_max, fc.lhs):
            want = np.sum((c[n : n + jm + 1] - c[: jm + 1]) ** 2)
            want += n**2 * (jm + np.longdouble(1.5)) ** (1 - 2 * a) / (2 * a - 1)
            assert abs(np.longdouble(got) - want) <= 1e-12 * want

    @pytest.mark.parametrize("grid", [[], [0, 4], [-3]])
    def test_grid_below_one_rejected(self, grid):
        with pytest.raises(ValueError, match="n-grid"):
            mixing.window_tail_constants(2.0, grid)

    def test_factored_square_bound_small_instances(self):
        for n in (1, 3, 8):
            lhs, rhs = mixing.fact2_bruteforce(2.0, n)
            assert lhs <= rhs
