import numpy as np
import pytest

from shiftmix.fourier import (
    TensorIndex,
    coefficient_envelope_constant,
    exact_covariance,
    linear_fourier_table,
    mc_fourier_coefficient,
)
from shiftmix.observables import linear_functional, monomial_sum
from shiftmix.sampling import SamplerState


class TestTensorIndex:
    def test_positions_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            TensorIndex((1, 1), (3, 2))

    def test_levels_start_at_one(self):
        with pytest.raises(ValueError, match="levels"):
            TensorIndex((0,), (1,))


class TestLinearTable:
    def test_point_mass_supported_at_zero(self, model2, basis40):
        # a[l, 0] = A_l / W_0 = A_l, and no deeper position carries a factor
        t = linear_fourier_table(model2, basis40, [1.0])
        assert t.depth_factors.tolist() == [1.0]

    def test_forward_positions_vanish(self, model2, basis40):
        # one depth factor per position 0, -1, ..., -256 and none beyond
        t = linear_fourier_table(model2, basis40, np.ones(257))
        assert len(t.depth_factors) == 257

    def test_parseval_recovers_amplitude_variance(self, model2, basis40, amp_moments):
        _, var = amp_moments
        t = linear_fourier_table(model2, basis40, [1.0])
        assert float(np.dot(t.level_factors, t.level_factors)) == pytest.approx(
            var, abs=1e-10
        )

    def test_operator_composition_translates_positions(self, model2, basis40):
        # composing with the operator pushes coefficient mass one step
        # deeper: (f o T)(x) = sum c_m (W_{m+1}/W_m) x_{m+1}, and its table
        # equals the original one advanced by one position
        c = np.array([0.25, 1.0, -0.5, 0.0, 2.0])
        ct = np.zeros(6)
        for m in range(5):
            ct[m + 1] = c[m] * model2.W[m + 1] / model2.W[m]
        base = linear_fourier_table(model2, basis40, c)
        composed = linear_fourier_table(model2, basis40, ct)
        advanced = np.concatenate([[0.0], base.depth_factors])  # a[l, 1] = 0
        for l in (1, 2, 9):
            assert composed.level_factors[l - 1] * composed.depth_factors == pytest.approx(
                base.level_factors[l - 1] * advanced, rel=1e-12, abs=1e-300
            )


class TestExactCovariance:
    def test_point_mass_has_no_lagged_correlation(self, model2, basis40):
        t = linear_fourier_table(model2, basis40, [1.0])
        for lag in (1, 2, 7, 300):
            assert exact_covariance(t, t, lag) == 0.0

    def test_adjacent_pair_at_unit_lag(self, model2, basis40, amp_moments):
        _, var = amp_moments
        t = linear_fourier_table(model2, basis40, [1.0, 1.0])
        assert exact_covariance(t, t, 1) == pytest.approx(var, rel=1e-10)

    def test_zero_lag_is_weighted_square_sum(self, model2, basis40, amp_moments):
        _, var = amp_moments
        c = np.array([1.0, 0.5, 0.0, 2.0])
        t = linear_fourier_table(model2, basis40, c)
        want = var * float(np.sum((c / model2.W[:4]) ** 2))
        assert exact_covariance(t, t, 0) == pytest.approx(want, rel=1e-10)

    def test_iid_convolution_oracle_across_lags(self, model2, basis40, amp_moments):
        # independent-coordinate oracle: cov = Var * sum c_m c_{m+p} / (W_m W_{m+p})
        _, var = amp_moments
        c = np.ones(257)
        t = linear_fourier_table(model2, basis40, c)
        invw = 1.0 / model2.W[:257]
        for lag in (0, 1, 3, 16, 100, 256):
            want = var * float(np.dot(invw[: 257 - lag], invw[lag:]))
            got = exact_covariance(t, t, lag)
            assert got == pytest.approx(want, rel=1e-10)

    def test_negative_lag_rejected(self, model2, basis40):
        t = linear_fourier_table(model2, basis40, np.ones(64))
        with pytest.raises(ValueError, match="lag must be nonnegative"):
            exact_covariance(t, t, -5)

    def test_distinct_pair_orientation(self, model2, basis40, amp_moments):
        # cov(f o T^p, g) for point functionals at depths 0 and 1 fires
        # exactly at lag 1: the lag image of f reads one coordinate deeper
        _, var = amp_moments
        tf = linear_fourier_table(model2, basis40, [1.0])
        tg = linear_fourier_table(model2, basis40, [0.0, 1.0])
        assert exact_covariance(tf, tg, 1) == pytest.approx(var, rel=1e-12)
        for lag in (0, 2):
            assert exact_covariance(tf, tg, lag) == 0.0


class TestEnvelope:
    def test_fitted_constant_stable_across_truncations(self, model2, basis40, weights40):
        consts = []
        for depth in (64, 128, 256):
            t = linear_fourier_table(model2, basis40, np.ones(depth + 1))
            consts.append(coefficient_envelope_constant(t, model2))
        assert max(consts) / min(consts) < 1.01

    def test_constant_bounds_all_entries(self, model2, basis40, weights40):
        t = linear_fourier_table(model2, basis40, np.ones(257))
        c = coefficient_envelope_constant(t, model2)
        sqp = np.sqrt(weights40.p)
        for l in (1, 5, 20):
            for j in (0, -3, -64):
                a = abs(t.level_factors[l - 1] * t.depth_factors[-j])
                assert a <= c * sqp[l - 1] * (1.0 + abs(j)) ** -model2.alpha * (1 + 1e-12)


class TestSampledCoefficients:
    def test_degree_one_vanishing_on_pairs(self, model2, basis40, weights40):
        # arity-two coefficients of a degree-one observable vanish; the
        # estimator balances rare double spikes of the basis product, so it
        # needs enough samples to visit them
        obs = linear_functional(np.ones(9))
        idx = TensorIndex((1, 1), (-3, 0))
        est, se = mc_fourier_coefficient(
            obs, model2, weights40, basis40, idx, 400_000, SamplerState(2), depth=8
        )
        assert abs(est) <= 3.0 * se

    def test_constant_observable_orthogonal(self, model2, basis40, weights40):
        const = monomial_sum([(2.5, ())])
        for idx in (TensorIndex((1,), (0,)), TensorIndex((1, 1), (-2, 0))):
            est, se = mc_fourier_coefficient(
                const, model2, weights40, basis40, idx, 100_000, SamplerState(8), depth=4
            )
            assert abs(est) <= 3.0 * max(se, 1e-15)

    def test_point_mass_matches_closed_form(self, model2, basis40, weights40):
        obs = linear_functional([1.0])
        table = linear_fourier_table(model2, basis40, [1.0])
        for l in (1, 2):
            idx = TensorIndex((l,), (0,))
            est, se = mc_fourier_coefficient(
                obs, model2, weights40, basis40, idx, 60_000, SamplerState(21), depth=2
            )
            assert abs(est - table.level_factors[l - 1]) <= 3.0 * se

    def test_position_outside_window_rejected(self, model2, basis40, weights40):
        with pytest.raises(ValueError, match="window"):
            mc_fourier_coefficient(
                linear_functional([1.0]), model2, weights40, basis40,
                TensorIndex((1,), (-9,)), 10, SamplerState(1), depth=4,
            )
