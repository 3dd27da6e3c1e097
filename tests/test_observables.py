import math

import numpy as np
import pytest

from shiftmix.observables import (
    evaluate,
    evaluate_windows,
    exact_mean,
    linear_functional,
    monomial_sum,
    norm_power,
    parse_observable,
    with_exact_mean_subtracted,
)
from shiftmix.sampling import SamplerState, SymbolWindow, sample_symbol_matrix, window_vector
from shiftmix.shift import LpVector, canonical_shift


class TestEvaluate:
    def test_point_functional_on_base_vector(self, model2):
        obs = linear_functional([1.0])
        v = LpVector(scaled=np.ones(1), model=model2)
        assert evaluate(obs, v) == 1.0

    def test_cross_monomial(self, model2):
        obs = monomial_sum([(1.0, (0, 1))])
        v = LpVector(scaled=np.array([2.0, 3.0]) * model2.W[:2], model=model2)
        assert evaluate(obs, v) == 6.0

    def test_norm_square_is_euclidean_for_p_two(self, model2):
        obs = norm_power(2)
        v = LpVector(scaled=np.array([3.0, 4.0]) * model2.W[:2], model=model2)
        assert evaluate(obs, v) == pytest.approx(25.0, rel=1e-14)

    def test_linearity_in_coefficients(self, model2):
        a = linear_functional([1.0, 0.5, 0.0, 2.0])
        b = linear_functional([0.0, 1.0, -1.0, 0.25])
        combo = linear_functional(3.0 * a.coefs + 2.0 * b.coefs)
        v = LpVector(scaled=np.array([0.3, -1.5, 0.75, 2.0]) * model2.W[:4], model=model2)
        want = 3.0 * evaluate(a, v) + 2.0 * evaluate(b, v)
        assert evaluate(combo, v) == pytest.approx(want, rel=1e-14)

    def test_parse_roundtrip(self, model2):
        v = LpVector(scaled=np.array([2.0, 3.0, 1.0]) * model2.W[:3], model=model2)
        assert evaluate(parse_observable("lin:0=1,1=0.5"), v) == 3.5
        assert evaluate(parse_observable("mono:(0,1)=1"), v) == 6.0
        assert parse_observable("normp:2").power == 2
        with pytest.raises(ValueError, match="unknown"):
            parse_observable("spline:3")


class TestEvaluateWindows:
    """The batched evaluator against evaluate(window_vector(...)), one window at a time."""

    ENDS = [0, 1, 3, 6, 11]  # short windows, a full one, and one past the depth

    @pytest.fixture(scope="class")
    def model6(self, chain):
        return canonical_shift(2.0, depth=6, chain=chain)

    @pytest.fixture(scope="class")
    def symbols(self):
        # every symbol of the alphabet, so most amplitudes are non-zero
        return np.random.default_rng(4).integers(1, 41, size=(5, 12))

    def _reference(self, obs, model, symbols):
        return np.array(
            [
                [evaluate(obs, window_vector(model, SymbolWindow(-e, 0, row[: e + 1]))) for e in self.ENDS]
                for row in symbols
            ]
        )

    @pytest.mark.parametrize(
        "text",
        [
            "mono:()=2.5",
            "mono:(0,1)=1;(2,2)=-0.5",
            "mono:(0,3,3)=1.5;(5,)=2;()=-1",  # index 5 reads past the short windows
            "mono:(1,8)=1;(9,)=3;(4,)=0.25",  # indices 8 and 9 past the depth
            # coefficients where W_m is a power of two, so that the kernel form
            # c_m / W_m * a and the coordinate form c_m * (a / W_m) round alike
            "lin:0=1,1=0.5,2=-0.25,3=0,4=2",
            "normp:2",
            "normp:3",
        ],
    )
    @pytest.mark.parametrize("centered", [False, True])
    def test_bits_match_one_window_at_a_time(self, model6, weights40, symbols, text, centered):
        obs = parse_observable(text)
        if centered and obs.kind != "norm_power":
            obs = with_exact_mean_subtracted(obs, model6, weights40)
        got = evaluate_windows(obs, model6, model6.amplitudes(symbols), self.ENDS)
        ref = self._reference(obs, model6, symbols)
        assert got.shape == (5, len(self.ENDS))
        assert got.view(np.uint64).tolist() == ref.view(np.uint64).tolist()

    def test_norm_power_bits_for_other_exponent(self, chain, symbols):
        model = canonical_shift(2.0, p_exp=1.5, depth=6, chain=chain)
        obs = norm_power(2)
        got = evaluate_windows(obs, model, model.amplitudes(symbols), self.ENDS)
        ref = self._reference(obs, model, symbols)
        assert got.view(np.uint64).tolist() == ref.view(np.uint64).tolist()

    def test_general_linear_coefficients_agree_to_rounding(self, model6, symbols):
        obs = linear_functional([1.0, 0.0, 0.0, 0.7, 0.0, -1.3])
        got = evaluate_windows(obs, model6, model6.amplitudes(symbols), self.ENDS)
        np.testing.assert_allclose(got, self._reference(obs, model6, symbols), rtol=1e-12, atol=1e-15)

    def test_symbols_beyond_seed_family_rejected(self, model6):
        bad = np.array([[1, 2, model6.n_seeds + 1]])
        with pytest.raises(ValueError, match="beyond the seed family"):
            model6.amplitudes(bad)
        with pytest.raises(ValueError, match="beyond the seed family"):
            window_vector(model6, SymbolWindow(-2, 0, bad[0]))


class TestExactMean:
    def test_linear_mean(self, model2, weights40, amp_moments):
        mean, _ = amp_moments
        obs = linear_functional([1.0, 1.0])
        assert exact_mean(obs, model2, weights40) == pytest.approx(
            mean * (1.0 + 1.0 / model2.W[1]), rel=1e-12
        )

    def test_centered_observable_has_zero_mean(self, model2, weights40):
        obs = with_exact_mean_subtracted(
            linear_functional(np.ones(257)), model2, weights40
        )
        assert abs(exact_mean(obs, model2, weights40)) < 1e-15

    def test_square_monomial_mean_is_second_moment(self, model2, weights40):
        a = model2.seed_values[: weights40.length]
        m2 = float(np.dot(weights40.p, a**2))
        obs = monomial_sum([(1.0, (3, 3))])
        assert exact_mean(obs, model2, weights40) == pytest.approx(
            m2 / model2.W[3] ** 2, rel=1e-12
        )

    def test_cross_moment_factorizes(self, model2, weights40, amp_moments):
        mean, _ = amp_moments
        obs = monomial_sum([(1.0, (0, 2))])
        assert exact_mean(obs, model2, weights40) == pytest.approx(
            mean * mean / model2.W[2], rel=1e-12
        )

    def test_monomial_past_the_depth_matches_sampled_windows(self, chain, weights40):
        # coordinates past the truncation read as 0 in the mean as in evaluation
        model = canonical_shift(2.0, depth=2, chain=chain)
        syms = sample_symbol_matrix(weights40, 20_000, 3, SamplerState(12))
        amp = model.amplitudes(syms)
        past = monomial_sum([(2.0, (1, 3)), (5.0, (4,)), (0.5, ())])
        vals = evaluate_windows(past, model, amp, [2])[:, 0]
        assert exact_mean(past, model, weights40) == vals.mean() == 0.5
        mixed = monomial_sum([(1.0, (0, 0)), (3.0, (2, 5))])
        vals = evaluate_windows(mixed, model, amp, [2])[:, 0]
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(exact_mean(mixed, model, weights40) - vals.mean()) <= 3.0 * se

    def test_norm_power_mean_rejected(self, model2, weights40):
        with pytest.raises(ValueError, match="norm powers"):
            exact_mean(norm_power(2), model2, weights40)

