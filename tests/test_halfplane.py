import numpy as np
import pytest

from shiftmix import halfplane as hp


class TestHardyNorm:
    def test_unit_function(self):
        res = hp.h2_norm(lambda t: 1.0, hp.QuadratureConfig(tolerance=1e-8))
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_cauchy_profile_closed_form(self):
        # pi^-1 int (1+t^2)^-3 dt = 3/8
        res = hp.h2_norm(hp.DecayedFunction(decay_power=1))
        assert res.value**2 == pytest.approx(3.0 / 8.0, abs=1e-8)

    def test_identity_translate_preserves_value(self):
        f = hp.DecayedFunction(decay_power=4)
        a = hp.h2_norm(f)
        b = hp.h2_norm(hp.translate(f, 0))
        assert a.value == b.value

    def test_translates_change_the_weighted_norm(self):
        f = hp.DecayedFunction(decay_power=4)
        assert hp.h2_norm(hp.translate(f, 16)).value < hp.h2_norm(f).value

    def test_halved_tolerance_moves_less_than_reported_error(self):
        f = hp.translate(hp.DecayedFunction(decay_power=4), 32)
        loose = hp.h2_norm(f, hp.QuadratureConfig(tolerance=1e-8))
        tight = hp.h2_norm(f, hp.QuadratureConfig(tolerance=5e-9))
        assert abs(loose.value - tight.value) <= max(loose.error, 1e-15)

    def test_unmeetable_tolerance_raises_with_estimate(self):
        with pytest.raises(ArithmeticError, match="estimate"):
            hp.h2_norm(lambda t: 1.0, hp.QuadratureConfig(tolerance=1e-16))


class TestTranslate:
    def test_group_law_pointwise(self):
        f = hp.DecayedFunction(decay_power=3)
        g = hp.translate(hp.translate(f, 1), 2)
        h = hp.translate(f, 3)
        for x in np.linspace(-40, 40, 100):
            assert g(x) == h(x)

    def test_peak_moves_opposite_to_the_step(self):
        f = hp.translate(hp.DecayedFunction(decay_power=4), 7)
        assert f.peak == -7
        xs = np.linspace(-20, 20, 4001)
        assert xs[np.argmax([f(x) for x in xs])] == pytest.approx(-7, abs=0.02)


class TestDecayFit:
    def test_profile_power_four(self):
        fit = hp.translation_decay_fit(4, [8, 16, 32, 64, 128, 256, 512])
        assert 0.95 <= fit.exponent <= 1.05
        assert fit.exponent >= fit.guaranteed
        assert fit.guaranteed == pytest.approx(8.0 / 9.0, rel=1e-15)

    def test_sharper_profiles_never_degrade(self):
        # the measured exponent is 1 for every power (the hump mass sets
        # it); only the certified lower bound improves with p.  Strict
        # monotonicity of the fit fails by ~1e-4 from finite-range
        # corrections, so assert the guarantee ordering plus a tight
        # mutual band for the fits.
        grid = [8, 16, 32, 64, 128]
        fits = [hp.translation_decay_fit(p, grid) for p in (4, 5, 6)]
        exps = [f.exponent for f in fits]
        bounds = [f.guaranteed for f in fits]
        assert bounds[0] < bounds[1] < bounds[2]
        assert max(exps) - min(exps) < 0.01
        for f in fits:
            assert f.exponent >= f.guaranteed

    def test_single_point_grid_rejected(self):
        with pytest.raises(ValueError, match="at least two grid points"):
            hp.translation_decay_fit(4, [1])

    def test_shallow_profile_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            hp.translation_decay_fit(3, [8, 16])


class TestEnvelopeSum:
    def test_ratio_stable_in_length(self):
        ratios = [
            hp.envelope_sum_check(4, np.ones(km), km).ratio for km in (16, 32, 64)
        ]
        assert max(ratios) / min(ratios) <= 1.5

    def test_single_term_is_dominated(self):
        chk = hp.envelope_sum_check(4, [1.0], 1)
        assert chk.lhs <= chk.rhs

    def test_scale_lengths_must_match(self):
        with pytest.raises(ValueError, match="one scale"):
            hp.envelope_sum_check(4, [1.0, 1.0], 3)


class TestNeighborBookkeeping:
    def test_example_at_sixteen(self):
        # partners 13, 14, 15, 17, 18, 19, 20
        assert hp.partner_count(16, 64) == 7

    def test_partner_budget_up_to_sixty_four(self):
        for k in range(1, 65):
            assert hp.partner_count(k, 4 * k) <= 4.0 * k**0.25

    def test_first_index_is_the_lone_exception(self):
        # k = 1 reaches j = 3, past the factor-2 window; everything else fits
        assert hp.partner_count(1, 10) == 2
