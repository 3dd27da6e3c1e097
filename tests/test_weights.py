import math

import numpy as np
import pytest

import reference
from shiftmix import weights as wt

# the outer scales the tests below build chains from, rejected ones included
OUTERS = {
    **wt.GROWTH_FUNCTIONS,
    "constant": lambda k: 2.0,
    "dips-below-one": lambda k: 1.0 + 0.001 * k if k > 3 else 0.5,
    "nan-at-40": lambda k: math.nan if k == 40 else 1.0 + k,
    "cubic": lambda k: 1.0 + k**3,
    "late-jump": lambda k: 1.5 if k < 10 else 1e12 * k,
}


class TestGrowthChain:
    def test_inner_is_root_of_middle_at_half(self, chain):
        assert chain.inner_at(2) == pytest.approx(math.sqrt(chain.middle[0]), rel=0, abs=0)

    def test_pairing_holds_exhaustively_for_log(self):
        c = wt.build_growth_chain("log", 64)
        assert c.pairing_margin() <= 1e-12

    def test_pairing_holds_exhaustively_for_affine(self):
        # failure count 0 over every pair with k + k' <= 32
        c = wt.build_growth_chain("linear", 32)
        log_in = np.log(c.inner)
        log_mid = np.log(c.middle)
        failures = 0
        for k in range(1, 32):
            for kp in range(1, 32 - k + 1):
                lhs = (k + kp) * log_in[k + kp - 1]
                if lhs > k * log_mid[k - 1] + kp * log_mid[kp - 1] + 1e-12:
                    failures += 1
        assert failures == 0

    def test_constant_scale_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            wt.build_growth_chain(lambda k: 2.0, 64)

    def test_scale_at_most_one_rejected(self):
        with pytest.raises(ValueError, match="exceed 1"):
            wt.build_growth_chain(lambda k: 1.0 + 0.001 * k if k > 3 else 0.5, 64)

    @pytest.mark.parametrize(
        "outer",
        [lambda k: math.nan, lambda k: math.inf, lambda k: math.nan if k == 40 else 1.0 + k],
        ids=["nan", "inf", "nan-at-40"],
    )
    def test_non_finite_scale_rejected(self, outer):
        # NaN fails no comparison-based check, and -inf counted as a pairing pass
        with pytest.raises(ValueError, match="finite"):
            wt.build_growth_chain(outer, 64)

    def test_middle_never_more_than_doubles(self, chain):
        assert np.all(chain.middle[1:] <= 2.0 * chain.middle[:-1] + 1e-15)

    def test_squared_middle_over_outer_decays_monotonically(self, chain):
        outer = np.array([wt.GROWTH_FUNCTIONS["log"](k) for k in range(1, chain.k_max + 1)])
        ratio = chain.middle**2 / outer
        assert np.all(np.diff(ratio) <= 1e-15)
        assert ratio[-1] < ratio[0]

    def test_out_of_range_evaluation_rejected(self, chain):
        with pytest.raises(ValueError, match="outside"):
            chain.inner_at(chain.k_max + 1)


class TestSymbolWeights:
    def test_ratios_at_most_one_quarter(self, weights40):
        r = weights40.p[1:] / weights40.p[:-1]
        assert np.all(r <= 0.25)

    def test_strictly_decreasing_and_normalized(self, weights40):
        assert np.all(np.diff(weights40.p) < 0)
        assert abs(math.fsum(weights40.p.tolist()) - 1.0) <= 1e-15

    def test_suffix_recurrence_exact(self, weights40):
        w = weights40
        for l in range(1, w.length):
            assert w.tail[l - 1] == w.p[l - 1] + w.tail[l]

    def test_tail_dominated_by_half(self, weights40):
        # direct backward summation oracle for sum_{m>l} p_m
        w = weights40
        for l in range(1, w.length):
            tail = math.fsum(w.p[l:].tolist())
            assert tail <= 0.5 * w.p[l - 1]

    def test_tail_ratio_decreasing(self, weights40):
        r = weights40.tail_ratios()
        assert np.all(np.diff(r) < 0)

    @pytest.mark.parametrize("p", [[math.nan, math.nan], [0.6, math.nan]], ids=["nan", "nan-last"])
    def test_nan_probabilities_rejected(self, p):
        with pytest.raises(ValueError, match="positive"):
            wt.SymbolWeights(p=np.array(p), d_max=0)

    def test_length_below_amplitude_range_rejected(self, chain):
        with pytest.raises(ValueError, match="2\\*d_max"):
            wt.build_symbol_weights(chain, d_max=3, length=1)

    def test_underflow_advises_smaller_length(self):
        big = wt.build_growth_chain("log", 128)
        with pytest.raises(ValueError, match="smaller length"):
            wt.build_symbol_weights(big, d_max=3, length=100)


class TestLogSumExp:
    """The local logsumexp gives scipy's bits, so the weights do not move."""

    def test_bits_match_scipy(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(7)
        vectors = [np.array([x]) for x in (0.0, -3.5, 700.0)]
        vectors += [np.full(5, -2.25), np.array([1.0, 1.0, -700.0]), np.array([-700.0, 0.0])]
        for _ in range(200):
            u = rng.uniform(-700.0, 0.0, int(rng.integers(1, 80))) * rng.uniform()
            vectors.append(u)
            tied = u.copy()
            tied[rng.integers(0, len(u), 3)] = u.max()
            vectors.append(np.round(tied))
        for u in vectors:
            assert wt._logsumexp(u) == logsumexp(u), u

    def test_weights_match_with_scipy_patched_in(self, monkeypatch):
        from scipy.special import logsumexp

        chains = {name: wt.build_growth_chain(name) for name in wt.GROWTH_FUNCTIONS}
        built = {}
        for name, c in chains.items():
            for d in (1, 2, 3):
                for L in range(2 * d, c.k_max + 1):
                    try:
                        built[name, d, L] = wt.build_symbol_weights(c, d, L).p
                    except ValueError:  # underflow: longer vectors underflow too
                        break
        assert min(L for _, _, L in built) == 2 and max(L for _, _, L in built) > 40
        monkeypatch.setattr(wt, "_logsumexp", logsumexp)
        for (name, d, L), p in built.items():
            assert np.array_equal(wt.build_symbol_weights(chains[name], d, L).p, p), (name, d, L)


@pytest.fixture(scope="module")
def schedule40(weights40, chain):
    return wt.build_block_schedule(2.0, weights40, chain, levels=40)


class TestConditionReport:
    def test_constructed_weights_have_small_constants(self, weights40, chain, schedule40):
        rep = wt.check_weight_conditions(weights40, chain, k_max=20, schedule=schedule40)
        assert rep.tail_domination.constant <= 0.5
        assert rep.sqrt_moment.constant <= 4.0
        assert rep.moment.constant <= 4.0

    def test_geometric_weights_fail_sqrt_moment(self):
        # inner scale ~ k against geometric decay: the constant grows with k
        L, K = 30, 40
        p = 2.0 ** -np.arange(1, L + 1)
        w = wt.SymbolWeights(p=p / math.fsum(p.tolist()), d_max=1)
        fake = wt.GrowthChain(
            k_max=K,
            middle=1.0 + np.arange(1, K + 1, dtype=float),
            inner=1.0 + np.arange(1, K + 1, dtype=float),
        )
        sched = wt.build_block_schedule(2.0, w, fake, levels=L)
        rep = wt.check_weight_conditions(w, fake, k_max=30, schedule=sched)
        per = rep.sqrt_moment.per_k
        assert per.max() > 10.0 * per[0]

    def test_empty_ranges_rejected(self, weights40, chain, schedule40):
        with pytest.raises(ValueError, match="k_max >= 1"):
            wt.check_weight_conditions(weights40, chain, k_max=0, schedule=schedule40)
        no_caps = wt.SymbolWeights(p=weights40.p, d_max=0)
        with pytest.raises(ValueError, match="d_max >= 1"):
            wt.check_weight_conditions(no_caps, chain, k_max=4, schedule=schedule40)
        one_level = wt.build_block_schedule(2.0, weights40, chain, levels=1)
        with pytest.raises(ValueError, match="two levels"):
            wt.check_weight_conditions(weights40, chain, k_max=4, schedule=one_level)

    def test_amplitude_caps_hold(self, weights40, chain, schedule40):
        rep = wt.check_weight_conditions(weights40, chain, k_max=4, schedule=schedule40)
        assert rep.amplitude_caps.constant <= 1.0

    def test_block_sums_converge_with_schedule(self, weights40, chain, schedule40):
        rep = wt.check_weight_conditions(weights40, chain, k_max=4, schedule=schedule40)
        for d in (1, 2, 3):
            assert rep.block_sum[d]["converged"]


class TestBlockSchedule:
    def test_minimal_boundary_satisfies_integral_oracle(self, weights40, chain):
        # tail sum_{m>N} inner(l)/m^2 <= inner(l)/N must sit below 2^-l-1
        sched = wt.build_block_schedule(2.0, weights40, chain, levels=10)
        for l in range(1, 11):
            n = int(sched.bounds[l - 1])
            assert chain.inner_at(l) / n <= 2.0 ** -(l + 1) * (1 + 1e-12)

    def test_gaps_strictly_convex(self, weights40, chain):
        sched = wt.build_block_schedule(2.0, weights40, chain, levels=20)
        gaps = np.diff(sched.bounds)
        assert np.all(np.diff(gaps) > 0)

    def test_beta_square_product_above_half(self, schedule40, weights40):
        assert math.exp(schedule40.log_beta_sq_tail(1, weights40)) > 0.5

    def test_harmonic_envelope_rejected(self, weights40, chain):
        with pytest.raises(ValueError, match="not summable"):
            wt.build_block_schedule(1.0, weights40, chain, levels=5)

    @pytest.mark.parametrize("alpha", [1.0 + 1e-9, 1.01])
    def test_boundaries_past_int64_rejected(self, weights40, chain, alpha):
        # the boundary power overflows the float range before the int64 one
        with pytest.raises(ValueError, match=f"level \\d+ passes the int64 range at alpha = {alpha!r}"):
            wt.build_block_schedule(alpha, weights40, chain, levels=16)

    def test_zero_levels_rejected(self, weights40, chain):
        with pytest.raises(ValueError, match="at least one level"):
            wt.build_block_schedule(2.0, weights40, chain, levels=0)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _outcome(outer, k_max):
    """The built chain's pairing margin, or the message it was rejected with."""
    try:
        return int(_bits(wt.build_growth_chain(outer, k_max).pairing_margin()))
    except ValueError as exc:
        return str(exc)


class TestArrayChecksMatchLoops:
    """The array expressions of the weight-stack checks give the bits of the
    loops in ``tests/reference.py``."""

    @pytest.mark.parametrize("k_max", [4, 5, 64, 128])
    @pytest.mark.parametrize("name", sorted(OUTERS))
    def test_pairing_margin_matches_pair_loop(self, name, k_max, monkeypatch):
        built = _outcome(OUTERS[name], k_max)
        monkeypatch.setattr(wt.GrowthChain, "pairing_margin", reference.pairing_margin)
        assert _outcome(OUTERS[name], k_max) == built

    @pytest.mark.parametrize("k_max", [1, 2, 4, 5, 64, 128])
    def test_pairing_margin_matches_on_arbitrary_scales(self, k_max):
        # scales no outer would build, most of them violating the inequality
        rng = np.random.default_rng(k_max)
        for _ in range(20):
            middle, inner = rng.uniform(1.0, 50.0, (2, k_max)) ** rng.uniform(0.1, 3.0)
            c = wt.GrowthChain(k_max=k_max, middle=middle, inner=inner)
            assert _bits(c.pairing_margin()) == _bits(reference.pairing_margin(c))

    @pytest.mark.parametrize("k_max", [4, 5, 64, 128])
    @pytest.mark.parametrize("name", sorted(wt.GROWTH_FUNCTIONS))
    def test_moment_fit_matches_per_k_loop(self, name, k_max):
        chain = wt.build_growth_chain(name, 128)
        log_in = np.log(chain.inner)
        for L in (6, 40):
            w = wt.build_symbol_weights(chain, d_max=3, length=L)
            for logs in (w.log_p, 0.5 * w.log_p):
                fit = wt._moment_fit("fit", logs, log_in, L, k_max)
                per_k = reference.moment_fit_per_k(logs, log_in, L, k_max)
                assert np.array_equal(_bits(fit.per_k), _bits(np.exp(per_k)))
                assert _bits(fit.constant) == _bits(math.exp(np.max(per_k)))

    def test_moment_fit_matches_on_a_chain_no_outer_builds(self):
        L, K = 30, 40
        logs = np.log(2.0) * -np.arange(1, L + 1)
        log_in = np.log(1.0 + np.arange(1, K + 1, dtype=float))
        fit = wt._moment_fit("fit", logs, log_in, L, 30)
        assert np.array_equal(_bits(fit.per_k), _bits(np.exp(reference.moment_fit_per_k(logs, log_in, L, 30))))

    @pytest.mark.parametrize("name", sorted(wt.GROWTH_FUNCTIONS))
    def test_amplitude_cap_matches_generator(self, name):
        chain = wt.build_growth_chain(name, 128)
        for d_max, L in ((1, 2), (1, 40), (3, 6), (3, 40)):
            w = wt.build_symbol_weights(chain, d_max=d_max, length=L)
            sched = wt.build_block_schedule(3.0, w, chain, levels=L)
            got = wt.check_weight_conditions(w, chain, k_max=4, schedule=sched).amplitude_caps.constant
            assert _bits(got) == _bits(math.exp(reference.amplitude_cap_log(w, np.log(chain.inner))))
