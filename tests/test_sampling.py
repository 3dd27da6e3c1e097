import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency

import shiftmix as sm
from reference import coords, evaluate
from shiftmix.sampling import (
    SamplerState,
    SymbolWindow,
    _symbols,
    _thresholds,
    conjugacy_residual,
    sample_amplitudes,
    sample_replicas,
    sample_symbol_matrix,
    sample_window,
    support_probe,
    window_vector,
)
from shiftmix.shift import LpVector, apply_section


class TestSampler:
    def test_same_state_same_window(self, weights40):
        a = sample_window(weights40, -20, 20, SamplerState(42, 3))
        b = sample_window(weights40, -20, 20, SamplerState(42, 3))
        assert np.array_equal(a.symbols, b.symbols)

    def test_single_index_window(self, weights40):
        win = sample_window(weights40, 5, 5, SamplerState(1))
        assert win.lo == win.hi == 5
        assert len(win.symbols) == 1

    def test_leading_symbol_frequency(self, weights40):
        n = 1_000_000
        mat = sample_symbol_matrix(weights40, 1000, 1000, SamplerState(9))
        freq = float(np.mean(mat == 1))
        p1 = weights40.p[0]
        assert abs(freq - p1) <= 3.0 * math.sqrt(p1 * (1 - p1) / n)

    def test_two_streams_pass_independence(self, weights40):
        a = sample_window(weights40, 0, 49_999, SamplerState(5, 0)).symbols
        b = sample_window(weights40, 0, 49_999, SamplerState(5, 1)).symbols
        # bin to {leading, other} so expected counts stay healthy
        table = np.zeros((2, 2))
        for i in (0, 1):
            for j in (0, 1):
                table[i, j] = np.sum(((a == 1) == (i == 0)) & ((b == 1) == (j == 0)))
        _, pval, _, _ = chi2_contingency(table)
        assert pval > 0.01

    def test_chunking_does_not_change_draws(self, weights40):
        # rows 1024..2047 are the second chunk, drawn from substream 1 alone
        state = SamplerState(3)
        a = sample_symbol_matrix(weights40, 3000, 64, state)
        u = state.substream(1).rng().random((1024, 64))
        assert np.array_equal(a[1024:2048], _symbols(_thresholds(weights40), u))

    @pytest.mark.parametrize("rows", [1024, 1025, 3000])  # chunk edge, partial last chunk
    @pytest.mark.parametrize("cols", [1, 513])
    def test_amplitudes_are_the_gathered_symbol_matrix(self, model2, weights40, rows, cols):
        state = SamplerState(6, 1)
        got = sample_amplitudes(model2, weights40, rows, cols, state)
        want = model2.amplitudes(sample_symbol_matrix(weights40, rows, cols, state))
        assert got.shape == want.shape and 0 < np.count_nonzero(want) < want.size / 10
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("start, stop", [(0, 5), (70, 73)])
    def test_replica_rows_are_one_row_matrices(self, weights40, start, stop):
        # replica r reads substream r alone, wherever its block starts
        state = SamplerState(8, 2)
        rows = sample_replicas(weights40, 33, state, start, stop)
        assert rows.shape == (stop - start, 33) and rows.dtype == np.int64
        for i, r in enumerate(range(start, stop)):
            assert np.array_equal(rows[i], sample_symbol_matrix(weights40, 1, 33, state.substream(r))[0])

    def test_zero_seed_fast_path_matches_full_search(self, weights40):
        thr = _thresholds(weights40)
        edge = [thr[0], np.nextafter(thr[0], 0.0), np.nextafter(thr[0], 1.0), 0.0]
        ties = list(thr[1:6]) + [np.nextafter(t, 0.0) for t in thr[1:6]]
        top = [1.0 - 2.0**-53, np.nextafter(thr[-1], 1.0), thr[-1]]
        u = np.array(edge + ties + top)
        full = np.searchsorted(thr, u, side="right") + 1
        assert _symbols(thr, u).tolist() == full.tolist()
        assert _symbols(thr, u[None, :]).tolist() == [full.tolist()]
        assert full[:4].tolist() == [2, 1, 2, 1]

    def test_coordinate_independence(self, model2, weights40):
        r = 20_000
        mat = sample_symbol_matrix(weights40, r, 2, SamplerState(17))
        x = model2.symbol_alpha[mat[:, 0]]
        y = model2.symbol_alpha[mat[:, 1]]
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(r)


class TestWindowRealization:
    def test_single_seed_window_gives_base_vector(self, model2):
        syms = np.ones(9, dtype=np.int64)
        syms[-1] = 2  # index 0 carries seed 2 (amplitude 1)
        v = window_vector(model2, SymbolWindow(-8, 0, syms))
        assert coords(v)[0] == 1.0
        assert np.all(v.scaled[1:] == 0.0)

    def test_depth_three_coordinate(self, model2):
        syms = np.ones(9, dtype=np.int64)
        syms[-4] = 2  # window index -3
        v = window_vector(model2, SymbolWindow(-8, 0, syms))
        assert coords(v)[3] == 1.0 / 9.0

    def test_window_must_cover_zero(self, model2):
        with pytest.raises(ValueError, match="cover"):
            window_vector(model2, SymbolWindow(1, 4, np.ones(4, dtype=np.int64)))

    def test_norm_bounded_by_admissibility_sum(self, model2, weights40, chain):
        # ell-1 envelope with the inner growth scale over the whole window
        state = SamplerState(23)
        for r in range(100):
            win = sample_window(weights40, -200, 10, state.substream(r))
            v = window_vector(model2, win)
            ks = np.arange(win.lo, win.hi + 1)
            bound = sum(
                chain.inner_at(int(s)) * (1.0 + abs(int(k))) ** -model2.alpha
                for k, s in zip(ks, win.symbols)
            )
            assert v.norm() <= bound


class TestConjugacy:
    def test_aligned_windows_commute_exactly(self, model2, weights40):
        state = SamplerState(7)
        residuals = [
            conjugacy_residual(model2, sample_window(weights40, -64, 2, state.substream(r)))
            for r in range(1000)
        ]
        assert max(residuals) == 0.0

    def test_misaligned_depth_leaves_a_residual(self, chain, weights40):
        shallow = sm.canonical_shift(2.0, depth=16, chain=chain)
        state = SamplerState(13)
        saw_positive = False
        for r in range(400):
            win = sample_window(weights40, -24, 2, state.substream(r))
            saw_positive = saw_positive or conjugacy_residual(shallow, win) > 0
        assert saw_positive

    def test_window_not_reaching_one_rejected(self, model2, weights40):
        win = sample_window(weights40, -8, 0, SamplerState(1))
        with pytest.raises(ValueError, match="cover"):
            conjugacy_residual(model2, win)


class TestStationarity:
    def test_polynomial_moments_invariant_under_step(self, model2, weights40):
        # the operator image of a sampled vector must reproduce every small
        # polynomial moment of the vector itself
        from shiftmix.observables import monomial_sum
        from shiftmix.shift import apply_shift

        stats = [
            monomial_sum([(1.0, (0,))]),
            monomial_sum([(1.0, (0, 0))]),
            monomial_sum([(1.0, (0, 1))]),
            monomial_sum([(1.0, (0, 0, 0))]),
        ]
        r = 4000
        mat = sample_symbol_matrix(weights40, r, 66, SamplerState(31))
        for obs in stats:
            before = np.empty(r)
            after = np.empty(r)
            for i in range(r):
                v = window_vector(model2, SymbolWindow(-65, 0, mat[i]))
                before[i] = evaluate(obs, v)
                after[i] = evaluate(obs, apply_shift(model2, v, 1))
            diff = before - after
            se = diff.std(ddof=1) / math.sqrt(r)
            if se == 0.0:
                assert abs(diff.mean()) == 0.0
            else:
                assert abs(diff.mean()) <= 4.0 * se


class TestSupportProbe:
    def test_zero_target_positive_both_ways(self, model2, weights40):
        rep = support_probe(
            model2, weights40, LpVector(scaled=np.zeros(1), model=model2),
            delta=0.5, samples=400, state=SamplerState(3),
        )
        assert rep.empirical > 0
        assert rep.analytic_lower_bound > 0
        assert rep.empirical >= rep.analytic_lower_bound * 0.5

    def test_huge_ball_has_full_measure(self, model2, weights40):
        rep = support_probe(
            model2, weights40, LpVector(scaled=np.zeros(1), model=model2),
            delta=100.0, samples=300, state=SamplerState(4),
        )
        assert rep.empirical == 1.0

    def test_analytic_bound_matches_product_form(self, model2, weights40, chain):
        from shiftmix.weights import build_block_schedule

        target = apply_section(model2, 2, 1)
        rep = support_probe(
            model2, weights40, target, delta=0.25, samples=50, state=SamplerState(5)
        )
        # independent recomputation: prescribed symbols on [-half, half] and
        # the truncated beta-square tail; 2^-3 is the first dyadic radius
        # below delta
        level = 3
        sched = build_block_schedule(model2.alpha, weights40, chain, levels=16)
        half = int(sched.bounds[level - 1])
        log_bound = 2 * half * float(weights40.log_p[0]) + float(weights40.log_p[1])
        log_bound += sched.log_beta_sq_tail(level, weights40)
        assert math.log(rep.analytic_lower_bound) == pytest.approx(log_bound, rel=1e-12)

    @pytest.mark.parametrize("p_exp", [2.0, 1.5])
    def test_hits_match_one_window_at_a_time(self, chain, weights40, p_exp):
        model = sm.canonical_shift(2.0, p_exp, depth=20, chain=chain)
        target = apply_section(model, 2, 1)
        state = SamplerState(6)
        # 150 samples: two full blocks and a partial one
        rep = support_probe(model, weights40, target, 0.05, 150, state)
        hits = 0
        for r in range(150):
            syms = sample_symbol_matrix(weights40, 1, 21, state.substream(r))[0]
            v = window_vector(model, SymbolWindow(-20, 0, syms))
            b = np.zeros(21)
            b[: len(target.scaled)] = target.scaled
            hits += LpVector(scaled=v.scaled - b, model=model).norm() < 0.05
        assert 0 < hits < 150
        assert rep.hits == hits

    def test_off_grid_target_rejected(self, model2, weights40):
        bad = LpVector(scaled=np.array([0.3]), model=model2)  # 0.3 is not on the dyadic grid
        with pytest.raises(ValueError, match="seed grid"):
            support_probe(model2, weights40, bad, 0.25, 10, SamplerState(1))
