import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftmix.basis import build_basis
from shiftmix.weights import SymbolWeights


def geometric_weights(length: int) -> SymbolWeights:
    p = 2.0 ** -np.arange(1, length + 1)
    return SymbolWeights(p=p / math.fsum(p.tolist()), d_max=0)


class TestClosedForm:
    def test_geometric_first_function_is_sign_split(self):
        b = build_basis(geometric_weights(40))
        row = b.value_row(1)  # values at u = 1..L
        assert row[0] == pytest.approx(1.0, abs=1e-9)
        assert row[1] == pytest.approx(-1.0, abs=1e-9)
        assert row[16] == row[1]

    def test_constant_has_unit_norm(self, basis40, weights40):
        assert math.fsum((weights40.p * 1.0).tolist()) == pytest.approx(1.0, abs=1e-15)

    def test_triangular_support(self, basis40):
        row = basis40.value_row(5)  # values at u = 1..L
        assert row[3] == 0.0
        assert row[2] == 0.0
        assert row[4] != 0.0

    def test_orthogonal_to_constants(self, basis40, weights40):
        for l in range(1, basis40.l_max + 1):
            inner = float(np.dot(weights40.p, basis40.value_row(l)))
            # scale-free comparison: the two cancelling halves have size l1/2
            scale = basis40.l1_norms()[l - 1] / 2.0
            assert abs(inner) <= 1e-14 * max(scale, 1.0)


class TestGram:
    def test_forty_level_gram_residual(self, basis40):
        assert basis40.l_max == 39
        assert basis40.gram_residual() < 1e-10

    def test_sixty_level_gram_residual(self, chain):
        from shiftmix.weights import build_symbol_weights

        w = build_symbol_weights(chain, d_max=3, length=50)
        assert build_basis(w).gram_residual() < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        ratios=st.lists(
            st.floats(min_value=0.05, max_value=0.6), min_size=3, max_size=20
        )
    )
    def test_gram_residual_for_arbitrary_decreasing_weights(self, ratios):
        p = [1.0]
        for r in ratios:
            p.append(p[-1] * r)
        w = SymbolWeights(p=np.array(p) / math.fsum(p), d_max=0)
        assert build_basis(w).gram_residual() < 1e-10


class TestSmallness:
    def test_weighted_l1_within_four_roots(self, basis40, weights40):
        l1 = basis40.l1_norms()
        assert np.all(l1 <= 4.0 * np.sqrt(weights40.p[: basis40.l_max]))

    def test_diagonal_values_bounded_by_inverse_root(self, basis40, weights40):
        # |e_l(l)| <= C / sqrt(p_l) with a modest constant
        for l in range(1, basis40.l_max + 1):
            assert abs(basis40.value_row(l)[l - 1]) <= 1.01 / math.sqrt(weights40.p[l - 1])


def test_vanished_suffix_truncates_with_warning():
    # a final weight at the representability floor drives the suffix
    # product under; the basis must stop there instead of emitting junk
    p = np.array([0.7, 0.3 - 1e-300, 1e-300])
    p = p / p.sum()
    tail = np.cumsum(p[::-1])[::-1]
    tail[-1] = 0.0  # simulate a fully folded remainder hitting zero
    w = SymbolWeights.__new__(SymbolWeights)
    object.__setattr__(w, "p", p)
    object.__setattr__(w, "log_p", np.log(p))
    object.__setattr__(w, "tail", tail)
    object.__setattr__(w, "length", 3)
    object.__setattr__(w, "d_max", 0)
    with pytest.warns(RuntimeWarning, match="truncated"):
        b = build_basis(w)
    assert b.l_max == 1
