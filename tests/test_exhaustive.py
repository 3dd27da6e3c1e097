"""Exact formulas against a world small enough to enumerate.

Four symbols, depth 3 and a 7-symbol window: each of the 4^7 configurations
is weighted by the product of its symbol probabilities, so every expectation
below is a finite sum with no sampling in it.
"""

import itertools

import numpy as np
import pytest

from shiftmix import mixing
from shiftmix.observables import (
    exact_mean,
    linear_functional,
    parse_observable,
    with_exact_mean_subtracted,
)
from shiftmix.sampling import SamplerState
from shiftmix.shift import canonical_shift
from shiftmix.weights import SymbolWeights

DEPTH, WIDTH = 3, 7
COEFS = np.array([1.0, 0.5, -2.0, 0.25])


@pytest.fixture(scope="module")
def world(chain):
    w = SymbolWeights(p=np.array([0.7, 0.2, 0.08, 0.02]), d_max=1)
    model = canonical_shift(2.0, depth=DEPTH, chain=chain)
    syms = np.array(list(itertools.product(range(1, 5), repeat=WIDTH)))
    prob = np.prod(w.p[syms - 1], axis=1)
    amp = model.seed_values[syms - 1]  # symbol n reads seed n
    return w, model, prob, amp


def coords(model, amp, end):
    """Coordinates 0..depth of the window whose index 0 sits at column ``end``."""
    return amp[:, end - np.arange(DEPTH + 1)] / model.W[: DEPTH + 1]


def test_decay_curve_matches_enumeration(world):
    w, model, prob, amp = world
    obs = linear_functional(COEFS)
    exact = mixing.exact_decay_curve(model, w, obs, obs, np.arange(DEPTH + 1)).exact
    f = [coords(model, amp, WIDTH - 1 - lag) @ COEFS for lag in range(DEPTH + 1)]
    f = [v - prob @ v for v in f]
    brute = [prob @ (v * f[0]) for v in f]
    assert exact == pytest.approx(brute, rel=1e-12)


def test_linear_mean_matches_enumeration(world):
    w, model, prob, amp = world
    brute = prob @ (coords(model, amp, WIDTH - 1) @ COEFS)
    assert exact_mean(linear_functional(COEFS), model, w) == pytest.approx(brute, rel=1e-12)


def test_monomial_mean_matches_enumeration(world):
    w, model, prob, amp = world
    y = coords(model, amp, WIDTH - 1)
    brute = prob @ (y[:, 0] * y[:, 1] + 0.5 * y[:, 2] ** 2 + 2.0 * y[:, 0] ** 2 * y[:, 3])
    obs = parse_observable("mono:(0,1)=1;(2,2)=0.5;(0,0,3)=2")
    assert exact_mean(obs, model, w) == pytest.approx(brute, rel=1e-12)


def test_clt_sigma2_series_matches_enumeration(world):
    # covariances vanish past lag DEPTH, so Var(S_n) - Var(S_{n-1}) at
    # n = DEPTH + 1 is c_0 + 2 (c_1 + ... + c_DEPTH), the series clt reports
    w, model, prob, amp = world
    obs = with_exact_mean_subtracted(linear_functional(COEFS), model, w)
    rep = mixing.clt_experiment(model, w, obs, DEPTH + 1, 100, SamplerState(1))
    f = [coords(model, amp, WIDTH - 1 - p) @ COEFS for p in range(DEPTH + 1)]

    def var(s):
        return prob @ (s - prob @ s) ** 2

    brute = var(sum(f)) - var(sum(f[:DEPTH]))
    assert rep.sigma2_series == pytest.approx(brute, rel=1e-12)
