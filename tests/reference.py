"""The reference meaning of an observable: one realized vector at a time.

``observables.evaluate_windows`` evaluates whole matrices of window
amplitudes at once; the tests hold it to :func:`evaluate` on the vector that
``sampling.window_vector`` realizes from each window.
"""

import numpy as np

from shiftmix.observables import Observable
from shiftmix.sampling import SymbolWindow, window_vector
from shiftmix.shift import LpVector, ShiftModel


def coords(v: LpVector) -> np.ndarray:
    """Plain coordinates ``y_m = scaled[m] / W_m``."""
    return v.scaled / v.model.W[: len(v.scaled)]


def evaluate(obs: Observable, v: LpVector) -> float:
    """The value of ``obs`` at ``v``; coordinates past the vector read as 0."""
    if obs.kind == "norm_power":
        return v.norm() ** obs.power - obs.mean_shift
    y = coords(v)
    if obs.kind == "linear":
        n = min(len(y), len(obs.coefs))
        return float(np.dot(obs.coefs[:n], y[:n])) - obs.mean_shift
    total = 0.0
    for c, ix in obs.terms:
        prod = c
        for i in ix:
            prod *= y[i] if i < len(y) else 0.0
        total += prod
    return total - obs.mean_shift


def evaluate_window(obs: Observable, model: ShiftModel, symbols: np.ndarray) -> float:
    """The value on the vector realized from a window whose last symbol sits
    at index 0."""
    return evaluate(obs, window_vector(model, SymbolWindow(1 - len(symbols), 0, symbols)))
