"""The reference meaning of an observable: one realized vector at a time.

``observables.evaluate_windows`` evaluates whole matrices of window
amplitudes at once; the tests hold it to :func:`evaluate` on the vector that
``sampling.window_vector`` realizes from each window, and its linear sums to
:func:`linear_sum`, one term at a time.
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


def linear_sum(obs: Observable, model: ShiftModel, amp: np.ndarray, ends) -> np.ndarray:
    """Linear values on the windows of amplitude rows ``amp`` whose index 0
    sits at columns ``ends``: ``amp[r, c] * (c_m / W_m)`` with ``m = end - c``,
    added in increasing column order from 0.0, zero terms included."""
    out = np.empty((amp.shape[0], len(ends)))
    for r in range(amp.shape[0]):
        for j, end in enumerate(ends):
            n = min(end + 1, model.depth + 1, len(obs.coefs))
            total = 0.0
            for c in range(end - n + 1, end + 1):
                m = end - c
                total += float(amp[r, c]) * (float(obs.coefs[m]) / float(model.W[m]))
            out[r, j] = total - obs.mean_shift
    return out
