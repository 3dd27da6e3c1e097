"""Reference loops: an observable one realized vector at a time, the
weight-stack checks one term at a time, and power sums one n at a time.

``observables.evaluate_windows`` evaluates whole matrices of window
amplitudes at once; the tests hold it to :func:`evaluate` on the vector that
``sampling.window_vector`` realizes from each window, and its linear sums to
:func:`linear_sum`, one term at a time.  The weight-stack checks in
``weights`` are held the same way to :func:`pairing_margin`,
:func:`moment_fit_per_k` and :func:`amplitude_cap_log`, and the power sums of
``mixing.window_tail_constants`` to :func:`window_power_lhs`, one n at a time.
"""

import math

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


def pairing_margin(chain) -> float:
    """``GrowthChain.pairing_margin`` one pair (k, k') at a time."""
    log_in = np.log(chain.inner)
    log_mid = np.log(chain.middle)
    worst = -math.inf
    for k in range(1, chain.k_max):
        for kp in range(1, chain.k_max - k + 1):
            lhs = (k + kp) * log_in[k + kp - 1]
            rhs = k * log_mid[k - 1] + kp * log_mid[kp - 1]
            worst = max(worst, lhs - rhs)
    return worst


def moment_fit_per_k(logs: np.ndarray, log_in: np.ndarray, length: int, k_max: int) -> np.ndarray:
    """The log of ``weights._moment_fit``'s ``per_k``, one k at a time."""
    per_k = np.empty(k_max)
    for k in range(1, k_max + 1):
        term = logs + k * log_in[:length]
        # suffix logsumexp, smallest terms first
        suffix = np.logaddexp.accumulate(term[::-1])[::-1]
        k_pow = k * log_in[k - 1]
        denom = logs + np.maximum(k_pow, k * log_in[:length])
        per_k[k - 1] = np.max(suffix - denom)
    return per_k


def amplitude_cap_log(w, log_in: np.ndarray) -> float:
    """The log of the amplitude-cap constant of ``weights.check_weight_conditions``."""
    return max(
        2.0 * d * log_in[l - 1] + 0.5 * w.log_p[l - 1]
        for d in range(1, w.d_max + 1)
        for l in range(2 * d, w.length + 1)
    )


def window_power_lhs(alpha: float, n: int) -> float:
    """sum_{j >= 0} (sum_{p < n} (1 + j + p)^-alpha)^2 from a prefix sum built
    for this n alone, its windows gathered through index arrays."""
    j_max = max(200_000, 400 * n)
    i = np.arange(1, j_max + n + 2, dtype=float)
    c = np.concatenate([[0.0], np.cumsum(i**-alpha)])
    j = np.arange(0, j_max + 1)
    inner = c[j + n] - c[j]
    total = float(np.sum(inner**2))
    # integral tail of the dropped indices
    total += n**2 * (j_max + 1.5) ** (1.0 - 2.0 * alpha) / (2.0 * alpha - 1.0)
    return total
