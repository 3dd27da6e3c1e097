"""Triangular orthonormal basis of the weighted symbol space.

Function ``l`` vanishes below index l, takes one value at l and another
constant value above it; together with the constant function they form an
orthonormal basis of the L-point space with inner product
``<f, g> = sum_u p_u f(u) g(u)``.  The useful feature is that the weighted
l1 norm of function l behaves like ``sqrt(p_l)`` even though its l2 norm
is one.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from dataclasses import dataclass

from .weights import SymbolWeights

__all__ = ["TriangularBasis", "build_basis"]


@dataclass(frozen=True)
class TriangularBasis:
    """Values of the triangular basis over symbols ``1..L``.

    ``diag[l-1]`` is the value at u = l and ``off[l-1]`` the common value on
    u > l, for l = 1..l_max.  Index 0 is the constant function 1.
    """

    weights: SymbolWeights
    diag: np.ndarray
    off: np.ndarray
    l_max: int

    def value_row(self, l: int) -> np.ndarray:
        """Values over u = 1..L as an array."""
        L = self.weights.length
        if l == 0:
            return np.ones(L)
        row = np.zeros(L)
        row[l - 1] = self.diag[l - 1]
        row[l:] = self.off[l - 1]
        return row

    def gram_residual(self) -> float:
        V = np.vstack([self.value_row(l) for l in range(0, self.l_max + 1)])
        G = (V * self.weights.p) @ V.T
        return float(np.max(np.abs(G - np.eye(len(G)))))

    def l1_norms(self) -> np.ndarray:
        """Weighted l1 norm of each nonconstant basis function."""
        n, w = self.l_max, self.weights
        q_next = np.append(w.tail[1:], 0.0)[:n]  # q_{L+1} = 0: its mass is folded into p_L
        return w.p[:n] * np.abs(self.diag) + q_next * np.abs(self.off)


def build_basis(w: SymbolWeights) -> TriangularBasis:
    """Orthonormalize the nested indicator family over the symbol weights.

    Closed form: with ``q_l`` the suffix sums, function l takes
    ``sqrt(q_{l+1} / (p_l q_l))`` at l and ``-sqrt(p_l / (q_{l+1} q_l))``
    above l.  If a suffix sum underflows to zero the basis is truncated at
    that index with a warning; the remaining functions are still an
    orthonormal family.
    """
    L = w.length
    diag = np.empty(max(L - 1, 0))
    off = np.empty(max(L - 1, 0))
    l_max = L - 1
    for l in range(1, L):
        q_l = float(w.tail[l - 1])
        q_next = float(w.tail[l])
        if q_next <= 0.0 or q_l <= 0.0:
            warnings.warn(
                f"suffix sum vanished at level {l}; basis truncated", RuntimeWarning
            )
            l_max = l - 1
            break
        # products like p_l * q_l sink into subnormals long before the
        # factors do; combine exponents in log space instead
        log_p = float(w.log_p[l - 1])
        log_q, log_q_next = math.log(q_l), math.log(q_next)
        diag[l - 1] = math.exp(0.5 * (log_q_next - log_p - log_q))
        off[l - 1] = -math.exp(0.5 * (log_p - log_q_next - log_q))
    return TriangularBasis(weights=w, diag=diag[:l_max], off=off[:l_max], l_max=l_max)
