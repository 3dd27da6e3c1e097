"""Coefficients of observables in the tensor basis, and exact covariance.

A tensor basis element is a product of triangular basis functions attached
to distinct window positions.  Tables are built for linear functionals
only, where the coefficients factorize as ``a[l, j] = A_l * c_{-j} / W_{-j}``
with ``A_l = <basis_l, seed amplitude>`` in the weighted symbol space,
supported on nonpositive positions only (forward orbits of the seed family
vanish).  Covariance at a lag is the coefficient convolution of two such
tables, a finite sum that is exact for the truncated functionals.  Single
coefficients of any observable are estimated by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import TriangularBasis
from .observables import Observable, evaluate_windows
from .sampling import SamplerState, sample_symbol_matrix
from .shift import ShiftModel
from .weights import SymbolWeights

__all__ = [
    "TensorIndex",
    "FourierTable",
    "linear_fourier_table",
    "mc_fourier_coefficient",
    "exact_covariance",
    "coefficient_envelope_constant",
]


@dataclass(frozen=True)
class TensorIndex:
    """Levels and strictly increasing window positions, equal arity."""

    levels: tuple[int, ...]
    positions: tuple[int, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.positions) or len(self.levels) == 0:
            raise ValueError("levels and positions must have equal positive length")
        if any(l < 1 for l in self.levels):
            raise ValueError("levels start at 1")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("positions must be strictly increasing")


@dataclass(frozen=True)
class FourierTable:
    """Factorized coefficient table of one linear functional.

    ``level_factors[l-1]`` and ``depth_factors[m] = c_m / W_m`` give the
    coefficient ``a[l, -m]`` as their product.
    """

    level_factors: np.ndarray
    depth_factors: np.ndarray
    weight_probs: np.ndarray


def linear_fourier_table(
    model: ShiftModel,
    basis: TriangularBasis,
    coefs: np.ndarray,
) -> FourierTable:
    """Coefficient table of the functional ``x -> sum_m coefs[m] x_m``.

    The level factor is ``A_l = p_l diag_l a_l + off_l * sum_{m>l} p_m a_m``
    over the seed amplitudes, computed with suffix sums; the depth factor at
    position ``j <= 0`` is ``coefs[-j] / W_{-j}``.  Positive positions carry
    zero coefficients.
    """
    w = basis.weights
    coefs = np.asarray(coefs, dtype=float)
    if len(coefs) > model.depth + 1:
        raise ValueError("coefficient vector longer than the model truncation")
    if model.n_seeds < w.length:
        raise ValueError("seed family shorter than the symbol alphabet")

    amps = model.seed_values[: w.length]
    weighted = w.p * amps
    suffix = np.concatenate([np.cumsum(weighted[::-1])[::-1], [0.0]])
    n = basis.l_max
    A = w.p[:n] * basis.diag * amps[:n] + basis.off * suffix[1 : n + 1]

    depth_factors = coefs / model.W[: len(coefs)]
    return FourierTable(
        level_factors=A,
        depth_factors=depth_factors,
        weight_probs=w.p.copy(),
    )


def mc_fourier_coefficient(
    observable: Observable,
    model: ShiftModel,
    w: SymbolWeights,
    basis: TriangularBasis,
    index: TensorIndex,
    samples: int,
    state: SamplerState,
    depth: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of one tensor coefficient, with standard error.

    The observable is evaluated on realized window vectors; the basis
    element is evaluated on the corresponding symbols.  The window must
    contain every index position, hence positions above the realization
    depth or below -depth raise.
    """
    if max(index.positions) > 0 or min(index.positions) < -depth:
        raise ValueError("index positions outside the sampled window")
    if max(index.levels) > basis.l_max:
        raise ValueError("index level beyond the basis truncation")

    mat = sample_symbol_matrix(w, samples, depth + 1, state)
    basis_prod = np.ones(samples)
    for l, j in zip(index.levels, index.positions):
        row = np.concatenate([[0.0], basis.value_row(l)])  # symbol-indexed
        basis_prod *= row[mat[:, depth + j]]

    f_vals = evaluate_windows(observable, model, model.amplitudes(mat), [depth])[:, 0]
    vals = basis_prod * f_vals
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(samples))
    return est, se


def exact_covariance(table_f: FourierTable, table_g: FourierTable, lag: int) -> float:
    """Coefficient convolution ``sum a[l, j] b[l, j - lag]`` at a lag ``>= 0``.

    For two factorized tables this reduces to
    ``(sum_l A_l B_l) * sum_m cf_m cg_{m+lag} / (W_m W_{m+lag})``, which is
    exact for the truncated functionals.
    """
    if lag < 0:
        raise ValueError(f"lag must be nonnegative, got {lag}")
    n = min(len(table_f.level_factors), len(table_g.level_factors))
    amp = float(np.dot(table_f.level_factors[:n], table_g.level_factors[:n]))
    gf, gg = table_f.depth_factors, table_g.depth_factors
    k = min(len(gf), len(gg) - lag)
    conv = float(np.dot(gf[:k], gg[lag : lag + k])) if k > 0 else 0.0
    return amp * conv


def coefficient_envelope_constant(table: FourierTable, model: ShiftModel) -> float:
    """Fitted C with |a[l, j]| <= C sqrt(p_l) (1 + |j|)^(-alpha) over the table."""
    sqp = np.sqrt(table.weight_probs)
    n_l = len(table.level_factors)
    ms = np.arange(len(table.depth_factors), dtype=float)
    env_j = (1.0 + ms) ** (-model.alpha)
    best = 0.0
    for l in range(1, n_l + 1):
        a = np.abs(table.level_factors[l - 1] * table.depth_factors)
        ratios = a / (sqp[l - 1] * env_j)
        best = max(best, float(ratios.max()))
    return best
