"""Weighted backward shift on a truncated sequence space.

The operator acts on ``x = (x_0, x_1, ...)`` by ``(x_n) -> (w_{n+1} x_{n+1})``
with cumulative weight products ``W_n = w_1 .. w_n = n^alpha`` for the
canonical family.  Vectors are stored through their *scaled* coordinates
``z_m = y_m * W_m``: on that representation the operator is a pure index
shift and the section maps place a seed amplitude at a single index, so the
algebraic identities (cocycle relation, conjugacy with the symbol shift)
hold bit-for-bit in floating point.  Plain coordinates are derived on
demand by a single division per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .weights import GrowthChain

__all__ = [
    "ShiftModel",
    "LpVector",
    "row_norms",
    "canonical_shift",
    "apply_shift",
    "apply_section",
    "enumerate_seed_values",
]


def enumerate_seed_values(chain: GrowthChain, count: int, p_exp: float) -> np.ndarray:
    """Interleaved dyadic amplitudes clipped by the inner growth scale.

    Candidates are produced level by level: level t walks the odd multiples
    of 2^-t out to absolute value t+1 in +/- pairs (level 0 also emits 0
    and +/-1).  A candidate is accepted at the next free index n only if
    ``|v|^p_exp <= inner(n)``; rejected candidates are skipped, larger ones
    reappear at later levels as the range widens.  The accepted sequence is
    dense in the admissible region and always starts with the zero seed.
    """
    if count < 1:
        raise ValueError("need at least one seed")
    if count > chain.k_max:
        raise ValueError("growth chain too short for the requested seed count")
    out = [0.0]
    t = 0
    while len(out) < count:
        step = 2.0**-t
        limit = int((t + 1) / step)
        for j in range(1, limit + 1):
            if t > 0 and j % 2 == 0:
                continue
            for v in (j * step, -j * step):
                n = len(out) + 1
                if n > count:
                    break
                if abs(v) ** p_exp <= chain.inner_at(n):
                    out.append(v)
        t += 1
        if t > 60:  # admissibility bound grows too slowly to fill the request
            raise ValueError("seed enumeration stalled; increase chain range")
    return np.array(out[:count])


@dataclass(frozen=True)
class ShiftModel:
    """Canonical weighted backward shift with its seed family.

    ``W[m] = m**alpha`` (``W[0] = 1``), truncated at coordinate ``depth``.
    ``seed_values[n-1]`` is the amplitude of seed n; the zero seed sits at
    n = 1.  Immutable and safe to share.
    """

    alpha: float
    p_exp: float
    depth: int
    W: np.ndarray
    seed_values: np.ndarray
    chain: GrowthChain
    # seed amplitudes padded so symbol arrays can fancy-index directly
    symbol_alpha: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "symbol_alpha", np.concatenate([[0.0], self.seed_values]))

    @property
    def n_seeds(self) -> int:
        return len(self.seed_values)

    def amplitudes(self, symbols: np.ndarray) -> np.ndarray:
        """Seed amplitudes of a symbol array (symbol n reads seed n)."""
        try:
            return self.symbol_alpha[symbols]
        except IndexError:
            raise ValueError("window contains symbols beyond the seed family") from None

    def seed(self, n: int) -> float:
        if not 1 <= n <= self.n_seeds:
            raise ValueError(f"seed index {n} outside [1, {self.n_seeds}]")
        return float(self.seed_values[n - 1])


def canonical_shift(
    alpha: float,
    p_exp: float = 2.0,
    depth: int = 256,
    *,
    chain: GrowthChain,
) -> ShiftModel:
    """Build the canonical model with ``W_m = m**alpha`` and 64 seeds.

    Requires ``alpha > 1/2`` and ``alpha * p_exp > 1``; the latter is the
    summability of ``W_m**-p_exp``, without which no invariant measure with
    full support exists for this family.
    """
    if not (np.isfinite(alpha) and np.isfinite(p_exp)):
        raise ValueError(f"alpha and p_exp must be finite, got {alpha!r} and {p_exp!r}")
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if alpha * p_exp <= 1.0:
        raise ValueError(
            f"sum of W_n^(-p) diverges (alpha*p_exp = {alpha * p_exp:.3g} <= 1); "
            "no fully supported invariant measure exists for this family"
        )
    if alpha <= 0.5:
        raise ValueError("alpha must exceed 1/2 for the covariance decay regimes")
    if p_exp < 1.0:
        raise ValueError("p_exp must be at least 1")
    try:
        float(depth) ** alpha
    except OverflowError:
        raise ValueError(f"W_m = m**alpha overflows at alpha = {alpha!r}, depth = {depth}") from None
    W = np.arange(0, depth + 1, dtype=float) ** alpha
    W[0] = 1.0
    seeds = enumerate_seed_values(chain, 64, p_exp)
    return ShiftModel(
        alpha=alpha, p_exp=p_exp, depth=depth, W=W, seed_values=seeds, chain=chain
    )


@dataclass(frozen=True)
class LpVector:
    """Finitely supported vector, stored through scaled coordinates.

    ``scaled[m] = y_m * W_m``; ``coords()`` recovers y.
    """

    scaled: np.ndarray
    model: ShiftModel

    def coords(self) -> np.ndarray:
        return self.scaled / self.model.W[: len(self.scaled)]

    def norm(self) -> float:
        return float(row_norms(self.model, self.scaled[None, :])[0])


def row_norms(model: ShiftModel, scaled: np.ndarray) -> np.ndarray:
    """Norms of the rows of scaled coordinates, each row's bits as if alone:
    one BLAS dot per row for p = 2, otherwise a scalar root per row."""
    p = model.p_exp
    y = np.abs(scaled / model.W[: scaled.shape[1]])
    if p == 2.0:
        return np.sqrt((y[:, None, :] @ y[:, :, None])[:, 0, 0])
    return np.array([s ** (1.0 / p) for s in np.sum(y**p, axis=1)])


def apply_shift(model: ShiftModel, v: LpVector, steps: int) -> LpVector:
    """Iterate the backward shift: coordinate m becomes (W_{m+s}/W_m) y_{m+s}.

    On scaled coordinates this is an exact index shift, so repeated
    applications compose without rounding.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps == 0:
        return v
    if steps >= len(v.scaled):
        return LpVector(scaled=np.zeros(1), model=model)
    return LpVector(scaled=v.scaled[steps:].copy(), model=model)


def apply_section(model: ShiftModel, seed_index: int, k: int) -> LpVector:
    """Right-inverse section: place seed n at depth k with amplitude a_n/W_k."""
    if k < 0:
        raise ValueError("depth must be nonnegative")
    if k > model.depth:
        raise ValueError(f"depth {k} exceeds truncation {model.depth}")
    a = model.seed(seed_index)
    z = np.zeros(k + 1)
    z[k] = a
    return LpVector(scaled=z, model=model)
