"""Observables for experiments: linear functionals, polynomials, norm powers.

Every observable is evaluated by :func:`evaluate_windows`, on whole matrices
of window amplitudes at once.  Polynomial observables also expose exact means
under the invariant measure (coordinates are independent under the pullback,
so means reduce to moments of the seed amplitude distribution).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .shift import ShiftModel, row_norms
from .weights import SymbolWeights

__all__ = [
    "Observable",
    "linear_functional",
    "monomial_sum",
    "norm_power",
    "parse_observable",
    "evaluate_windows",
    "exact_mean",
    "with_exact_mean_subtracted",
]


@dataclass(frozen=True)
class Observable:
    kind: str  # "linear" | "monomials" | "norm_power"
    coefs: np.ndarray | None = None
    terms: tuple[tuple[float, tuple[int, ...]], ...] | None = None
    power: int | None = None
    mean_shift: float = 0.0

    @property
    def support_depth(self) -> int:
        if self.kind == "linear":
            return len(self.coefs) - 1
        if self.kind == "monomials":
            return max((max(ix) for _, ix in self.terms if ix), default=0)
        return 0


def linear_functional(coefs: Sequence[float]) -> Observable:
    c = np.asarray(coefs, dtype=float)
    if not (c.size and np.isfinite(c).all()):
        raise ValueError("need at least one linear coefficient, and all must be finite")
    return Observable(kind="linear", coefs=c)


def monomial_sum(terms: Sequence[tuple[float, Sequence[int]]]) -> Observable:
    tt = tuple((float(c), tuple(int(i) for i in ix)) for c, ix in terms)
    if any(i < 0 for _, ix in tt for i in ix):
        raise ValueError("monomial coordinates must be nonnegative")
    if not all(np.isfinite(c) for c, _ in tt):
        raise ValueError("monomial coefficients must be finite")
    return Observable(kind="monomials", terms=tt)


def norm_power(d: int) -> Observable:
    if d < 1:
        raise ValueError("power must be positive")
    return Observable(kind="norm_power", power=d)


def parse_observable(text: str) -> Observable:
    """Parse the compact forms ``lin:0=1,1=0.5``, ``mono:(0,1)=1``, ``normp:2``.

    Several monomial terms are separated by semicolons; coordinates are
    nonnegative.
    """
    head, _, body = text.partition(":")
    if head == "lin":
        pairs = {}
        for item in body.split(","):
            k, _, v = item.partition("=")
            if int(k) < 0:
                raise ValueError(f"linear coordinate {k!r} must be nonnegative")
            pairs[int(k)] = float(v)
        coefs = np.zeros(max(pairs) + 1)
        for k, v in pairs.items():
            coefs[k] = v
        return linear_functional(coefs)
    if head == "mono":
        terms = []
        for item in body.split(";"):
            ix, _, v = item.partition("=")
            ix = ix.strip()
            if not (ix.startswith("(") and ix.endswith(")")):
                raise ValueError(f"bad monomial index {ix!r}")
            idx = tuple(int(t) for t in ix[1:-1].split(",") if t.strip() != "")
            terms.append((float(v), idx))
        return monomial_sum(terms)
    if head == "normp":
        return norm_power(int(body))
    raise ValueError(f"unknown observable form {text!r}")


def evaluate_windows(
    obs: Observable, model: ShiftModel, amp: np.ndarray, ends: Sequence[int]
) -> np.ndarray:
    """Values ``(rows, len(ends))`` on the windows of amplitude rows ``amp``
    (``model.amplitudes`` of symbols) whose index 0 sits at columns ``ends``.

    Coordinate m of a window reads column ``end - m`` over ``W_m``, and 0 once
    ``m > min(end, depth)``.  Monomials and norm powers give the bits of the
    one-window-at-a-time reference in ``tests/reference.py``.  A linear value
    sums ``amp[r, c] * (c_m / W_m)`` over the non-zero amplitudes of row r
    only (drawn rows are mostly the zero seed), in increasing column order
    from +0.  A sum over every column in that order adds only ±0 terms
    besides these (coefficients are finite), and they change no bit."""
    ends = np.asarray(ends, dtype=np.int64)
    out = np.empty((amp.shape[0], len(ends)))
    if obs.kind == "monomials":
        reach = np.minimum(ends, model.depth)
        total = np.zeros_like(out)
        for c, ix in obs.terms:
            prod = np.full_like(out, c)
            for i in ix:  # columns out of reach are read clipped and masked
                y = amp[:, np.maximum(ends - i, 0)] / model.W[min(i, model.depth)]
                prod *= np.where(i <= reach, y, 0.0)
            total += prod
        return total - obs.mean_shift
    if obs.kind == "linear":
        n = min(len(obs.coefs), model.depth + 1)
        k = obs.coefs[:n] / model.W[:n]
        # kern[j, c]: the coefficient of column c in the window ending at ends[j]
        m = ends[:, None] - np.arange(amp.shape[1])
        kern = np.where((m >= 0) & (m < n), k[np.clip(m, 0, n - 1)], 0.0)
        r, c = np.divmod(np.flatnonzero(amp != 0), amp.shape[1])
        a = amp[r, c]
        for j in range(len(ends)):
            out[:, j] = np.bincount(r, weights=a * kern[j, c], minlength=amp.shape[0])
        return out - obs.mean_shift
    for j, end in enumerate(ends.tolist()):
        n = min(end, model.depth) + 1  # window coordinates 0 .. n - 1
        norms = row_norms(model, amp[:, end - n + 1 : end + 1][:, ::-1])
        out[:, j] = [x**obs.power for x in norms.tolist()]
    return out - obs.mean_shift


def _amplitude_moments(model: ShiftModel, w: SymbolWeights, orders: set[int]) -> dict[int, float]:
    amps = model.seed_values[: w.length]
    return {k: float(np.dot(w.p, amps**k)) for k in orders}


def exact_mean(obs: Observable, model: ShiftModel, w: SymbolWeights) -> float:
    """Mean under the invariant measure (polynomial kinds only).

    Coordinates of a realized vector are independent with distribution
    amplitude(symbol) / W_m, so a monomial mean is the product over
    distinct coordinates of amplitude moments divided by weight powers.
    """
    if model.n_seeds < w.length:
        raise ValueError("seed family shorter than the symbol alphabet")
    if obs.kind == "linear":
        m1 = _amplitude_moments(model, w, {1})[1]
        n = min(len(obs.coefs), model.depth + 1)
        return m1 * float(np.sum(obs.coefs[:n] / model.W[:n])) - obs.mean_shift
    if obs.kind == "monomials":
        orders = set()
        for _, ix in obs.terms:
            for i in set(ix):
                orders.add(ix.count(i))
        moments = _amplitude_moments(model, w, orders)
        total = 0.0
        for c, ix in obs.terms:
            if any(i > model.depth for i in ix):
                continue  # coordinates past the truncation read as 0
            prod = c
            for i in set(ix):
                u = ix.count(i)
                prod *= moments[u] / float(model.W[i]) ** u
            total += prod
        return total - obs.mean_shift
    raise ValueError("no closed-form mean for norm powers")


def with_exact_mean_subtracted(obs: Observable, model: ShiftModel, w: SymbolWeights) -> Observable:
    mu = exact_mean(obs, model, w) + obs.mean_shift
    return replace(obs, mean_shift=mu)

