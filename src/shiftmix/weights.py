"""Growth-function chains, symbol weights, and block schedules.

These three objects parametrize the invariant measure used everywhere else:

* :class:`GrowthChain` holds two growth scales on the positive integers,
  derived from an *outer* one.  The *inner* scale caps seed amplitudes and
  drives the symbol-weight recursion, and the *middle* scale sits between
  inner and outer so that the pairing inequality
  ``inner(k+k')^(k+k') <= middle(k)^k * middle(k')^k'`` holds for every pair.
* :class:`SymbolWeights` is a strictly decreasing probability vector
  ``p_1..p_L`` over symbol indices, built so that several summability
  conditions hold with small explicit constants.
* :class:`BlockSchedule` is an increasing integer sequence with convex gaps
  whose induced product ``prod beta_l^2`` stays bounded away from zero; this
  is the full-support certificate for the pushforward measure.

All probability arithmetic that spans many orders of magnitude is done in
log space; linear-space values are derived from the logs once and kept
alongside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "GrowthChain",
    "SymbolWeights",
    "BlockSchedule",
    "ConditionFit",
    "ConditionReport",
    "GROWTH_FUNCTIONS",
    "build_growth_chain",
    "build_symbol_weights",
    "check_weight_conditions",
    "build_block_schedule",
]

# Named growth functions usable from manifests and command-line flags.
GROWTH_FUNCTIONS: dict[str, Callable[[int], float]] = {
    "log": lambda k: math.log(k + math.e),
    "linear": lambda k: 1.0 + k,
    "sqrt": lambda k: 1.0 + math.sqrt(k),
    "exp": lambda k: math.exp(k),
}

_MIN_LOG = math.log(5e-324)  # smallest positive subnormal double
_INT64_END = 2**63  # first integer past the int64 range of block boundaries


@dataclass(frozen=True)
class GrowthChain:
    """The middle and inner growth scales derived from an outer one,
    tabulated on ``1..k_max``.

    Arrays are 1-indexed conceptually: ``inner[i]`` is the value at
    ``kappa = i + 1``, which ``inner_at`` reads.
    """

    k_max: int
    middle: np.ndarray
    inner: np.ndarray

    def inner_at(self, k: int) -> float:
        if not 1 <= k <= self.k_max:
            raise ValueError(f"growth scale evaluated at {k}, outside [1, {self.k_max}]")
        return float(self.inner[k - 1])

    def pairing_margin(self) -> float:
        """Worst log-slack of the pairing inequality over all k + k' <= k_max.

        Negative means the inequality holds strictly everywhere.  The check
        is exhaustive, not sampled.
        """
        log_in = np.log(self.inner)
        log_mid = np.log(self.middle)
        worst = -math.inf
        for k in range(1, self.k_max):
            for kp in range(1, self.k_max - k + 1):
                lhs = (k + kp) * log_in[k + kp - 1]
                rhs = k * log_mid[k - 1] + kp * log_mid[kp - 1]
                worst = max(worst, lhs - rhs)
        return worst


def build_growth_chain(outer: str | Callable[[int], float], k_max: int = 128) -> GrowthChain:
    """Construct the growth chain from an outer scale.

    ``outer`` may be a name from :data:`GROWTH_FUNCTIONS` or any callable on
    positive integers.  It must exceed 1 everywhere, be nondecreasing, and
    keep increasing over the tabulated range (a constant scale is rejected
    because the chain needs an unbounded target).

    The middle scale is the cube root of the outer one, capped so that it
    never more than doubles per step; this makes ``middle^2 / outer`` tend
    to zero monotonically while keeping the doubling property.  The inner
    scale is ``sqrt(middle(ceil(k/2)))``, which satisfies the pairing
    inequality with genuine slack.
    """
    if k_max < 4:
        raise ValueError("k_max must be at least 4")
    if isinstance(outer, str):
        try:
            fn = GROWTH_FUNCTIONS[outer]
        except KeyError:
            raise ValueError(f"unknown growth function {outer!r}") from None
    else:
        fn = outer

    # non-finite values are refused before any arithmetic on them, and every
    # check below is written so that a NaN fails it
    vals = np.array([float(fn(k)) for k in range(1, k_max + 1)])
    if not np.all(np.isfinite(vals)):
        raise ValueError("outer growth scale must be finite")
    if not np.all(vals > 1.0):
        raise ValueError("outer growth scale must exceed 1 everywhere")
    if not np.all(np.diff(vals) >= 0):
        raise ValueError("outer growth scale must be nondecreasing")
    if not vals[-1] > vals[max(0, k_max // 2 - 1)]:
        raise ValueError("outer growth scale must keep increasing (unbounded target)")

    middle = np.empty(k_max)
    middle[0] = vals[0] ** (1.0 / 3.0)
    for i in range(1, k_max):
        middle[i] = min(vals[i] ** (1.0 / 3.0), 2.0 * middle[i - 1])
    inner = np.array([math.sqrt(middle[(k + 1) // 2 - 1]) for k in range(1, k_max + 1)])

    ratio = middle**2 / vals
    monotone_from = k_max - 1
    for i in range(k_max - 1):
        if np.all(np.diff(ratio[i:]) <= 1e-15):
            monotone_from = i
            break
    if not ratio[-1] < ratio[monotone_from]:
        raise ValueError("middle^2/outer does not decay over the tabulated range")

    chain = GrowthChain(k_max=k_max, middle=middle, inner=inner)
    margin = chain.pairing_margin()
    if not margin <= 1e-12:
        raise ValueError(f"pairing inequality violated with log margin {margin:.3e}")
    return chain


@dataclass(frozen=True)
class SymbolWeights:
    """Strictly decreasing symbol probabilities with exact suffix sums.

    ``tail[l-1]`` is ``q_l = sum_{m >= l} p_m`` computed by backward
    summation, so ``q_l = p_l + q_{l+1}`` holds exactly in floating point.
    Mass beyond index L of the underlying infinite recursion is folded into
    symbol L, hence ``q_{L+1} = 0``.  ``log_p``, ``tail`` and ``length`` are
    derived from ``p``.
    """

    p: np.ndarray
    d_max: int
    log_p: np.ndarray = field(init=False)
    tail: np.ndarray = field(init=False)
    length: int = field(init=False)

    def __post_init__(self):
        # written so that a NaN fails every check
        if not np.all(self.p > 0.0):
            raise ValueError("probabilities must be positive")
        if not np.all(np.diff(self.p) < 0):
            raise ValueError("probabilities must be strictly decreasing")
        total = math.fsum(self.p.tolist())
        if not abs(total - 1.0) <= 1e-15:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "log_p", np.log(self.p))
        object.__setattr__(self, "tail", np.cumsum(self.p[::-1])[::-1])
        object.__setattr__(self, "length", len(self.p))

    def tail_ratios(self) -> np.ndarray:
        """sum_{m>l} p_m / p_l for l = 1..L-1."""
        return (self.tail[1:] ) / self.p[:-1]


# Ratio caps for the weight recursion.  The first step is gentler so the
# leading symbol does not swallow so much mass that Birkhoff-sum skewness
# blows up; later steps shrink geometrically so the full-support product
# certificate has room against the exponentially growing block gaps.
_FIRST_RATIO = 1.0 / 64.0
_BASE_RATIO = 1.0 / 256.0
_RATIO_DECAY = 0.7


def _logsumexp(u: np.ndarray) -> np.float64:
    """``scipy.special.logsumexp`` of a finite 1-D array, bit for bit: the m maximal
    terms are split off as ``log1p(s / m) + log(m) + max``, s the sum of the rest."""
    top = u.max()
    at_top = u == top
    m = np.float64(np.count_nonzero(at_top))
    s = np.exp(np.where(at_top, -np.inf, u) - top).sum()
    return np.log1p(s / m) + np.log(m) + top


def build_symbol_weights(chain: GrowthChain, d_max: int = 3, length: int = 40) -> SymbolWeights:
    """Build the symbol-weight vector from the inner growth scale.

    Each ratio ``p_{l+1}/p_l`` is the minimum of the halving recursion
    ``sqrt(p_{l+1}) inner(l+1)^{l+1} <= sqrt(p_l) inner(l)^l / 2`` and a
    geometric cap, and the absolute levels additionally respect
    ``inner(l)^{2d} <= p_l^{-1/2}`` for every ``d <= d_max`` once
    ``l >= 2d``.  The result is normalized to sum to one.
    """
    if length < 2 * d_max:
        raise ValueError(f"length {length} below 2*d_max = {2 * d_max}")
    if length < 2:
        raise ValueError("need at least two symbols")
    if chain.k_max < length:
        raise ValueError("growth chain too short for requested length")

    log_in = np.log(chain.inner)
    u = np.zeros(length)
    for l in range(1, length):  # ratio from p_l to p_{l+1}, 1-based l
        halving = math.log(0.25) + 2.0 * (l * log_in[l - 1] - (l + 1) * log_in[l])
        if l == 1:
            cap = math.log(_FIRST_RATIO)
        else:
            cap = math.log(_BASE_RATIO) + (l - 2) * math.log(_RATIO_DECAY)
        u[l] = u[l - 1] + min(halving, cap)
        for d in range(1, d_max + 1):
            if l + 1 >= 2 * d:
                u[l] = min(u[l], -4.0 * d * log_in[l])

    u -= _logsumexp(u)
    if u[-1] <= _MIN_LOG + 2.0:
        raise ValueError(
            f"p_{length} would underflow (log {u[-1]:.1f}); use a smaller length"
        )
    p = np.exp(u)
    p /= math.fsum(p.tolist())
    return SymbolWeights(p=p, d_max=d_max)


@dataclass(frozen=True)
class ConditionFit:
    """Fitted constant for one summability condition."""

    name: str
    constant: float
    per_k: np.ndarray | None = None


@dataclass(frozen=True)
class ConditionReport:
    tail_domination: ConditionFit
    sqrt_moment: ConditionFit
    moment: ConditionFit
    amplitude_caps: ConditionFit
    block_sum: dict[int, dict]


def _moment_fit(
    name: str, logs: np.ndarray, log_in: np.ndarray, length: int, k_max: int
) -> ConditionFit:
    """Smallest C with sum_{m>=l} x_m inner(m)^k <= C x_l max(inner(k)^k, inner(l)^k).

    ``logs`` holds log x_m; everything is evaluated in log space so that
    weights spanning hundreds of orders of magnitude stay comparable.
    """
    per_k = np.empty(k_max)
    for k in range(1, k_max + 1):
        term = logs + k * log_in[:length]
        # suffix logsumexp, smallest terms first
        suffix = np.logaddexp.accumulate(term[::-1])[::-1]
        k_pow = k * log_in[k - 1]
        denom = logs + np.maximum(k_pow, k * log_in[:length])
        per_k[k - 1] = np.max(suffix - denom)
    return ConditionFit(
        name=name,
        constant=float(math.exp(np.max(per_k))),
        per_k=np.exp(per_k),
    )


def check_weight_conditions(
    w: SymbolWeights,
    chain: GrowthChain,
    k_max: int,
    schedule: BlockSchedule,
) -> ConditionReport:
    """Fit the smallest constants for the weight summability conditions.

    Reported, never raised: an unbounded constant shows up as a ``per_k``
    that keeps growing along k.  The block-sum conditions
    ``sum (N_{l+1}-N_l) p_l^{1/4d} < inf`` of the schedule are evaluated
    through their partial sums for ``d <= w.d_max``.
    """
    if k_max < 1:
        raise ValueError(f"need k_max >= 1 for the moment conditions, got {k_max}")
    if w.d_max < 1:
        raise ValueError(f"need d_max >= 1 for the amplitude caps, got {w.d_max}")
    if len(schedule.bounds) < 2:
        raise ValueError("need a block schedule of at least two levels")
    if chain.k_max < max(w.length, k_max):
        raise ValueError("growth chain too short for the requested check range")
    log_in = np.log(chain.inner)
    L = w.length

    ratios = w.tail_ratios()
    tail_fit = ConditionFit(
        name="tail_domination",
        constant=float(ratios.max()),
    )

    amp = max(
        2.0 * d * log_in[l - 1] + 0.5 * w.log_p[l - 1]
        for d in range(1, w.d_max + 1)
        for l in range(2 * d, L + 1)
    )
    amp_fit = ConditionFit(
        name="amplitude_caps",
        constant=float(math.exp(amp)),
    )

    block = {}
    gaps = np.diff(schedule.bounds).astype(float)
    n_terms = min(len(gaps), L)
    for d in range(1, w.d_max + 1):
        terms = gaps[:n_terms] * np.exp(w.log_p[:n_terms] / (4.0 * d))
        partial = np.cumsum(terms)
        total = float(partial[-1])
        last_quarter = float(terms[-max(1, n_terms // 4):].sum())
        block[d] = {
            "partial_sum": total,
            "last_term": float(terms[-1]),
            "tail_fraction": last_quarter / total if total > 0 else 0.0,
            "converged": bool(terms[-1] <= 1e-6 * total),
        }

    return ConditionReport(
        tail_domination=tail_fit,
        sqrt_moment=_moment_fit("sqrt_moment", 0.5 * w.log_p, log_in, L, k_max),
        moment=_moment_fit("moment", w.log_p, log_in, L, k_max),
        amplitude_caps=amp_fit,
        block_sum=block,
    )


@dataclass(frozen=True)
class BlockSchedule:
    """Increasing block boundaries with convex gaps; the beta certificate is
    ``log_beta_sq_tail(1, w)``, the log of the full beta-square product."""

    bounds: np.ndarray  # N_1..N_R, int64

    def log_beta_sq_tail(self, from_level: int, weights: SymbolWeights) -> float:
        """2 * sum_{l >= from_level} gap_l * log(sigma_l) over the truncation."""
        total = 0.0
        sigma = np.cumsum(weights.p)
        for l in range(from_level, len(self.bounds)):
            gap = int(self.bounds[l] - self.bounds[l - 1])
            s = sigma[min(l, weights.length) - 1]
            total += 2.0 * gap * math.log(s)
        return total


def build_block_schedule(alpha: float, w: SymbolWeights, chain: GrowthChain, levels: int) -> BlockSchedule:
    """Choose block boundaries so worst-case orbit tails stay below 2^-n.

    The model enters only through its decay exponent alpha: section norms are
    bounded by ``inner(symbol) / N^alpha`` past depth N, and forward orbits
    of the seed family vanish.  Level l gets the smallest boundary with
    integral tail bound ``inner(l) * N^(1-alpha) / (alpha-1) <= 2^(-l-1)``;
    summing the geometric budget over ``l >= n`` then certifies every level
    n at once.  Gap convexity is enforced afterwards by inflation, which
    only shrinks the tails further.  Boundaries are exact integers; one past
    the int64 range is an error.
    """
    if levels < 1:
        raise ValueError(f"need at least one level, got {levels}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if alpha <= 1.0:
        raise ValueError(
            f"orbit-norm envelope N^(-{alpha}) is not summable; cannot certify tails"
        )
    if chain.k_max < levels:
        raise ValueError("growth chain too short for the requested level count")

    bounds: list[int] = []
    for l in range(1, levels + 1):
        need = chain.inner_at(l) * 2.0 ** (l + 1) / (alpha - 1.0)
        try:
            n_min = max(math.ceil(need ** (1.0 / (alpha - 1.0))), l)
        except OverflowError:  # past the float range, so past int64 too
            n_min = _INT64_END
        if l == 1:
            bound = n_min
        elif l == 2:
            bound = max(n_min, bounds[0] + 1)
        else:
            bound = max(n_min, bounds[-1] + (bounds[-1] - bounds[-2]) + 1)
        if bound >= _INT64_END:
            raise ValueError(
                f"block boundary of level {l} passes the int64 range at alpha = {alpha!r}"
            )
        bounds.append(bound)
    return BlockSchedule(bounds=np.array(bounds, dtype=np.int64))

