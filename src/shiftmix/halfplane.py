"""Translation dynamics on the half-plane Hardy space, by quadrature.

Seed functions are modeled directly by their boundary decay profile
``theta / (1 + x^2)^p``; translating by k moves the profile hump to -k.
The Hardy norm is a weighted boundary integral, evaluated by adaptive
quadrature on a finite window containing both humps plus infinite-range
quadrature for the two tails.  Verified here: the norm of a k-translate
decays like a power of k, and norms of long translate sums stay below the
k^{-3/2} summability envelope with a stable constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mixing import log_log_fit

__all__ = [
    "DecayedFunction",
    "QuadratureConfig",
    "QuadratureResult",
    "h2_norm",
    "translate",
    "TranslationDecayFit",
    "translation_decay_fit",
    "guaranteed_decay_exponent",
    "EnvelopeCheck",
    "envelope_sum_check",
    "partner_count",
]

_WINDOW_PAD = 50.0  # finite quadrature window beyond the outermost breakpoint


@dataclass(frozen=True)
class DecayedFunction:
    """Boundary profile ``1 / (1 + (x + offset)^2)^decay_power``."""

    decay_power: int
    offset: float = 0.0

    def __call__(self, x: float) -> float:
        u = x + self.offset
        try:
            return 1.0 / (1.0 + u * u) ** self.decay_power
        except OverflowError:  # the profile lies below every double there
            return 0.0

    @property
    def peak(self) -> float:
        return -self.offset


def translate(f: DecayedFunction, k: float) -> DecayedFunction:
    """Shift the argument by k; composition adds offsets."""
    return DecayedFunction(decay_power=f.decay_power, offset=f.offset + k)


@dataclass(frozen=True)
class QuadratureConfig:
    tolerance: float = 1e-10


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float


def h2_norm(
    f: Callable[[float], float],
    config: QuadratureConfig = QuadratureConfig(),
    breakpoints: tuple[float, ...] = (),
) -> QuadratureResult:
    """Hardy norm: square root of ``pi^-1 int |f|^2 dt / (1 + t^2)``.

    Decayed profiles bring their peak, and points at dyadic distances from
    it, as breakpoints automatically; pass explicit breakpoints for other
    integrands with narrow features.  The window spans every breakpoint
    plus a fixed pad; outside it the integrand is handled by dedicated
    infinite-range quadrature.  Raises if the combined error estimate
    cannot meet the tolerance.
    """
    from scipy.integrate import quad  # imported here so that start-up skips scipy

    pts = set(breakpoints) | {0.0}
    if isinstance(f, DecayedFunction):
        # without these, quad's bisection can step over half of a far hump
        top = math.ceil(math.log2(abs(f.peak) + 1.0))
        pts |= {f.peak} | {f.peak + s * 2.0**j for j in range(-4, top + 1) for s in (-1.0, 1.0)}
    pts = sorted(pts)
    lo = min(pts) - _WINDOW_PAD
    hi = max(pts) + _WINDOW_PAD

    def integrand(t: float) -> float:
        v = f(t)
        return v * v / (1.0 + t * t) / math.pi

    v1, e1 = quad(
        integrand, lo, hi, points=pts, limit=800,
        epsabs=config.tolerance / 4.0, epsrel=1e-12,
    )
    v2, e2 = quad(integrand, -np.inf, lo, limit=200, epsabs=config.tolerance / 4.0)
    v3, e3 = quad(integrand, hi, np.inf, limit=200, epsabs=config.tolerance / 4.0)
    total = v1 + v2 + v3
    err = e1 + e2 + e3
    if err > config.tolerance:
        raise ArithmeticError(
            f"quadrature did not converge: estimate {total!r} with error {err:.3e} "
            f"above tolerance {config.tolerance:.3e}"
        )
    value = math.sqrt(max(total, 0.0))
    # error of the root: d sqrt = err / (2 sqrt)
    root_err = err / (2.0 * value) if value > 0 else math.sqrt(err)
    return QuadratureResult(value=value, error=root_err)


def guaranteed_decay_exponent(p: int) -> float:
    """Best exponent certified by the two-window split: max over eps of
    min(1 - eps/2, eps * p), attained at eps = 2 / (2p + 1)."""
    return 2.0 * p / (2.0 * p + 1.0)


@dataclass(frozen=True)
class TranslationDecayFit:
    exponent: float
    guaranteed: float
    ks: np.ndarray
    norms: np.ndarray
    errors: np.ndarray


def translation_decay_fit(p: int, k_grid) -> TranslationDecayFit:
    """Fit the decay of translate norms against the certified exponent.

    Needs profile power at least 4 and at least two grid points; a grid
    point whose quadrature fails raises that failure.
    """
    if p < 4:
        raise ValueError("profile decay power must be at least 4")
    ks = sorted(int(v) for v in k_grid)
    if len(ks) < 2:
        raise ValueError("need at least two grid points to fit a slope")
    base = DecayedFunction(decay_power=p)
    res = [h2_norm(translate(base, k)) for k in ks]
    fit = log_log_fit(ks, [r.value for r in res])
    return TranslationDecayFit(
        exponent=-fit.slope,
        guaranteed=guaranteed_decay_exponent(p),
        ks=np.array(ks),
        norms=np.array([r.value for r in res]),
        errors=np.array([r.error for r in res]),
    )


def partner_count(k: int, limit: int) -> int:
    """Distinct partners of k: the indices j <= limit other than k whose
    fourth-root intervals overlap k's, ``|k - j| <= k^{1/4} + j^{1/4}``.

    Counting k itself would inflate the count past 4 k^{1/4} at small k
    (k = 4 would have 6 against a bound of 5.66); the partner count
    satisfies the 4 k^{1/4} budget everywhere up to 64.
    """
    kq = k**0.25
    return sum(abs(k - j) <= kq + j**0.25 for j in range(1, limit + 1)) - 1


@dataclass(frozen=True)
class EnvelopeCheck:
    lhs: float
    rhs: float
    ratio: float


def envelope_sum_check(p: int, theta_values, k_max: int) -> EnvelopeCheck:
    """Norm of a full translate sum against the k^{-3/2} envelope.

    lhs is the Hardy norm of ``sum_k theta_k * translate_k(profile)``
    computed by one quadrature of the squared sum; rhs is
    ``sum_k theta_k^2 k^{-3/2}``.  The useful statement is that lhs/rhs
    stays bounded as the sum lengthens.
    """
    if p < 4:
        raise ValueError("profile decay power must be at least 4")
    theta = np.asarray(list(theta_values), dtype=float)
    if len(theta) != k_max:
        raise ValueError("need one scale per translate")
    kk = np.arange(1, k_max + 1, dtype=float)

    def total(x: float) -> float:
        u = x + kk
        return float(np.sum(theta / (1.0 + u * u) ** p))

    # where the power in ``total`` overflows, the profile lies below every
    # double and its square in the integrand is 0.0 either way
    with np.errstate(over="ignore"):
        res = h2_norm(total, QuadratureConfig(tolerance=1e-8), breakpoints=tuple(-kk))
    rhs = float(np.sum(theta**2 * kk**-1.5))
    return EnvelopeCheck(lhs=res.value, rhs=rhs, ratio=res.value / rhs)
