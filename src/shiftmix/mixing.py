"""Covariance decay, central limit behavior, and martingale diagnostics.

Dynamics never iterate the operator on vectors: each replica draws one
window of symbols (``sample_replicas``, a block of replicas at a time) and
the operator acts as an index shift inside it, so a whole Birkhoff sum
costs one pass over the window, for every kind of observable.  Exact
covariances come from the coefficient convolution of the factorized linear
tables, through ``exact_decay_curve`` alone; Monte Carlo estimates must
agree with them within standard errors, and the CLT experiments compare
standardized Birkhoff sums against a moment-matched Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import build_basis
from .fourier import FourierTable, exact_covariance, linear_fourier_table
from .observables import Observable, evaluate_windows, with_exact_mean_subtracted
from .sampling import (
    _REPLICA_BLOCK,
    SamplerState,
    _run_blocks,
    sample_amplitudes,
    sample_replicas,
)
from .shift import ShiftModel
from .weights import SymbolWeights

__all__ = [
    "DecayReport",
    "SlopeFit",
    "empirical_covariance",
    "exact_decay_curve",
    "log_log_fit",
    "decay_exponent_fit",
    "log_lag_ratio_band",
    "CltReport",
    "clt_experiment",
    "MartingaleDiagnostics",
    "conditional_norm_diagnostics",
    "FactConstants",
    "window_tail_constants",
    "fact2_bruteforce",
    "regime_envelope",
]


# ---------------------------------------------------------------------------
# covariance decay


@dataclass(frozen=True)
class DecayReport:
    lags: np.ndarray
    mc: np.ndarray | None
    se: np.ndarray | None
    exact: np.ndarray | None

    def usable_mask(self) -> np.ndarray:
        """Lags whose value stands clear of its error bound (10x)."""
        if self.exact is not None:
            return np.abs(self.exact) > 0
        return np.abs(self.mc) > 10.0 * self.se


def empirical_covariance(
    model: ShiftModel,
    w: SymbolWeights,
    obs_f: Observable,
    obs_g: Observable,
    lags: np.ndarray,
    n_samples: int,
    depth: int,
    *,
    state: SamplerState,
    workers: int = 1,
) -> DecayReport:
    """Monte Carlo lag covariances with standard errors and exact columns.

    Requires window depth at least the largest lag plus the observable
    support depth.  The lag-p value pairs the observable on the shifted
    window against the other observable at lag zero; estimates are centered
    products, so observable means do not need to be removed beforehand.
    """
    lags = np.asarray(sorted(int(x) for x in lags))
    support = max(obs_f.support_depth, obs_g.support_depth)
    if depth < support:
        raise ValueError(f"depth {depth} below observable support {support}")
    max_lag = int(lags.max())
    width = depth + max_lag + 1
    idx0 = width - 1

    chunk, sub = 4096, 1024
    g_all = np.empty(n_samples)
    f_all = np.empty((len(lags), n_samples))

    def block(start: int, stop: int) -> None:
        # amplitudes are drawn once per chunk; each sub-block is read at every lag
        amps = sample_amplitudes(model, w, stop - start, width, state.substream(start // chunk))
        for s in range(0, stop - start, sub):
            amp = amps[s : s + sub]
            rows = slice(start + s, start + s + len(amp))
            g_all[rows] = evaluate_windows(obs_g, model, amp, [idx0])[:, 0]
            f_all[:, rows] = evaluate_windows(obs_f, model, amp, idx0 - lags).T

    _run_blocks(n_samples, chunk, block, workers)

    g_c = g_all - g_all.mean()
    mc = np.empty(len(lags))
    se = np.empty(len(lags))
    for i in range(len(lags)):
        f_c = f_all[i] - f_all[i].mean()
        prod = f_c * g_c
        mc[i] = prod.mean()
        se[i] = prod.std(ddof=1) / math.sqrt(n_samples)

    exact = None
    if obs_f.kind == "linear" and obs_g.kind == "linear":
        exact = exact_decay_curve(model, w, obs_f, obs_g, lags).exact
    return DecayReport(lags=lags, mc=mc, se=se, exact=exact)


def exact_decay_curve(
    model: ShiftModel,
    w: SymbolWeights,
    obs_f: Observable,
    obs_g: Observable,
    lags: np.ndarray,
) -> DecayReport:
    """Exact covariance decay only, for oracle-grade slope fits."""
    if obs_f.kind != "linear" or obs_g.kind != "linear":
        raise ValueError("exact curves exist for linear observables only")
    basis = build_basis(w)
    lags = np.asarray(sorted(int(x) for x in lags))
    tf = linear_fourier_table(model, basis, obs_f.coefs)
    tg = linear_fourier_table(model, basis, obs_g.coefs)
    exact = np.array([exact_covariance(tf, tg, int(p)) for p in lags])
    return DecayReport(lags=lags, mc=None, se=None, exact=exact)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    ci: float


def log_log_fit(x, y) -> SlopeFit:
    """Least-squares line through ``(log x, log y)``, with the half-width of
    the 95 % interval of its slope (0 with two points or fewer)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    n = len(lx)
    if n > 2 and len(res) > 0:
        s2 = float(res[0]) / (n - 2)
        sx = float(np.sum((lx - lx.mean()) ** 2))
        ci = 1.96 * math.sqrt(s2 / sx)
    else:
        ci = 0.0
    return SlopeFit(slope=float(coef[0]), ci=ci)


def decay_exponent_fit(report: DecayReport) -> SlopeFit:
    """Least-squares slope of log |cov| against log lag.

    Only lags whose covariance exceeds ten times its error bound enter the
    fit; fewer than five usable lags is an error, and all-zero covariances
    raise "no signal".
    """
    values = report.exact if report.exact is not None else report.mc
    mask = report.usable_mask()
    if not mask.any():
        raise ValueError("no signal: all covariances statistically zero")
    if mask.sum() < 5:
        raise ValueError(f"only {int(mask.sum())} usable lags; need at least 5")
    return log_log_fit(report.lags[mask], np.abs(values[mask]))


def log_lag_ratio_band(report: DecayReport) -> tuple[float, float]:
    """Spread of cov * lag / log(lag + 1), the boundary-regime diagnostic."""
    values = report.exact if report.exact is not None else report.mc
    mask = report.usable_mask()
    lags = report.lags[mask].astype(float)
    ratio = values[mask] * lags / np.log(lags + 1.0)
    return float(ratio.min()), float(ratio.max())


# ---------------------------------------------------------------------------
# central limit experiment


@dataclass(frozen=True)
class CltReport:
    samples: np.ndarray
    ks_distance: float
    ks_limit: float
    skewness: float
    skew_limit: float
    excess_kurtosis: float
    kurtosis_limit: float
    sigma2_hat: float
    sigma2_series: float | None
    degenerate: bool

    @property
    def passed(self) -> bool:
        if self.degenerate:
            return False
        ok = (
            self.ks_distance < self.ks_limit
            and abs(self.skewness) < self.skew_limit
            and abs(self.excess_kurtosis) < self.kurtosis_limit
        )
        if self.sigma2_series is not None and self.sigma2_series > 0:
            ok = ok and abs(self.sigma2_hat - self.sigma2_series) <= 0.1 * self.sigma2_series
        return ok


def _ks_fitted_normal(samples: np.ndarray) -> float:
    from scipy.special import ndtr  # imported here so that start-up skips scipy

    n = len(samples)
    z = np.sort((samples - samples.mean()) / samples.std(ddof=1))
    F = ndtr(z)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


def clt_experiment(
    model: ShiftModel,
    w: SymbolWeights,
    obs: Observable,
    n_steps: int,
    replicas: int,
    state: SamplerState,
    workers: int = 1,
) -> CltReport:
    """Distribution of normalized Birkhoff sums over independent replicas.

    The observable is centered by its exact mean here; a linear one must fit
    the model depth, and the decay exponent must exceed 1, the proven
    regime.  Each replica draws a fresh stream; for linear observables the
    whole Birkhoff sum is one dot product against a precomputed kernel, for
    the others one evaluation of every step's window of a block of replicas
    at once.  A sample of zero variance is degenerate: its statistics are
    NaN and it fails.
    """
    if replicas < 100:
        raise ValueError("need at least 100 replicas for a usable distribution test")
    if n_steps < 1:
        raise ValueError("need at least one Birkhoff step")
    if model.alpha <= 1.0:
        raise ValueError(f"clt needs alpha > 1, the proven regime; got alpha = {model.alpha!r}")
    if obs.kind == "linear" and obs.support_depth > model.depth:
        raise ValueError(f"depth {model.depth} below observable support {obs.support_depth}")
    obs = with_exact_mean_subtracted(obs, model, w)

    width = n_steps + obs.support_depth
    values = np.empty(replicas)
    if obs.kind == "linear":
        k = obs.coefs / model.W[: len(obs.coefs)]
        kern = np.convolve(k, np.ones(n_steps))  # kern[i] = sum of k over the lag band
        kern_rev = kern[::-1]
        shift_total = n_steps * obs.mean_shift

        def birkhoff_sums(syms: np.ndarray):
            return [float(model.amplitudes(row) @ kern_rev) - shift_total for row in syms]
    else:
        # window index 0 of step p sits at column width - 1 - p
        ends = np.arange(width - 1, width - 1 - n_steps, -1)

        def birkhoff_sums(syms: np.ndarray):
            f = evaluate_windows(obs, model, model.amplitudes(syms), ends)
            # the running sum adds in step order from +0.0, as a loop would
            return np.cumsum(f, axis=1)[:, -1] + 0.0

    def block(start: int, stop: int) -> None:
        sums = birkhoff_sums(sample_replicas(w, width, state, start, stop))
        values[start:stop] = np.asarray(sums) / math.sqrt(n_steps)

    _run_blocks(replicas, _REPLICA_BLOCK, block, workers)

    var_hat = float(values.var(ddof=1))
    degenerate = var_hat <= 1e-300
    ks = skew = kurt = math.nan
    sigma2_series = None
    if not degenerate:
        z = (values - values.mean()) / math.sqrt(var_hat)
        skew = float(np.mean(z**3))
        kurt = float(np.mean(z**4) - 3.0)
        ks = _ks_fitted_normal(values)
        if obs.kind == "linear":
            cov = exact_decay_curve(model, w, obs, obs, np.arange(len(obs.coefs))).exact
            total = cov[0]
            for c in cov[1:]:
                if abs(c) < 1e-12 * abs(cov[0]):
                    break
                total += 2.0 * c
            sigma2_series = float(total)

    return CltReport(
        samples=values,
        ks_distance=ks,
        ks_limit=1.5 * 1.63 / math.sqrt(replicas),
        skewness=skew,
        skew_limit=4.0 * math.sqrt(6.0 / replicas),
        excess_kurtosis=kurt,
        kurtosis_limit=4.0 * math.sqrt(24.0 / replicas),
        sigma2_hat=var_hat,
        sigma2_series=sigma2_series,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# martingale (conditional-norm) diagnostics


@dataclass(frozen=True)
class MartingaleDiagnostics:
    """Conditional norms of Birkhoff sums against the coordinate filtration.

    ``known_sq[i]`` is the squared norm of the sum's projection onto the
    sigma-field of coordinates at positions >= 0; ``residual_sq[i]`` is the
    squared norm of what coordinates below -n still carry.  The summand
    arrays divide the root of each by n^{3/2}; partial sums of those decide
    the martingale-approximation criterion.
    """

    n_grid: np.ndarray
    known_sq: np.ndarray
    residual_sq: np.ndarray
    known_summand: np.ndarray
    residual_summand: np.ndarray
    known_partial: np.ndarray
    residual_partial: np.ndarray

    def cauchy_ratios(self, which: str = "residual") -> np.ndarray:
        s = self.residual_summand if which == "residual" else self.known_summand
        with np.errstate(divide="ignore", invalid="ignore"):
            return s[:-1] / s[1:]


def conditional_norm_diagnostics(table: FourierTable, n_grid: np.ndarray) -> MartingaleDiagnostics:
    """Evaluate both conditional-norm series of a linear table exactly.

    Conditioning on the coordinates at positions >= -m keeps exactly the
    tensor indices whose leading position is >= -m, so both norms are sums
    of squared coefficient windows; with the factorized table these reduce
    to prefix-sum arithmetic on the depth factors.
    """
    n_grid = np.asarray(sorted(int(n) for n in n_grid))
    g = table.depth_factors  # position -m carries g[m]
    D = len(g) - 1
    amp = float(np.dot(table.level_factors, table.level_factors))

    # prefix sums over positions -D .. 0; positions above 0 carry nothing
    P = np.concatenate([[0.0], np.cumsum(g[::-1])])

    def window_sum(j_positions: np.ndarray, n: int) -> np.ndarray:
        # S(j, n) = sum_{p < n} of the mass at position j + p
        return P[np.clip(j_positions + D + n, 0, D + 1)] - P[np.clip(j_positions + D, 0, D + 1)]

    known_sq = np.empty(len(n_grid))
    resid_sq = np.empty(len(n_grid))
    for i, n in enumerate(n_grid):
        j_known = np.arange(0, 1)  # positions >= 0 with any mass: only 0
        known_sq[i] = amp * float(np.sum(window_sum(j_known, n) ** 2))
        j_resid = np.arange(-D - n, -n)  # positions strictly below -n
        resid_sq[i] = amp * float(np.sum(window_sum(j_resid, n) ** 2))

    known_summand = np.sqrt(known_sq) / n_grid.astype(float) ** 1.5
    resid_summand = np.sqrt(resid_sq) / n_grid.astype(float) ** 1.5
    return MartingaleDiagnostics(
        n_grid=n_grid,
        known_sq=known_sq,
        residual_sq=resid_sq,
        known_summand=known_summand,
        residual_summand=resid_summand,
        known_partial=np.cumsum(known_summand),
        residual_partial=np.cumsum(resid_summand),
    )


# ---------------------------------------------------------------------------
# shifted-window power-sum constants


@dataclass(frozen=True)
class FactConstants:
    n_grid: np.ndarray
    lhs: np.ndarray
    c_stated: np.ndarray  # against max(n^{3-2a}, log(n+1))
    c_regime: np.ndarray  # against the tight regime envelope

    def stated_spread(self) -> float:
        return float(self.c_stated.max() / self.c_stated.min())

    def regime_spread(self) -> float:
        return float(self.c_regime.max() / self.c_regime.min())

    def sup_attained_early(self) -> bool:
        """The fitted constant peaks before the last grid point, so the
        bound is witnessed inside the grid rather than still climbing."""
        return int(np.argmax(self.c_stated)) < len(self.n_grid) - 1


def _window_power_lhs(alpha: float, n: int) -> float:
    """sum_{j >= 0} (sum_{p < n} (1 + j + p)^-alpha)^2 by direct summation."""
    j_max = max(200_000, 400 * n)
    i = np.arange(1, j_max + n + 2, dtype=float)
    c = np.concatenate([[0.0], np.cumsum(i**-alpha)])
    j = np.arange(0, j_max + 1)
    inner = c[j + n] - c[j]
    total = float(np.sum(inner**2))
    # integral tail of the dropped indices
    total += n**2 * (j_max + 1.5) ** (1.0 - 2.0 * alpha) / (2.0 * alpha - 1.0)
    return total


def regime_envelope(alpha: float, n: np.ndarray) -> np.ndarray:
    if alpha < 1.5:
        return n.astype(float) ** (3.0 - 2.0 * alpha)
    if alpha == 1.5:
        return np.log(n + 1.0)
    return np.ones_like(n, dtype=float)


def window_tail_constants(alpha: float, n_grid) -> FactConstants:
    """Fitted constants of the shifted-window power-sum bound.

    ``c_stated`` divides by ``max(n^{3-2a}, log(n+1))``; ``c_regime``
    divides by the sharp regime of the same estimate (the left side
    saturates to a constant once a > 3/2, so the logarithmic envelope is
    loose there and its fitted constant decays).
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if alpha <= 1.0:
        raise ValueError("needs a decay exponent above 1")
    n_grid = np.asarray(sorted(int(n) for n in n_grid))
    lhs = np.array([_window_power_lhs(alpha, int(n)) for n in n_grid])
    stated = np.maximum(n_grid.astype(float) ** (3.0 - 2.0 * alpha), np.log(n_grid + 1.0))
    return FactConstants(
        n_grid=n_grid,
        lhs=lhs,
        c_stated=lhs / stated,
        c_regime=lhs / regime_envelope(alpha, n_grid),
    )


def fact2_bruteforce(alpha: float, n: int) -> tuple[float, float]:
    """Brute-force check of the factored square expansion for arity 2.

    Returns (lhs, rhs) where lhs sums over leading positions below -n and a
    second position, both cut at distance 200, and rhs is the factored bound
    with its single-position sum enlarged to cover the truncation shift.
    """
    j_cut = 200
    j1 = np.arange(-n - j_cut, -n)
    j2 = np.arange(-j_cut, j_cut + 1)
    p = np.arange(0, n)
    t1 = (1.0 + np.abs(j1[:, None] + p[None, :])) ** -alpha  # (j1, p)
    t2 = (1.0 + np.abs(j2[:, None] + p[None, :])) ** -alpha  # (j2, p)
    inner = np.einsum("ap,bp->ab", t1, t2)
    lhs = float(np.sum(inner**2))

    one_pos = float(np.sum((t1.sum(axis=1)) ** 2))
    jj = np.arange(-j_cut - n, j_cut + n + 1)
    factor = float(np.sum((1.0 + np.abs(jj)) ** -alpha))
    rhs = one_pos * factor
    return lhs, rhs
