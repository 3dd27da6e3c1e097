"""Checks of every call's artifacts against computations made apart from it.

From the program the checks take only the model's inputs: the symbol
probabilities and the seed amplitudes of the default build.  Everything
else is recomputed here by another route than the program's:

- covariances from the closed form ``Var(a) * sum_m 1/(W_m W_{m+lag})`` of
  independent coordinates, not from basis coefficient tables;
- Birkhoff sums and support-probe hits from the same symbol draws,
  regenerated from an own copy of the counter-based stream derivation and
  summed by prefix sums, not by kernel convolution or per-window loops;
- the non-linear CLT variance from amplitude moments;
- conditional norms by direct double sums, power sums by Hurwitz zeta
  values, Hardy norms by ``mpmath.quad``;
- the statistics behind the verdict of every call that draws samples, and
  from them the verdict itself.

Statistical tolerances are six standard errors: a run checks a few hundred
values, and a false alarm on one of them would make the count of failed
calls depend on the seed.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import mpmath
import numpy as np
from numpy.random import Generator, Philox
from scipy import integrate, special, stats

from workloads import flag

_MASK64 = (1 << 64) - 1
N_SE = 6.0


@functools.lru_cache(maxsize=1)
def _measure():
    """Symbol probabilities, amplitude by symbol (index 0 unused), moments."""
    from shiftmix import shift, weights

    chain = weights.build_growth_chain("log", 128)
    w = weights.build_symbol_weights(chain, d_max=3, length=40)
    seeds = shift.canonical_shift(2.0, 2.0, depth=1, chain=chain).seed_values
    p = np.asarray(w.p, dtype=float)
    amp = np.concatenate([[0.0], seeds[: len(p)]])
    m = {k: math.fsum((p * amp[1:] ** k).tolist()) for k in (1, 2, 3, 4)}
    return p, amp, m


def _var_a() -> float:
    _, _, m = _measure()
    return m[2] - m[1] ** 2


def _substream(stream: int, i: int) -> int:
    """Stream of the i-th substream: splitmix64 of a per-stream counter."""
    x = (stream * 0x100000001B3 + i + 1) & _MASK64
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _row_amplitudes(seed: int, stream: int, cols: int) -> np.ndarray:
    """Amplitudes of the one-row symbol draw the program makes on (seed, stream)."""
    p, amp, _ = _measure()
    key = np.array([seed & _MASK64, _substream(stream, 0) & _MASK64], dtype=np.uint64)
    u = Generator(Philox(key=key)).random(cols)
    return amp[np.searchsorted(np.cumsum(p)[:-1], u, side="right") + 1]


def _inv_w(alpha: float, depth: int) -> np.ndarray:
    m = np.arange(depth + 1, dtype=float)
    m[0] = 1.0
    return m**-alpha


def _alpha(argv) -> float:
    return float(flag(argv, "--alpha", "2"))


def _model_depth(argv) -> int:
    """Truncation of the model a sampling call realizes windows on (CLI default 256)."""
    return int(flag(argv, "--depth", "256"))


def _lag_cov(inv_w: np.ndarray, lag: int) -> float:
    return _var_a() * float(np.dot(inv_w[: len(inv_w) - lag], inv_w[lag:]))


def _read(out: str) -> tuple[dict, list[list[float]]]:
    report = json.loads((Path(out) / "report.json").read_text())
    lines = (Path(out) / "data.csv").read_text().splitlines()[2:]
    rows = [[_number(x) for x in ln.split(",")] for ln in lines]
    return report, rows


def _number(text: str):
    try:
        return float(text) if text else math.nan
    except ValueError:
        return text


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= rtol * abs(want) + atol


def _fit_slope(x, y) -> float:
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(np.abs(y)), 1)[0])


def _below(value: float, limit: float, rel: float = 1e-6) -> bool | None:
    """Whether value < limit, or None when the two are too close to call."""
    if abs(value - limit) <= rel * abs(limit):
        return None
    return bool(value < limit)


def _all(conds) -> bool | None:
    """Conjunction of verdict parts, None if it hangs on an undecided one."""
    conds = list(conds)
    if any(c is False for c in conds):
        return False
    return None if any(c is None for c in conds) else True


# ---------------------------------------------------------------------------
# one checker per experiment; each returns its problems and the verdict it
# recomputes (None where it recomputes none, or cannot call it)


def _cov_decay(argv, report, rows) -> tuple[list[str], bool | None]:
    alpha = _alpha(argv)
    mc = "--mc" in argv
    depth = _model_depth(argv) if mc else int(flag(argv, "--depth", str(2**20)))
    inv_w = _inv_w(alpha, depth)
    lags = [int(r[0]) for r in rows]
    closed = np.array([_lag_cov(inv_w, lag) for lag in lags])
    bad = []
    for r, c in zip(rows, closed):
        if not _close(r[3], c, 1e-9):
            bad.append(f"lag {int(r[0])}: exact {r[3]!r} vs closed form {c!r}")
        if mc and not abs(r[1] - c) <= N_SE * r[2]:
            bad.append(f"lag {int(r[0])}: mc {r[1]!r} off closed form {c!r} by more than {N_SE} se ({r[2]!r})")
    res = report["results"]
    if alpha == 1.0:
        ratio = closed * np.array(lags) / np.log(np.array(lags) + 1.0)
        if not _close(res["band_factor"], ratio.max() / ratio.min(), 1e-9) or ratio.max() / ratio.min() > 2.0:
            bad.append(f"band factor {res['band_factor']!r} vs closed form {ratio.max() / ratio.min()!r} (limit 2)")
    else:
        slope = _fit_slope(lags, closed)
        expected = -alpha if alpha > 1.0 else 1.0 - 2.0 * alpha
        if not _close(res["slope"], slope, 1e-9, 1e-12) or abs(slope - expected) > (0.2 if mc else 0.1):
            bad.append(f"slope {res['slope']!r} vs closed-form fit {slope!r}, expected {expected}")
    if not mc:
        return bad, None
    # the regime part holds (else it is a problem above); the rest of the
    # verdict is every MC value within 3 SE of the exact one
    within = [_below(abs(r[1] - c), 3.0 * r[2]) for r, c in zip(rows, closed)]
    verdict = _all(within)
    if verdict is not None and res.get("mc_exact_within_3se") is not verdict:
        bad.append(f"mc_exact_within_3se {res.get('mc_exact_within_3se')!r}, recomputed {verdict}")
    return bad, verdict


def _sample_variance_check(values: np.ndarray, sigma2: float) -> list[str]:
    R = len(values)
    s2 = float(values.var(ddof=1))
    z = (values - values.mean()) / math.sqrt(s2)
    kurt = max(float(np.mean(z**4)) - 3.0, 0.0)
    rel_se = math.sqrt(2.0 / (R - 1) + kurt / R)
    if abs(s2 / sigma2 - 1.0) > N_SE * rel_se:
        return [f"sample variance {s2!r} vs closed form {sigma2!r} beyond {N_SE} se"]
    return []


def _clt(argv, report, rows) -> tuple[list[str], bool | None]:
    N, R, seed = int(flag(argv, "--N")), int(flag(argv, "--R")), int(flag(argv, "--seed"))
    functional = flag(argv, "--functional", "ones")
    _, _, m = _measure()
    values = np.array([r[1] for r in rows])
    if len(values) != R:
        return [f"{len(values)} replicas written, {R} requested"], None
    mine = np.empty(R)
    if functional == "ones":
        inv_w = _inv_w(_alpha(argv), _model_depth(argv))
        D = len(inv_w) - 1
        width = N + D
        mu = m[1] * math.fsum(inv_w.tolist())
        for r in range(R):
            a = _row_amplitudes(seed, _substream(0, r), width)
            c = np.concatenate([[0.0], np.cumsum(a)])
            mm = np.arange(D + 1)
            window = c[width - mm] - c[width - mm - N]  # sum_{p<N} a[width-1-m-p]
            mine[r] = (float(np.dot(window, inv_w)) - N * mu) / math.sqrt(N)
        gamma = np.array([_lag_cov(inv_w, k) for k in range(D + 1)])
        k = np.arange(1, D + 1)
        sigma2 = gamma[0] + 2.0 * float(np.sum((1.0 - k / N) * gamma[1:]))
        # the program's long-run variance: the lag series of the centered
        # functional, summed until a term drops below 1e-12 of the first
        small = np.nonzero(np.abs(gamma[1:]) < 1e-12 * abs(gamma[0]))[0]
        series = float(gamma[0] + 2.0 * np.sum(gamma[1 : 1 + (small[0] if len(small) else D)]))
    elif functional == "mono:(0,0)=1;(0,1)=1":
        mu = m[2] + m[1] ** 2
        for r in range(R):
            a = _row_amplitudes(seed, _substream(0, r), N + 1)
            mine[r] = (float(np.sum(a[1:] ** 2 + a[1:] * a[:-1])) - N * mu) / math.sqrt(N)
        var0 = m[4] + 2.0 * m[3] * m[1] + m[2] ** 2 - mu**2
        cov1 = m[1] * m[3] - m[1] ** 4
        sigma2 = var0 + 2.0 * (1.0 - 1.0 / N) * cov1
        series = None  # the program states no series for non-linear sums
    else:
        return [f"no oracle for functional {functional!r}"], None
    bad = []
    worst = int(np.argmax(np.abs(values - mine)))
    if not abs(values[worst] - mine[worst]) <= 1e-9 * (1.0 + abs(mine[worst])):
        bad.append(f"replica {worst}: Birkhoff sum {values[worst]!r} vs recomputed {mine[worst]!r}")
    verdict_bad, verdict = _clt_verdict(report["results"], mine, series)
    return bad + verdict_bad + _sample_variance_check(values, sigma2), verdict


def _clt_verdict(res: dict, values: np.ndarray, series: float | None) -> tuple[list[str], bool | None]:
    """The CLT verdict's statistics from recomputed replicas, and the verdict.

    The statistics are the KS distance of the standardized sums from the
    standard normal (``scipy.stats.kstest``), skewness and excess kurtosis
    as central moments over the ``ddof=1`` variance, the sample variance
    and the long-run variance series; the limits are the contracted
    ``1.5 * 1.63 / sqrt(R)``, ``4 sqrt(6 / R)`` and ``4 sqrt(24 / R)``.
    """
    R = len(values)
    var = float(values.var(ddof=1))
    if res.get("degenerate") or not var > 0.0:
        return [f"degenerate {res.get('degenerate')!r} with sample variance {var!r}"], None
    z = (values - values.mean()) / math.sqrt(var)
    mine = {
        "ks": float(stats.kstest(z, "norm").statistic),
        "ks_limit": 1.5 * 1.63 / math.sqrt(R),
        "skewness": float(stats.moment(values, 3)) / var**1.5,
        "skew_limit": 4.0 * math.sqrt(6.0 / R),
        "excess_kurtosis": float(stats.moment(values, 4)) / var**2 - 3.0,
        "kurtosis_limit": 4.0 * math.sqrt(24.0 / R),
        "sigma2_hat": var,
        "sigma2_series": series,
    }
    bad = []
    for name, want in mine.items():
        got = res.get(name)
        if want is None or got is None:
            if want is not got:
                bad.append(f"{name} {got!r}, recomputed {want!r}")
        elif not _close(got, want, 1e-7, 1e-9):
            bad.append(f"{name} {got!r}, recomputed {want!r}")
    parts = [
        _below(mine["ks"], mine["ks_limit"]),
        _below(abs(mine["skewness"]), mine["skew_limit"]),
        _below(abs(mine["excess_kurtosis"]), mine["kurtosis_limit"]),
    ]
    if series is not None and series > 0:
        parts.append(_below(abs(var - series), 0.1 * series))
    return bad, _all(parts)


def _support_probe(argv, report, rows) -> tuple[list[str], bool | None]:
    R, seed = int(flag(argv, "--R")), int(flag(argv, "--seed"))
    delta = float(flag(argv, "--delta"))
    _, amp, _ = _measure()
    depth = _model_depth(argv)
    inv_w = _inv_w(_alpha(argv), depth)
    # the runner's targets, as scaled coordinates: the origin, seed 2 at
    # depth 0, and seed 2 at depth 1
    targets = {"zero": [0.0], "seed2": [amp[2]], "seed2-depth1": [0.0, amp[2]]}
    bad, parts = [], []
    empirical = {r[0]: r[1] for r in rows}
    for i, (name, t) in enumerate(targets.items()):
        stream = _substream(0, i)
        z = np.array([_row_amplitudes(seed, _substream(stream, r), depth + 1)[::-1] for r in range(R)])
        z[:, : len(t)] -= t
        norms = np.sqrt(np.sum((z * inv_w) ** 2, axis=1))
        sure, edge = int(np.sum(norms < delta - 1e-12)), int(np.sum(np.abs(norms - delta) <= 1e-12))
        res = report["results"][name]
        hits = res["hits"]
        if not sure <= hits <= sure + edge:
            bad.append(f"{name}: {hits} hits reported, {sure} recounted")
        if not res["empirical"] == empirical.get(name) == hits / R:
            bad.append(f"{name}: empirical {res['empirical']!r} (data.csv {empirical.get(name)!r}), "
                       f"{hits} hits / {R}")
        if not res["analytic"] > 0.0:
            bad.append(f"{name}: analytic lower bound not positive")
        # verdict: every target hit at least once (the analytic part holds,
        # else it is a problem above)
        parts.append(True if sure > 0 else (None if edge else False))
    return bad, _all(parts)


def _mw(argv, report, rows) -> tuple[list[str], None]:
    alpha = _alpha(argv)
    grid = [int(x) for x in flag(argv, "--n-grid").split(",")]
    D = max(grid)
    g = _inv_w(alpha, D)  # the ones functional: depth factor 1 / W_m
    var = _var_a()
    bad = []
    for r in rows:
        n = int(r[0])
        if not _close(r[1], var * g[0] ** 2, 1e-9):
            bad.append(f"n {n}: known_sq {r[1]!r} vs {var * g[0] ** 2!r}")
        if n > 64:
            continue
        # residual: positions j < -n, each carrying (sum_{p<n} g[-(j+p)])^2
        j = np.arange(-D - n, -n)[:, None]
        pos = -(j + np.arange(n)[None, :])
        inner = np.where((pos >= 0) & (pos <= D), g[np.clip(pos, 0, D)], 0.0).sum(axis=1)
        want = var * float(np.sum(inner**2))
        if not _close(r[2], want, 1e-9):
            bad.append(f"n {n}: residual_sq {r[2]!r} vs double sum {want!r}")
    return bad, None


@functools.lru_cache(maxsize=None)
def _power_sum(alpha: float, n: int) -> float:
    """sum_{j>=0} (sum_{p<n} (1+j+p)^-alpha)^2 by Hurwitz zeta differences.

    Terms j < J are summed directly; the tail is the Euler-Maclaurin
    integral plus end corrections of the smooth extension to real j.
    """
    def inner(x):
        return special.zeta(alpha, 1.0 + x) - special.zeta(alpha, 1.0 + x + n)

    J = max(5000, 2 * n)
    j = np.arange(J, dtype=float)
    head = math.fsum((inner(j) ** 2).tolist())
    tail, _ = integrate.quad(lambda x: inner(x) ** 2, J, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    d_inner = -alpha * (special.zeta(alpha + 1.0, 1.0 + J) - special.zeta(alpha + 1.0, 1.0 + J + n))
    return head + tail + inner(J) ** 2 / 2.0 - 2.0 * inner(J) * d_inner / 12.0


def _facts(argv, report, rows) -> tuple[list[str], None]:
    alpha = float(flag(argv, "--alpha"))
    bad = []
    for r in (rows[0], rows[len(rows) // 2], rows[-1]):
        want = _power_sum(alpha, int(r[0]))
        if not _close(r[1], want, 1e-7):
            bad.append(f"n {int(r[0])}: power sum {r[1]!r} vs Hurwitz zeta {want!r}")
    return bad, None


@functools.lru_cache(maxsize=None)
def _h2_norm(p: int, offsets: tuple[int, ...]) -> float:
    mpmath.mp.dps = 20
    def f2(t):
        return sum(1 / (1 + (t + k) ** 2) ** p for k in offsets) ** 2 / (1 + t**2) / mpmath.pi
    pts = sorted({-k for k in offsets} | {0})
    return float(mpmath.sqrt(mpmath.quad(f2, [-mpmath.inf, *pts, mpmath.inf])))


def _halfplane_decay(argv, report, rows) -> tuple[list[str], None]:
    p = int(flag(argv, "--p", "4"))
    bad = []
    for r in (rows[0], rows[len(rows) // 2], rows[-1]):
        k, norm, err = int(r[0]), r[1], r[2]
        want = _h2_norm(p, (k,))
        if not abs(norm - want) <= err + 1e-12 * want:
            bad.append(f"k {k}: h2 norm {norm!r} vs mpmath {want!r} (claimed error {err!r})")
    return bad, None


def _envelope_check(argv, report, rows) -> tuple[list[str], None]:
    bad = []
    for r in rows:
        kmax, lhs, rhs, ratio = int(r[0]), r[1], r[2], r[3]
        want = math.fsum(k**-1.5 for k in range(1, kmax + 1))
        if not _close(rhs, want, 1e-12) or not _close(ratio, lhs / rhs, 1e-12):
            bad.append(f"k_max {kmax}: rhs {rhs!r} vs {want!r}, ratio {ratio!r}")
    kmax, lhs = int(rows[0][0]), rows[0][1]
    want = _h2_norm(int(flag(argv, "--p", "4")), tuple(range(1, kmax + 1)))
    if not _close(lhs, want, 1e-8):
        bad.append(f"k_max {kmax}: translate-sum norm {lhs!r} vs mpmath {want!r}")
    return bad, None


_CHECKS = {
    "cov-decay": _cov_decay,
    "clt": _clt,
    "support-probe": _support_probe,
    "mw": _mw,
    "facts": _facts,
    "halfplane-decay": _halfplane_decay,
    "envelope-check": _envelope_check,
}


def check(op: dict) -> tuple[list[str], bool]:
    """Problems found in one call's outputs, and whether it missed a verdict.

    Exit code 1 means a contracted tolerance failed.  A call that draws
    samples (it takes ``--seed``) runs statistical tests that some seeds
    fail.  There exit code 1 is a verdict miss, counted apart, when the
    checker recomputes the same failing verdict from its own values; it is
    a problem when the recomputed verdict passes or cannot be recomputed.
    Any other non-zero exit, exit 1 of a call that draws nothing, and exit
    code or ``passed`` flag that disagrees with the recomputed verdict are
    problems too.
    """
    argv, rc = op["argv"], op["rc"]
    if rc is None:
        return [f"crashed: {op.get('error', '').strip()}"], False
    if rc == 1 and "--seed" not in argv or rc not in (0, 1):
        return [f"exit code {rc}"], False
    try:
        report, rows = _read(op["out"])
        problems, verdict = _CHECKS[argv[0]](argv, report, rows)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable artifacts: {exc!r}"], False
    if report.get("passed") is not (rc == 0):
        problems.append(f"exit code {rc} with passed {report.get('passed')!r}")
    if verdict is not None and verdict is not report.get("passed"):
        problems.append(f"verdict passed {report.get('passed')!r}, recomputed {verdict}")
    if rc == 1 and verdict is not False:
        problems.append("exit code 1 on a verdict recomputed as passing or too close to call")
    return problems, rc == 1 and not problems
