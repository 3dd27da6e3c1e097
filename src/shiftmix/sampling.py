"""Sampling the product measure on symbol space and the conjugacy map.

A point of symbol space is an integer sequence indexed by a window of Z;
symbols are drawn i.i.d. with the :class:`~shiftmix.weights.SymbolWeights`
distribution.  The conjugacy map sends a window to the vector whose scaled
coordinate m is the seed amplitude of the symbol at window index -m, so the
operator acts on realized vectors as an index shift of the window.

Randomness is counter-based (Philox keyed by ``(seed, stream)``): a draw is
a pure function of seed, stream and position, which makes every experiment
replayable and independent of scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .shift import LpVector, ShiftModel, apply_shift, row_norms
from .weights import SymbolWeights, build_block_schedule

__all__ = [
    "SamplerState",
    "SymbolWindow",
    "sample_window",
    "sample_symbol_matrix",
    "sample_amplitudes",
    "sample_replicas",
    "window_vector",
    "conjugacy_residual",
    "SupportProbeReport",
    "support_probe",
]

_MASK64 = (1 << 64) - 1
_CHUNK = 1024  # rows of a symbol matrix drawn from one substream
_REPLICA_BLOCK = 64  # replicas drawn and reduced together
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class SamplerState:
    """Immutable handle on one random stream.

    Equal (seed, stream) pairs produce identical draw sequences on any
    machine and under any parallel schedule.
    """

    seed: int
    stream: int = 0

    def rng(self) -> Generator:
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return Generator(Philox(key=key))

    def substream(self, i: int) -> "SamplerState":
        return SamplerState(self.seed, _splitmix64((self.stream * 0x100000001B3 + i + 1) & _MASK64))


@dataclass(frozen=True)
class SymbolWindow:
    """Symbols on the integer window [lo, hi]."""

    lo: int
    hi: int
    symbols: np.ndarray  # int array, length hi - lo + 1

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("empty window")
        if len(self.symbols) != self.hi - self.lo + 1:
            raise ValueError("symbol count does not match window length")

    def shifted(self) -> "SymbolWindow":
        """The forward-shift image: index k now reads the old k - 1."""
        return SymbolWindow(self.lo + 1, self.hi + 1, self.symbols)


def _thresholds(w: SymbolWeights) -> np.ndarray:
    return np.cumsum(w.p)[:-1]


def _symbols(thr: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(thr, u, side="right") + 1``, searching only the uniforms
    at or above ``thr[0]``: most give the zero seed, symbol 1."""
    out = np.ones(u.shape, dtype=np.int64)
    rest = u >= thr[0]
    out[rest] = np.searchsorted(thr, u[rest], side="right") + 1
    return out


def sample_window(w: SymbolWeights, lo: int, hi: int, state: SamplerState) -> SymbolWindow:
    """Draw one i.i.d. window; the same state always yields the same window."""
    if hi < lo:
        raise ValueError("need lo <= hi")
    return SymbolWindow(lo, hi, _symbols(_thresholds(w), state.rng().random(hi - lo + 1)))


def sample_symbol_matrix(w: SymbolWeights, rows: int, cols: int, state: SamplerState) -> np.ndarray:
    """Rows of i.i.d. symbols, one stream per fixed-size chunk of rows.

    The chunk size is a constant of the algorithm, not of the executor, so
    results are byte-identical however the work is scheduled.
    """
    thr = _thresholds(w)
    out = np.empty((rows, cols), dtype=np.int64)
    for start in range(0, rows, _CHUNK):
        stop = min(start + _CHUNK, rows)
        rng = state.substream(start // _CHUNK).rng()
        out[start:stop] = _symbols(thr, rng.random((stop - start, cols)))
    return out


def sample_amplitudes(model: ShiftModel, w: SymbolWeights, rows: int, cols: int, state: SamplerState) -> np.ndarray:
    """``model.amplitudes(sample_symbol_matrix(w, rows, cols, state))``, bit
    for bit, with no symbol matrix: each chunk draws the same uniforms and
    searches only those at or above ``thr[0]``; the rest give the zero seed,
    whose amplitude is +0."""
    thr = _thresholds(w)
    out = np.zeros(rows * cols)
    for start in range(0, rows, _CHUNK):
        stop = min(start + _CHUNK, rows)
        u = state.substream(start // _CHUNK).rng().random((stop - start) * cols)
        pos = np.flatnonzero(u >= thr[0])
        out[start * cols + pos] = model.amplitudes(np.searchsorted(thr, u[pos], side="right") + 1)
    return out.reshape(rows, cols)


def sample_replicas(w: SymbolWeights, cols: int, state: SamplerState, start: int, stop: int) -> np.ndarray:
    """Symbol rows of replicas ``start .. stop - 1``: replica r reads the
    one-row matrix of ``state.substream(r)``, whichever block draws it."""
    thr = _thresholds(w)
    out = np.empty((stop - start, cols), dtype=np.int64)
    for i in range(stop - start):
        out[i] = _symbols(thr, state.substream(start + i).substream(0).rng().random(cols))
    return out


def _run_blocks(n_total: int, block: int, fn, workers: int) -> None:
    """Run fn(start, stop) over fixed-size blocks, possibly on threads.

    Blocks are a constant of the algorithm and every block writes disjoint
    preassigned slices, so results do not depend on the worker count.
    """
    starts = list(range(0, n_total, block))
    if workers <= 1:
        for s in starts:
            fn(s, min(s + block, n_total))
        return
    with ThreadPoolExecutor(max_workers=workers) as ex:
        list(ex.map(lambda s: fn(s, min(s + block, n_total)), starts))


def window_vector(model: ShiftModel, win: SymbolWindow) -> LpVector:
    """Realize a window as a vector: scaled coordinate m = seed(symbol at -m).

    The window must cover index 0.  Coordinates deeper than the window or
    the model truncation are dropped.
    """
    if win.lo > 0 or win.hi < 0:
        raise ValueError("window must cover index 0")
    if int(win.symbols.max()) > model.n_seeds:
        raise ValueError("window contains symbols beyond the seed family")
    depth = min(-win.lo, model.depth)
    idx0 = -win.lo  # array position of window index 0
    z = model.symbol_alpha[win.symbols[idx0 - depth : idx0 + 1][::-1]]
    return LpVector(scaled=z, model=model)


def conjugacy_residual(model: ShiftModel, win: SymbolWindow) -> float:
    """Norm of (operator o realize - realize o shift) on one window.

    Zero exactly when the window depth fits the truncation; with a deeper
    window the residual is positive, because the shifted realization keeps
    one coordinate the operator image has already truncated away.
    """
    if win.hi < 1:
        raise ValueError("window must cover index 1")
    v1 = apply_shift(model, window_vector(model, win), 1)
    v2 = window_vector(model, win.shifted())
    diff = np.zeros(max(len(v1.scaled), len(v2.scaled)))
    diff[: len(v1.scaled)] += v1.scaled
    diff[: len(v2.scaled)] -= v2.scaled
    return LpVector(scaled=diff, model=model).norm()


@dataclass(frozen=True)
class SupportProbeReport:
    empirical: float
    hits: int
    analytic_lower_bound: float


def support_probe(
    model: ShiftModel,
    w: SymbolWeights,
    target: LpVector,
    delta: float,
    samples: int,
    state: SamplerState,
    workers: int = 1,
) -> SupportProbeReport:
    """Estimate the measure of a delta-ball and certify it is positive.

    The analytic lower bound follows the full-support argument: prescribe
    the matching symbol at every coordinate of the target's support and the
    zero seed elsewhere inside a window wide enough that residual tails
    stay below delta, then multiply the prescribed symbol masses by the
    truncated beta-square product of the block schedule.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    if samples < 1:
        raise ValueError("need at least one sample")

    # match target coordinates to seed indices, exactly
    support: dict[int, int] = {}
    for m, z in enumerate(target.scaled):
        if z == 0.0:
            continue
        hits = np.nonzero(model.seed_values == z)[0]
        if len(hits) == 0:
            raise ValueError(
                f"target coordinate {m} (scaled {z!r}) is not on the seed grid"
            )
        support[m] = int(hits[0]) + 1

    max_depth = max(support) if support else 0
    level = 1
    while 2.0**-level >= delta:
        level += 1
    schedule = build_block_schedule(model.alpha, w, model.chain, levels=max(level + 12, 16))
    while level < len(schedule.bounds) and schedule.bounds[level - 1] <= max_depth:
        level += 1
    if schedule.bounds[level - 1] <= max_depth:
        raise ValueError("target support too deep for the schedule range")
    half = int(schedule.bounds[level - 1])

    # prescribed configuration on [-half, half]: matching symbol on the
    # support (window index -m), zero seed (symbol 1) everywhere else
    log_bound = (2 * half + 1 - len(support)) * float(w.log_p[0])
    for m, sym in support.items():
        if sym > w.length:
            raise ValueError("target needs a symbol beyond the weight truncation")
        log_bound += float(w.log_p[sym - 1])
    log_bound += schedule.log_beta_sq_tail(level, w)
    analytic = math.exp(log_bound)

    # each sample keeps its own stream; distances are taken a block at a time
    depth = model.depth
    b = np.zeros(depth + 1)
    b[: len(target.scaled)] = target.scaled
    hit = np.empty(samples, dtype=bool)

    def block(start: int, stop: int) -> None:
        syms = sample_replicas(w, depth + 1, state, start, stop)
        hit[start:stop] = row_norms(model, model.amplitudes(syms[:, ::-1]) - b) < delta

    _run_blocks(samples, _REPLICA_BLOCK, block, workers)
    hits_n = int(np.count_nonzero(hit))
    return SupportProbeReport(
        empirical=hits_n / samples,
        hits=hits_n,
        analytic_lower_bound=analytic,
    )
