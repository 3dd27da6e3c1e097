"""The three benchmark workloads: what one round of each runs.

A round is one user's session: a fixed list of ``shiftmix`` CLI calls.
Round ``k`` of a run with seed ``s`` draws its parameters from a generator
keyed by ``(workload, s, k)``, so the same seed always gives the same calls,
and no two rounds of a run repeat a call (a cache of repeated inputs could
otherwise fake a gain).  Parameter ranges stay inside the regimes where
every deterministic verdict holds, and the cost of a round hardly depends
on the draw: grids keep their length, and their largest point moves by at
most 2 % (see ``_grid``).
"""

from __future__ import annotations

import random

# workload -> (alpha, depth) of the model its set-up builds, besides the
# default growth chain, symbol weights and basis; why each workload exists
# is in README.md and BENCHMARK.json
STACK = {
    "mc-covariance": (2.0, 256),
    "window-paths": (2.0, 256),
    "exact-oracles": (2.0, 2**20),
}

MC_R, MC_LAGS = 100_000, "1:256"
CLT_N, CLT_R = 4096, 2000
NL_FUNCTIONAL, NL_N, NL_R = "mono:(0,0)=1;(0,1)=1", 1024, 100
PROBE_R, PROBE_DELTA = 2000, 0.25


def _grid(rng: random.Random, lo: int, points: int) -> str:
    """Comma grid near lo * 2^i on which every point moves.

    The first point moves by up to 25 %, inner points by up to 10 %, and the
    last, which sets most of the cost of the call, by up to 2 % or 3 units,
    so that the cost of a call hardly depends on the draw.
    """
    top = lo * 2 ** (points - 1)
    spread = max(3, round(0.02 * top))
    out = [rng.randint(round(0.75 * lo), round(1.25 * lo))]
    for i in range(1, points - 1):
        v = round(lo * 2**i * rng.uniform(0.9, 1.1))
        out.append(max(v, out[-1] + 1))
    out.append(max(rng.randint(top - spread, top + spread), out[-1] + 1))
    return ",".join(map(str, out))


def _depth(rng: random.Random) -> str:
    return str(2**20 - rng.randrange(4096))


def round_ops(workload: str, seed: int, k: int) -> list[list[str]]:
    """CLI argument lists of round ``k`` (``--out`` is added by the caller)."""
    rng = random.Random(f"{workload}/{seed}/{k}")

    def exp_seed() -> str:
        return str(rng.randrange(1, 2**31))

    if workload == "mc-covariance":
        return [["cov-decay", "--alpha", "2", "--mc", "--R", str(MC_R),
                 "--lags", MC_LAGS, "--seed", exp_seed()]]
    if workload == "window-paths":
        return [
            ["clt", "--N", str(CLT_N), "--R", str(CLT_R), "--seed", exp_seed()],
            ["clt", "--functional", NL_FUNCTIONAL, "--N", str(NL_N), "--R", str(NL_R),
             "--seed", exp_seed()],
            ["support-probe", "--delta", str(PROBE_DELTA), "--R", str(PROBE_R),
             "--seed", exp_seed()],
        ]
    if workload == "exact-oracles":
        return [
            ["cov-decay", "--exact", "--alpha", f"{rng.uniform(0.70, 0.80):.6f}", "--depth", _depth(rng)],
            ["cov-decay", "--exact", "--alpha", "1", "--depth", _depth(rng)],
            ["cov-decay", "--exact", "--alpha", f"{rng.uniform(1.8, 2.2):.6f}", "--depth", _depth(rng)],
            ["mw", "--alpha", f"{rng.uniform(1.8, 2.2):.6f}", "--n-grid", _grid(rng, 4, 11)],
            ["facts", "--alpha", "1.5", "--n-grid", _grid(rng, 4, 11)],
            ["facts", "--alpha", f"{rng.uniform(1.9, 2.2):.6f}", "--n-grid", _grid(rng, 4, 11)],
            ["halfplane-decay", "--p", "4", "--k-grid", _grid(rng, 8, 7)],
            ["envelope-check", "--kmax-list", _grid(rng, 16, 3)],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def items(workload: str, argv: list[str], data_rows: int) -> int:
    """Units of work one call does.

    mc-covariance: observable values, R x (lags + 1).  window-paths:
    Birkhoff steps, N x R, and realized windows, R per support-probe
    target.  exact-oracles: one per oracle evaluation, that is one row of
    ``data.csv`` (a covariance lag, a grid point or a quadrature).
    """
    if workload == "exact-oracles":
        return data_rows
    R = int(flag(argv, "--R"))
    if argv[0] == "cov-decay":
        return R * (data_rows + 1)
    if argv[0] == "clt":
        return int(flag(argv, "--N")) * R
    if argv[0] == "support-probe":
        return R * data_rows
    raise ValueError(f"no item count for {argv[0]!r}")


def flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    """Value that follows ``name`` in a CLI argument list."""
    return argv[argv.index(name) + 1] if name in argv else default
