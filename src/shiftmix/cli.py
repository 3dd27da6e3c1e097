"""Manifest-driven experiment runner.

Each subcommand takes the fields its experiment reads (``_SCHEMAS``) plus
``out``; ``out`` and ``workers`` determine no result byte.  It resolves them
from defaults, then an optional manifest file (flat ``key = value`` lines,
none naming a field the experiment does not read), then explicit flags, and
writes ``report.json`` (summary and pass flags), ``data.csv`` (per-point
numbers) and ``manifest.replay`` (the canonical manifest that reproduces the
run byte for byte).  The exit status is 0 exactly when every contracted
tolerance holds, 1 when one fails, and 2 for an input that cannot be run or
a run that crashes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import basis as basis_mod
from . import halfplane as hp
from . import mixing, observables, sampling, shift, weights

_FIELDS: dict[str, tuple[type, object]] = {
    # name: (type, default)
    "seed": (int, 7),
    "alpha": (float, 2.0),
    "p_exp": (float, 2.0),
    "depth": (int, None),
    "L": (int, 40),
    "d_max": (int, 3),
    "growth": (str, "log"),
    "N": (int, 4096),
    "R": (int, 2000),
    "lags": (str, "16:4096"),
    "exact": (bool, True),
    "functional": (str, "ones"),
    "delta": (float, 0.25),
    "p": (int, 4),
    "k_grid": (str, "8:512"),
    "kmax_list": (str, "16,32,64"),
    "n_grid": (str, "4:4096"),
    "workers": (int, 1),
    "out": (str, "out"),
}


_BOOLS = {w: True for w in ("1", "true", "yes", "on")} | {w: False for w in ("0", "false", "no", "off")}


class ManifestError(ValueError):
    pass


def parse_manifest(path: str) -> dict:
    values = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ManifestError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "experiment":
            if val not in _SCHEMAS:
                raise ManifestError(f"{path}:{lineno}: unknown experiment {val!r}")
            values[key] = val
            continue
        if key not in _FIELDS:
            raise ManifestError(f"{path}:{lineno}: unknown field {key!r}")
        typ, _ = _FIELDS[key]
        try:
            values[key] = _BOOLS[val.lower()] if typ is bool else typ(val)
        except (KeyError, ValueError):
            raise ManifestError(
                f"{path}:{lineno}: field {key!r} expects {typ.__name__}, got {val!r}"
            ) from None
    return values


# execution fields determine no result byte: every subcommand takes ``out``,
# and those that run sample blocks list ``workers`` in their schema
_EXECUTION = ("out", "workers")


def _identity(params: dict) -> dict:
    """The set fields that determine the result: all but unset and execution fields."""
    return {k: v for k, v in params.items() if v is not None and k not in _EXECUTION}


def canonical_manifest(experiment: str, params: dict) -> str:
    lines = [f"experiment = {experiment}"]
    for key, v in sorted(_identity(params).items()):
        lines.append(f"{key} = {v!r}" if isinstance(v, float) else f"{key} = {v}")
    return "\n".join(lines) + "\n"


def _parse_grid(text: str) -> list[int]:
    """Either a comma list or 'lo:hi' doubling from lo to hi; all positive."""
    if ":" in text:
        lo, hi, *extra = (int(x) for x in text.split(":"))
        out = []
        while 0 < lo <= hi and not extra:
            out.append(lo)
            lo *= 2
    else:
        out = [int(x) for x in text.split(",")]
    if not out or min(out) <= 0:
        raise ValueError(f"grid {text!r} needs 'lo:hi' or a comma list of positive points, lo <= hi")
    return out


def _build_weights(params):
    chain = weights.build_growth_chain(params["growth"], 128)
    return chain, weights.build_symbol_weights(chain, d_max=params["d_max"], length=params["L"])


def _build_stack(params, depth: int):
    """Weights and model; ``depth`` is the experiment's default truncation."""
    chain, w = _build_weights(params)
    if params["depth"] is not None:
        depth = params["depth"]
    return w, shift.canonical_shift(params["alpha"], params["p_exp"], depth=depth, chain=chain)


def _pick_functional(name: str, depth: int) -> observables.Observable:
    if name == "ones":
        return observables.linear_functional(np.ones(depth + 1))
    if name == "delta0":
        return observables.linear_functional([1.0])
    return observables.parse_observable(name)


# ---------------------------------------------------------------------------
# experiment bodies: each returns (results, csv columns by header, passed, summary or None)


def _run_weights_check(params):
    chain, w = _build_weights(params)
    schedule = weights.build_block_schedule(params["alpha"], w, chain, levels=w.length)
    report = weights.check_weight_conditions(w, chain, k_max=20, schedule=schedule)
    beta_sq = math.exp(schedule.log_beta_sq_tail(1, w))
    results = {
        "tail_ratio_max": report.tail_domination.constant,
        "sqrt_moment_constant": report.sqrt_moment.constant,
        "moment_constant": report.moment.constant,
        "amplitude_cap_constant": report.amplitude_caps.constant,
        "block_sums": {str(d): v for d, v in report.block_sum.items()},
        "beta_sq_product": beta_sq,
    }
    passed = (
        report.tail_domination.constant <= 0.5
        and report.sqrt_moment.constant <= 4.0
        and report.moment.constant <= 4.0
        and report.amplitude_caps.constant <= 1.0
        and all(v["converged"] for v in report.block_sum.values())
        and beta_sq > 0.5
    )
    fits = (report.sqrt_moment, report.moment)
    columns = {
        "condition": [fit.name for fit in fits for _ in fit.per_k],
        "k": [k for fit in fits for k in range(1, len(fit.per_k) + 1)],
        "constant": np.concatenate([fit.per_k for fit in fits]),
    }
    return results, columns, passed, None


def _run_basis_check(params):
    _, w = _build_weights(params)
    b = basis_mod.build_basis(w)
    gram = b.gram_residual()
    l1 = b.l1_norms()
    sqrt_p = np.sqrt(w.p[: b.l_max])
    ratios = l1 / sqrt_p
    results = {
        "gram_residual": gram,
        "l1_constant": float(ratios.max()),
        "levels": b.l_max,
    }
    passed = gram < 1e-10 and float(ratios.max()) <= 4.0
    columns = {"l": range(1, b.l_max + 1), "l1_norm": l1, "sqrt_p": sqrt_p}
    return results, columns, passed, f"max |Gram - I| = {gram:.3e}"


def _expected_slope(alpha: float) -> float | None:
    if alpha > 1.0:
        return -alpha
    if alpha < 1.0:
        return 1.0 - 2.0 * alpha
    return None


def _run_cov_decay(params):
    alpha = params["alpha"]
    lags = _parse_grid(params["lags"])
    w, model = _build_stack(params, 1_048_576 if params["exact"] else 256)
    obs = _pick_functional(params["functional"], model.depth)
    if params["exact"]:
        # half-dyadic grid through the lag range for a stable fit
        grid, v = [], float(lags[0])
        while int(round(v)) <= lags[-1]:
            g = int(round(v))
            if not grid or g > grid[-1]:
                grid.append(g)
            v *= math.sqrt(2.0)
        report = mixing.exact_decay_curve(model, w, obs, obs, np.array(grid))
    else:
        report = mixing.empirical_covariance(
            model, w, obs, obs, np.array(lags), n_samples=params["R"],
            depth=model.depth, state=sampling.SamplerState(params["seed"]),
            workers=params["workers"],
        )
    results: dict = {"alpha": alpha, "lags": [int(x) for x in report.lags]}
    expected = _expected_slope(alpha)
    passed = True
    if expected is not None:
        fit = mixing.decay_exponent_fit(report)
        tol = 0.1 if params["exact"] else 0.2
        results.update(
            {
                "slope": fit.slope,
                "slope_ci": fit.ci,
                "expected_slope": expected,
                "slope_source": "exact" if report.exact is not None else "mc",
            }
        )
        if report.exact is not None and report.mc is not None:
            # a sampled fit is only meaningful on lags above the noise floor
            mc_only = dataclasses.replace(report, exact=None)
            try:
                results["slope_mc"] = mixing.decay_exponent_fit(mc_only).slope
            except ValueError as exc:
                results["slope_mc"] = None
                results["slope_mc_note"] = str(exc)
        passed = abs(fit.slope - expected) <= tol
        summary = f"fitted slope {fit.slope:.4f} +/- {fit.ci:.4f} (expected {expected:+.2f})"
    else:
        lo, hi = mixing.log_lag_ratio_band(report)
        results.update({"ratio_band": [lo, hi], "band_factor": hi / lo})
        passed = hi / lo <= 2.0
        summary = f"cov*n/log(n+1) band [{lo:.4g}, {hi:.4g}] factor {hi/lo:.3f}"
    if report.mc is not None and report.exact is not None:
        agree = np.all(np.abs(report.mc - report.exact) <= 3.0 * report.se)
        results["mc_exact_within_3se"] = bool(agree)
        passed = passed and bool(agree)
    columns = {"lag": report.lags, "cov": report.mc, "se": report.se, "exact": report.exact}
    return results, columns, passed, summary


def _run_clt(params):
    w, model = _build_stack(params, 256)
    obs = _pick_functional(params["functional"], model.depth)
    report = mixing.clt_experiment(
        model, w, obs, n_steps=params["N"], replicas=params["R"],
        state=sampling.SamplerState(params["seed"]),
        workers=params["workers"],
    )
    results = {
        "ks": report.ks_distance,
        "ks_limit": report.ks_limit,
        "skewness": report.skewness,
        "skew_limit": report.skew_limit,
        "excess_kurtosis": report.excess_kurtosis,
        "kurtosis_limit": report.kurtosis_limit,
        "sigma2_hat": report.sigma2_hat,
        "sigma2_series": report.sigma2_series,
        "degenerate": report.degenerate,
    }
    summary = (
        f"KS {report.ks_distance:.4f} (limit {report.ks_limit:.4f}); "
        f"skew {report.skewness:+.4f}; exkurt {report.excess_kurtosis:+.4f}; "
        f"sigma2 {report.sigma2_hat:.5g} vs series {report.sigma2_series}"
    )
    columns = {"replica": range(len(report.samples)), "value": report.samples}
    return results, columns, report.passed, summary


def _run_mw(params):
    grid = _parse_grid(params["n_grid"])
    if len(grid) < 2:
        raise ValueError("mw needs at least two n-grid points")
    w, model = _build_stack(params, max(grid))  # no saturation below the horizon
    b = basis_mod.build_basis(w)
    table = mixing.linear_fourier_table(model, b, np.ones(model.depth + 1))
    diag = mixing.conditional_norm_diagnostics(table, np.array(grid))
    tail = max(2, len(grid) // 2)
    known_ratios = diag.cauchy_ratios("known")[-tail:]
    resid_ratios = diag.cauchy_ratios("residual")[-tail:]
    env = np.maximum(
        diag.n_grid.astype(float) ** (3.0 - 2.0 * model.alpha), np.log(diag.n_grid + 1.0)
    )
    c_fit = diag.residual_sq / env
    peak_early = int(np.argmax(c_fit)) < len(grid) - max(1, len(grid) // 4)
    tail_spread = float(c_fit[-tail:].max() / c_fit[-tail:].min())
    results = {
        "n_grid": [int(n) for n in diag.n_grid],
        "known_cauchy_min_ratio": float(np.min(known_ratios)),
        "residual_cauchy_min_ratio": float(np.min(resid_ratios)),
        "envelope_constant_peak_early": peak_early,
        "envelope_constant_tail_spread": tail_spread,
    }
    passed = (
        float(np.min(known_ratios)) >= 1.5
        and float(np.min(resid_ratios)) >= 1.5
        and peak_early
        and tail_spread < 2.0
    )
    columns = {
        "n": diag.n_grid, "known_sq": diag.known_sq, "residual_sq": diag.residual_sq,
        "known_summand": diag.known_summand, "residual_summand": diag.residual_summand,
        "known_partial": diag.known_partial, "residual_partial": diag.residual_partial,
    }
    return results, columns, passed, None


def _run_facts(params):
    alpha = params["alpha"]
    grid = _parse_grid(params["n_grid"])
    fc = mixing.window_tail_constants(alpha, grid)
    f2 = [(n, *mixing.fact2_bruteforce(alpha, n)) for n in range(1, 9)]
    results = {
        "stated_spread": fc.stated_spread(),
        "regime_spread": fc.regime_spread(),
        "sup_attained_early": fc.sup_attained_early(),
        "fact2_ok": all(l <= r for _, l, r in f2),
    }
    passed = fc.regime_spread() < 2.0 and results["fact2_ok"]
    columns = {"n": fc.n_grid, "lhs": fc.lhs, "c_stated": fc.c_stated, "c_regime": fc.c_regime}
    return results, columns, passed, None


def _run_halfplane_decay(params):
    grid = _parse_grid(params["k_grid"])
    fit = hp.translation_decay_fit(params["p"], grid)
    results = {
        "exponent": fit.exponent,
        "guaranteed": fit.guaranteed,
    }
    passed = 0.9 <= fit.exponent <= 1.1 and fit.exponent >= fit.guaranteed
    columns = {"k": fit.ks, "norm": fit.norms, "error_estimate": fit.errors}
    summary = f"fitted decay exponent {fit.exponent:.4f} (guaranteed {fit.guaranteed:.4f})"
    return results, columns, passed, summary


def _run_envelope_check(params):
    kmaxes = _parse_grid(params["kmax_list"])
    checks = [hp.envelope_sum_check(params["p"], np.ones(km), km) for km in kmaxes]
    ratios = [c.ratio for c in checks]
    counts_ok = all(
        hp.partner_count(k, 4 * k) <= 4.0 * k**0.25 for k in range(1, 65)
    )
    results = {
        "ratios": ratios,
        "ratio_spread": max(ratios) / min(ratios),
        "neighbor_counts_ok": counts_ok,
    }
    passed = max(ratios) / min(ratios) <= 1.5 and counts_ok
    columns = {
        "k_max": kmaxes,
        "lhs": [c.lhs for c in checks],
        "rhs": [c.rhs for c in checks],
        "ratio": ratios,
    }
    return results, columns, passed, None


def _run_support_probe(params):
    w, model = _build_stack(params, 256)
    targets = [
        ("zero", shift.LpVector(scaled=np.zeros(1), model=model)),
        ("seed2", shift.apply_section(model, 2, 0)),
        ("seed2-depth1", shift.apply_section(model, 2, 1)),
    ]
    state = sampling.SamplerState(params["seed"])
    columns = {"target": [name for name, _ in targets], "empirical": [], "analytic": []}
    results, passed = {}, True
    for i, (name, target) in enumerate(targets):
        rep = sampling.support_probe(
            model, w, target, params["delta"], params["R"], state.substream(i), params["workers"]
        )
        columns["empirical"].append(rep.empirical)
        columns["analytic"].append(rep.analytic_lower_bound)
        results[name] = {
            "empirical": rep.empirical,
            "analytic": rep.analytic_lower_bound,
            "hits": rep.hits,
        }
        passed = passed and rep.empirical > 0 and rep.analytic_lower_bound > 0
    return results, columns, passed, None


_STACK = ("growth", "d_max", "L", "alpha", "p_exp", "depth")

# experiment -> (runner, the fields it reads): the only per-experiment
# parameter list; a runner gets these fields plus ``out``
_SCHEMAS = {
    "weights-check": (_run_weights_check, ("growth", "d_max", "L", "alpha")),
    "basis-check": (_run_basis_check, ("growth", "d_max", "L")),
    "cov-decay": (_run_cov_decay, (*_STACK, "lags", "exact", "functional", "R", "seed", "workers")),
    "clt": (_run_clt, (*_STACK, "functional", "N", "R", "seed", "workers")),
    "mw": (_run_mw, (*_STACK, "n_grid")),
    "facts": (_run_facts, ("alpha", "n_grid")),
    "halfplane-decay": (_run_halfplane_decay, ("p", "k_grid")),
    "envelope-check": (_run_envelope_check, ("p", "kmax_list")),
    "support-probe": (_run_support_probe, (*_STACK, "delta", "R", "seed", "workers")),
}


def _cell(v) -> str:
    """One data.csv field: strings and integers as they are, other numbers as
    the repr of a Python float."""
    return str(v) if isinstance(v, (str, int, np.integer)) else repr(float(v))


def _csv_text(digest: str, columns: dict) -> str:
    """The manifest hash, the header and one row per index of the columns; a
    column given as None is written as empty fields."""
    n = max((len(c) for c in columns.values() if c is not None), default=0)
    cells = [[""] * n if c is None else [_cell(v) for v in c] for c in columns.values()]
    rows = (",".join(row) for row in zip(*cells))
    return "\n".join([f"# manifest_hash={digest}", ",".join(columns), *rows]) + "\n"


def _write_artifact(path: Path, text: str) -> None:
    """Write ``text`` over ``path`` in place, then cut the file to its length.

    Unlike ``write_text``, this never truncates a file that holds data to
    zero length, which makes ext4 flush it on close (``auto_da_alloc``): a
    re-run into the same ``--out`` paid tens of ms per artifact for that.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
        f.write(text)
        f.truncate()


def run_experiment(experiment: str, params: dict) -> int:
    replay = canonical_manifest(experiment, params)
    digest = hashlib.sha256(replay.encode()).hexdigest()
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    results, columns, passed, summary = _SCHEMAS[experiment][0](params)

    _write_artifact(out / "manifest.replay", replay)
    report = {
        "experiment": experiment,
        "manifest_hash": digest,
        "params": _identity(params),
        "results": results,
        "passed": passed,
    }
    _write_artifact(out / "report.json", json.dumps(report, sort_keys=True, indent=2) + "\n")
    _write_artifact(out / "data.csv", _csv_text(digest, columns))
    verdict = f"{experiment}: {'PASS' if passed else 'FAIL'} -> {out}"
    try:
        print(*filter(None, (summary, verdict)), sep="\n", flush=True)
    except BrokenPipeError:
        # a reader that went away changes no artifact and no exit code; stdout
        # now points at devnull, so the interpreter's last flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shiftmix", description="deterministic mixing and CLT experiments"
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, fields) in _SCHEMAS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--manifest", default=None)
        for field in (*fields, "out"):
            typ = _FIELDS[field][0]
            flag = "--" + field.replace("_", "-")
            if typ is bool:  # the one flag pair --exact / --mc
                group = sp.add_mutually_exclusive_group()
                group.add_argument(flag, dest=field, action="store_true", default=None)
                group.add_argument("--mc", dest=field, action="store_false", default=None)
            else:
                sp.add_argument(flag, dest=field, type=typ, default=None)

    args = parser.parse_args(argv)
    accepted = (*_SCHEMAS[args.experiment][1], "out")
    params = {k: _FIELDS[k][1] for k in accepted}
    try:
        if args.manifest:
            loaded = parse_manifest(args.manifest)
            exp = loaded.pop("experiment", args.experiment)
            if exp != args.experiment:
                raise ManifestError(
                    f"manifest experiment {exp!r} does not match subcommand {args.experiment!r}"
                )
            foreign = sorted(set(loaded) - set(accepted))
            if foreign:
                raise ManifestError(f"{args.manifest}: {exp} does not read field {foreign[0]!r}")
            params.update(loaded)
        for field in accepted:
            v = getattr(args, field)
            if v is not None:
                params[field] = v
        return run_experiment(args.experiment, params)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is a defect; exit 1 is kept for a failed tolerance
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
