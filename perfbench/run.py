"""Benchmark of shiftmix: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload mc-covariance --seed 1 --seconds 22 --trace 0

Run it from the root of a checkout; it imports ``shiftmix`` from ``src/`` of
that checkout and from nowhere else.  Every process it starts gets one BLAS
thread, and every experiment runs at ``--workers 1``, one after another:
a closed loop with one compute thread, which two shared cores can keep
steady.

With ``--trace 0`` it times the set-up in five fresh processes, then runs
one session (see ``session.py``) in another fresh process, checks every
call's artifacts against ``oracles.py``, and prints the end-to-end
metrics.  With ``--trace 1`` the session alternates untraced and traced
rounds, and the per-layer metrics are printed instead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Artifacts and spans go to ``.perfbench-out/`` at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from session import LAYERS
from workloads import STACK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# time of session.calibration_s on the reference machine (see README); every
# round time is reported as measured x CAL_REFERENCE_S / calibration time
CAL_REFERENCE_S = 0.030
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def _session(*args: str) -> dict:
    """Run session.py in a fresh process and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "session.py"), *args],
        env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"session.py {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def _scale(timed: dict) -> float:
    """Factor that puts a round's or a set-up probe's times on the calibrated clock."""
    return CAL_REFERENCE_S / timed["calibration_s"]


def _layer_metrics(res: dict) -> dict[str, tuple[float, str]]:
    """Per-layer medians over the traced rounds, and the tracing overhead."""
    rounds = [r for r in res["rounds"] if r["traced"]]
    per = [(res["layers"].get(str(r["k"]), {}), _scale(r)) for r in rounds]
    zero = {"calls": 0, "self_s": 0.0, "count": 0}
    out: dict[str, tuple[float, str]] = {}
    for mod, name, _ in LAYERS:
        key = f"{mod}.{name}"
        vals = [(p.get(key, zero), f) for p, f in per]
        out[f"{key}.calls"] = (_median(v["calls"] for v, _ in vals), "count")
        out[f"{key}.self_s"] = (_median(v["self_s"] * f for v, f in vals), "s")
        if key == "sampling.sample_symbol_matrix":
            out[f"{key}.symbols"] = (_median(v["count"] for v, _ in vals), "count")
            out[f"{key}.symbols_per_s"] = (
                _median(v["count"] / (v["self_s"] * f) if v["self_s"] > 0 else 0.0 for v, f in vals), "1/s")
            # computed, not measured: one float64 uniform and one int64 symbol each
            out[f"{key}.bytes_computed"] = (_median(16 * v["count"] for v, _ in vals), "B")
        if key == "mixing._lag_values":
            out[f"{key}.values"] = (_median(v["count"] for v, _ in vals), "count")
    traced = _median(r["wall_s"] * _scale(r) for r in rounds)
    untraced = _median(r["wall_s"] * _scale(r) for r in res["rounds"] if not r["traced"])
    out["trace.wall_s"] = (traced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    out["calibration_s"] = (_median(r["calibration_s"] for r in res["rounds"]), "s")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(STACK))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "shiftmix" / "__init__.py").is_file():
        print(f"error: no shiftmix source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench-out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    probes = [] if args.trace else [_session("setup", args.workload) for _ in range(SETUP_PROBES)]
    res = _session("run", args.workload, str(args.seed), str(args.seconds),
                   str(args.trace), str(out))

    # the checks need numpy and shiftmix in this process too
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))
    import oracles

    attempted = failed = misses = 0
    for rnd in res["rounds"]:
        for op in rnd["ops"]:
            problems, missed = oracles.check(op)
            attempted += 1
            misses += missed
            op["ok"] = not problems
            if problems:
                failed += 1
                print(f"FAILED {' '.join(op['argv'])}: {'; '.join(problems)}")

    untraced = [r for r in res["rounds"] if not r["traced"]]
    if args.trace:
        metrics = _layer_metrics(res)
        metrics["verdicts.missed"] = (misses, "count")
        if res["absent"]:
            print(f"absent entry points (calls and self_s read 0): {', '.join(res['absent'])}")
    else:
        metrics = {
            "wall_s": (_median(r["wall_s"] * _scale(r) for r in untraced), "s"),
            # a call that failed its checks did no work that counts
            "items_per_s": (_median(
                sum(op["items"] for op in r["ops"] if op["ok"]) / (r["wall_s"] * _scale(r))
                for r in untraced), "1/s"),
            "setup_s": (_median(p["setup_s"] * _scale(p) for p in probes), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    print(f"{args.workload} seed {args.seed}: {len(res['rounds'])} rounds, "
          f"{attempted} calls, {failed} failed, {misses} statistical verdict misses; "
          f"unscaled median round {_median(r['wall_s'] for r in untraced):.4f} s, "
          f"median calibration {_median(r['calibration_s'] for r in res['rounds']):.5f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
