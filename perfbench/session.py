"""Fresh-process half of the benchmark; ``run.py`` starts it.

    python3 perfbench/session.py setup WORKLOAD
    python3 perfbench/session.py run WORKLOAD SEED SECONDS TRACE OUT_DIR

``setup`` times ``import shiftmix`` plus building the workload's growth
chain, symbol weights, shift model and basis, then the calibration kernel,
and prints ``{"setup_s": t, "calibration_s": c}``.

``run`` is one user's session: an untimed warm-up round, then whole rounds
until SECONDS of rounds have been measured, each calling
``shiftmix.cli.main`` in-process, one call after another.  It prints one
JSON object with every call's exit code and item count, each round's wall
time and calibration time, and the process's peak resident memory.  With
TRACE 1 the rounds alternate untraced and traced; a traced round runs with
every layer entry point of ``LAYERS`` wrapped, and the spans of all traced
rounds are written once, at the end, to ``OUT_DIR/spans.npz``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path

import workloads

# (module, entry point, counts its result's size): the layers the traced
# rounds time, named by the module that defines them
LAYERS = (
    ("sampling", "sample_symbol_matrix", True),
    ("mixing", "_lag_values", True),
    ("sampling", "window_vector", False),
    ("observables", "evaluate", False),
    ("mixing", "empirical_covariance", False),
    ("mixing", "clt_experiment", False),
    ("sampling", "support_probe", False),
    ("fourier", "exact_covariance", False),
    ("fourier", "linear_fourier_table", False),
    ("mixing", "conditional_norm_diagnostics", False),
    ("mixing", "window_tail_constants", False),
    ("halfplane", "h2_norm", False),
    ("weights", "build_symbol_weights", False),
    ("basis", "build_basis", False),
    ("shift", "canonical_shift", False),
    ("cli", "run_experiment", False),
)


class Tracer:
    """Spans around the layer entry points, kept in memory.

    A span records its layer, its parent span (the innermost wrapped call
    it ran in, or -1), its round, start and end, its self time (duration
    minus the durations of its direct child spans) and, for counted layers,
    the size of its result.  Each entry point is replaced in every
    ``shiftmix`` module that holds a reference to it, so calls made through
    a ``from ... import`` name are caught too.  An entry point that no
    longer exists is listed in ``absent``; its time then lands in the self
    time of its caller.
    """

    def __init__(self):
        import numpy as np

        self._size = np.size
        self.targets, self.absent = [], []
        for i, (mod, name, _) in enumerate(LAYERS):
            fn = getattr(sys.modules.get(f"shiftmix.{mod}"), name, None)
            if callable(fn):
                self.targets.append((i, fn))
            else:
                self.absent.append(f"{mod}.{name}")
        self.cols = {
            "id": array("q"), "parent": array("q"), "layer": array("H"),
            "round": array("I"), "start": array("d"), "end": array("d"),
            "self": array("d"), "count": array("q"),
        }
        self._stack: list[list] = []
        self._next_id = 0
        self._round = 0
        self._patched: list = []

    def install(self, round_no: int) -> None:
        self._round = round_no
        modules = [m for n, m in sys.modules.items() if n == "shiftmix" or n.startswith("shiftmix.")]
        for layer, fn in self.targets:
            wrapper = self._wrap(layer, fn)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def _wrap(self, layer: int, fn):
        stack, clock = self._stack, time.perf_counter
        counted, size = LAYERS[layer][2], self._size
        c = self.cols
        put_id, put_parent, put_layer, put_round = (
            c["id"].append, c["parent"].append, c["layer"].append, c["round"].append)
        put_start, put_end, put_self, put_count = (
            c["start"].append, c["end"].append, c["self"].append, c["count"].append)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                put_id(sid)
                put_parent(parent)
                put_layer(layer)
                put_round(self._round)
                put_start(t0)
                put_end(t1)
                put_self(t1 - t0 - frame[1])
                put_count(int(size(result)) if counted and result is not None else 0)

        return traced

    def per_round(self) -> dict[int, dict[str, dict[str, float]]]:
        """{round: {"module.name": {"calls", "self_s", "count"}}} over traced rounds."""
        out: dict = {}
        c = self.cols
        for rnd, layer, self_s, count in zip(c["round"], c["layer"], c["self"], c["count"]):
            mod, name, _ = LAYERS[layer]
            agg = out.setdefault(rnd, {}).setdefault(
                f"{mod}.{name}", {"calls": 0, "self_s": 0.0, "count": 0}
            )
            agg["calls"] += 1
            agg["self_s"] += self_s
            agg["count"] += count
        return out

    def save(self, path: Path) -> None:
        import numpy as np

        np.savez(
            path,
            layer_names=np.array([f"{m}.{n}" for m, n, _ in LAYERS]),
            **{k: np.frombuffer(v, dtype=v.typecode) if len(v) else np.array([]) for k, v in self.cols.items()},
        )


def setup(workload: str) -> float:
    t0 = time.perf_counter()
    from shiftmix import basis, shift, weights

    alpha, depth = workloads.STACK[workload]
    chain = weights.build_growth_chain("log", 128)
    w = weights.build_symbol_weights(chain, d_max=3, length=40)
    shift.canonical_shift(alpha, 2.0, depth=depth, chain=chain)
    basis.build_basis(w)
    return time.perf_counter() - t0


def calibration_s() -> float:
    """Time of a fixed numpy kernel shaped like the program's sampling work.

    Philox uniforms, an inverse-CDF ``searchsorted``, a gather and a
    matrix-vector product over four 256 x 512 blocks; the best of three.
    The blocks are small so that the kernel adds little to the session's
    peak memory.  The host of two shared cores changes speed by tens of
    percent over tens of seconds, for the kernel as for the program
    (correlation about 0.8 per round), so ``run.py`` scales each round's
    times by the kernel's time measured at that round's two ends.
    """
    import numpy as np
    from numpy.random import Generator, Philox

    thr, amp, kern = np.linspace(0.0, 1.0, 41)[1:-1], np.linspace(-1.0, 1.0, 41), np.ones(257)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        rng = Generator(Philox(key=1))
        for _ in range(4):
            a = amp[np.searchsorted(thr, rng.random((256, 512)), side="right")]
            a[:, :257] @ kern
        best = min(best, time.perf_counter() - t0)
    return best


def _data_rows(out: Path) -> int:
    path = out / "data.csv"
    if not path.is_file():
        return 0
    with path.open() as fh:
        return sum(1 for _ in fh) - 2  # manifest-hash comment and header


def run(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    from shiftmix import cli

    tracer = Tracer() if trace else None
    rounds = []

    def do_round(k: int, traced: bool) -> dict:
        ops = [{"argv": argv, "out": str(out / f"r{k}" / f"{i}-{argv[0]}")}
               for i, argv in enumerate(workloads.round_ops(workload, seed, k))]
        if traced:
            tracer.install(k)
        t0 = time.perf_counter()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for op in ops:
                try:
                    op["rc"] = cli.main(op["argv"] + ["--out", op["out"]])
                except Exception:  # a crash is a failed call, not the end of the session
                    op["rc"] = None
                    op["error"] = traceback.format_exc(limit=-2)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        for op in ops:
            op["items"] = workloads.items(workload, op["argv"], _data_rows(Path(op["out"])))
        return {"k": k, "traced": traced, "wall_s": wall, "ops": ops}

    do_round(0, False)  # warm-up: imports, allocator and caches; not reported
    k, measured, cal = 1, 0.0, calibration_s()
    while measured < seconds:
        for traced in (False, True) if trace else (False,):
            r = do_round(k, traced)
            cal_after = calibration_s()
            r["calibration_s"] = (cal + cal_after) / 2.0
            rounds.append(r)
            measured += r["wall_s"]
            cal = cal_after
            k += 1
    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.save(out / "spans.npz")
        result["layers"] = {str(r): v for r, v in tracer.per_round().items()}
        result["absent"] = tracer.absent
    return result


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        setup_s = setup(argv[1])
        print(json.dumps({"setup_s": setup_s, "calibration_s": calibration_s()}))
        return 0
    if argv[:1] == ["run"] and len(argv) == 6:
        _, workload, seed, seconds, trace, out = argv
        res = run(workload, int(seed), float(seconds), trace == "1", Path(out))
        print(json.dumps(res))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
