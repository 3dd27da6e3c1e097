import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftmix
from shiftmix.cli import _EXECUTION, _FIELDS, _SCHEMAS, ManifestError, _parse_grid, main, parse_manifest
from shiftmix.weights import GROWTH_FUNCTIONS

MONO = "mono:(0,0)=1;(0,1)=1"


def run(args):
    return main([str(a) for a in args])


def _child_env():
    """The environment of a child Python that imports this ``shiftmix``."""
    src = str(Path(shiftmix.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


class TestManifest:
    def test_roundtrip_via_file(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text(
            "# comment\nexperiment = basis-check\nseed = 3\nL = 40\nd_max = 3\n"
        )
        vals = parse_manifest(str(m))
        assert vals["seed"] == 3
        assert vals["experiment"] == "basis-check"

    def test_unknown_field_reports_line(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text("experiment = clt\nbogus = 3\n")
        with pytest.raises(ManifestError, match="m.txt:2.*bogus"):
            parse_manifest(str(m))

    def test_bad_value_reports_type(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text("seed = banana\n")
        with pytest.raises(ManifestError, match="expects int"):
            parse_manifest(str(m))

    def test_unknown_experiment_rejected(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text("experiment = frobnicate\n")
        with pytest.raises(ManifestError, match="unknown experiment"):
            parse_manifest(str(m))

    def test_invalid_manifest_exits_nonzero(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text("no equals sign here\n")
        assert run(["basis-check", "--manifest", m, "--out", tmp_path / "o"]) == 2

    def test_bool_fields_parse_strictly(self, tmp_path):
        m = tmp_path / "m.txt"
        for word, value in (("On", True), ("1", True), ("off", False), ("NO", False)):
            m.write_text(f"exact = {word}\n")
            assert parse_manifest(str(m))["exact"] is value
        m.write_text("experiment = cov-decay\nexact = maybe\n")
        with pytest.raises(ManifestError, match="m.txt:2.*expects bool"):
            parse_manifest(str(m))
        assert run(["cov-decay", "--manifest", m, "--out", tmp_path / "o"]) == 2

    def test_mismatched_subcommand_rejected(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text("experiment = clt\n")
        assert run(["basis-check", "--manifest", m, "--out", tmp_path / "o"]) == 2

    def test_missing_manifest_exits_two(self, tmp_path, capsys):
        assert run(["basis-check", "--manifest", tmp_path / "absent.txt", "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_undecodable_manifest_exits_two(self, tmp_path, capsys):
        m = tmp_path / "m.txt"
        m.write_bytes(b"seed = \xff\xfe\n")
        assert run(["basis-check", "--manifest", m, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestGrids:
    def test_doubling_and_comma_forms(self):
        assert _parse_grid("3:20") == [3, 6, 12]
        assert _parse_grid("5:5") == [5]
        assert _parse_grid("1,4,9") == [1, 4, 9]

    @pytest.mark.parametrize("text", ["0:8", "-2:8", "4:2", "1,0,4", "-1"])
    def test_bad_grids_rejected(self, text):
        with pytest.raises(ValueError, match="grid"):
            _parse_grid(text)

    def test_reversed_lag_range_exits_two(self, tmp_path, capsys):
        assert run(["cov-decay", "--lags", "4:2", "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestArtifacts:
    def test_basis_check_writes_three_artifacts(self, tmp_path):
        out = tmp_path / "o"
        assert run(["basis-check", "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["results"]["gram_residual"] < 1e-10
        csv = (out / "data.csv").read_text().splitlines()
        assert csv[0].startswith("# manifest_hash=")
        assert csv[0].split("=")[1] == report["manifest_hash"]
        assert (out / "manifest.replay").exists()

    def test_out_naming_a_file_exits_two(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run(["basis-check", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_replay_manifest_reproduces_run(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["support-probe", "--R", 200, "--seed", 5, "--out", a]) == 0
        assert run(["support-probe", "--manifest", a / "manifest.replay", "--out", b]) == 0
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_flags_override_manifest(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text("experiment = support-probe\nseed = 5\nR = 100\n")
        out = tmp_path / "o"
        assert run(["support-probe", "--manifest", m, "--R", 150, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["params"]["R"] == 150

    def test_worker_count_changes_no_byte(self, tmp_path):
        calls = [
            ["clt", "--functional", functional, "--R", 150, "--N", 512, "--seed", 9]
            for functional in ("ones", "mono:(0,0)=1;(0,1)=1")
        ]
        calls.append(["support-probe", "--R", 300, "--seed", 9])
        # default depth 256; 5000 rows end in a partial chunk and sub-block
        calls.append(["cov-decay", "--mc", "--R", 5000, "--lags", "1:256", "--seed", 9])
        for i, args in enumerate(calls):
            a, b = tmp_path / f"w1-{i}", tmp_path / f"w4-{i}"
            assert run([*args, "--out", a]) == 0
            assert run([*args, "--workers", 4, "--out", b]) == 0
            for name in ("data.csv", "report.json", "manifest.replay"):
                assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_closed_stdout_keeps_exit_code_and_artifacts(self, tmp_path):
        # -u writes each line at once, so the first print meets the closed pipe
        args = ["clt", "--N", "64", "--R", "200"]
        code = run([*args, "--out", tmp_path / "open"])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-u", "-m", "shiftmix.cli", *args, "--out", str(tmp_path / "closed")],
                stdout=write_end, stderr=subprocess.PIPE, env=_child_env(), timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, b"")
        for name in ("report.json", "data.csv", "manifest.replay"):
            assert (tmp_path / "closed" / name).read_bytes() == (tmp_path / "open" / name).read_bytes()

    def test_rerun_over_longer_files_writes_the_same_bytes(self, tmp_path):
        # artifacts are written in place and cut to length, not truncated first
        args = ["mw", "--n-grid", "4:64"]
        assert run([*args, "--out", tmp_path / "fresh"]) == 0
        (tmp_path / "old").mkdir()
        for name in ("report.json", "data.csv", "manifest.replay"):
            (tmp_path / "old" / name).write_text("x" * 100_000)
        assert run([*args, "--out", tmp_path / "old"]) == 0
        for name in ("report.json", "data.csv", "manifest.replay"):
            assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_cov_decay_mc_emits_all_columns(self, tmp_path):
        # artifact-shape check only; the short lag grid is no basis for a
        # verdict on the decay regime, so the exit code is not pinned here
        out = tmp_path / "o"
        code = run(
            ["cov-decay", "--mc", "--alpha", 2, "--R", 4000, "--lags", "1,2,4,8,16",
             "--depth", 32, "--out", out]
        )
        assert code in (0, 1)
        rows = (out / "data.csv").read_text().splitlines()
        assert rows[1] == "lag,cov,se,exact"
        first = rows[2].split(",")
        assert len(first) == 4 and all(field for field in first)


def test_start_up_loads_no_scipy(tmp_path):
    # the import, the benchmark's set-up stack and an exact call
    child = (
        "import sys\n"
        "import shiftmix.cli\n"
        "from shiftmix import basis, shift, weights\n"
        "chain = weights.build_growth_chain('log', 128)\n"
        "w = weights.build_symbol_weights(chain, d_max=3, length=40)\n"
        "shift.canonical_shift(2.0, 2.0, depth=256, chain=chain)\n"
        "basis.build_basis(w)\n"
        "code = shiftmix.cli.main(['cov-decay', '--exact', '--depth', '4096', '--out', sys.argv[1]])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path / "o")],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr


# one small run per subcommand; no depth flag, so depth stays unset
SMALL_RUNS = {
    "weights-check": [],
    "basis-check": [],
    "cov-decay": ["--mc", "--R", 2000, "--lags", "1:16"],
    "clt": ["--N", 16, "--R", 100],
    "mw": ["--n-grid", "4:64"],
    "facts": ["--n-grid", "4:64"],
    "halfplane-decay": ["--k-grid", "8:32"],
    "envelope-check": ["--kmax-list", "4,8"],
    "support-probe": ["--R", 50],
}


class TestSchemas:
    @pytest.mark.parametrize("experiment", list(_SCHEMAS))
    def test_manifest_names_exactly_the_schema(self, experiment, tmp_path):
        out = tmp_path / "o"
        assert run([experiment, *SMALL_RUNS[experiment], "--out", out]) in (0, 1)
        lines = (out / "manifest.replay").read_text().splitlines()
        assert lines[0] == f"experiment = {experiment}"
        keys = {line.split(" = ")[0] for line in lines[1:]}
        schema = set(_SCHEMAS[experiment][1]) - set(_EXECUTION)
        assert keys == {f for f in schema if _FIELDS[f][1] is not None}
        assert set(json.loads((out / "report.json").read_text())["params"]) == keys
        header, *rows = (out / "data.csv").read_text().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            assert len(fields) == len(header.split(","))
            for field in fields:
                assert "np." not in field
                if field and not re.fullmatch(r"[a-z][a-z0-9_-]*", field):
                    float(field)

    def test_flag_outside_the_schema_is_refused(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["support-probe", "--lags", "1:4", "--out", tmp_path / "o"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "experiment", [e for e in _SCHEMAS if e not in ("cov-decay", "clt", "support-probe")]
    )
    def test_workers_only_where_blocks_run(self, experiment, tmp_path):
        # only cov-decay, clt and support-probe draw samples in blocks
        with pytest.raises(SystemExit) as exc:
            run([experiment, "--workers", 2, "--out", tmp_path / "o"])
        assert exc.value.code == 2

    def test_manifest_field_outside_the_schema_exits_two(self, tmp_path, capsys):
        m = tmp_path / "m.txt"
        m.write_text("experiment = support-probe\nR = 100\nlags = 1:4\n")
        assert run(["support-probe", "--manifest", m, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'lags'" in err and "support-probe" in err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["clt", "--depth", -1, "--N", 8, "--R", 100],
        ["support-probe", "--depth", -1, "--R", 10],
        ["mw", "--depth", -1, "--n-grid", "4:8"],
        ["cov-decay", "--mc", "--depth", -1, "--R", 100, "--lags", "1:4"],
        ["cov-decay", "--exact", "--depth", -1],
        ["clt", "--functional", MONO, "--N", 0, "--R", 100],
        ["weights-check", "--d-max", 0],
        ["clt", "--p-exp", "nan", "--N", 8, "--R", 100],
        ["clt", "--alpha", "nan", "--N", 8, "--R", 100],
        ["support-probe", "--R", -5],
        ["support-probe", "--delta", "nan", "--R", 10],
        ["mw", "--n-grid", "1:1"],
        ["weights-check", "--alpha", "inf"],
        ["clt", "--functional", "lin:-1=2", "--N", 8, "--R", 100],
        ["clt", "--functional", "mono:(-1,)=1", "--N", 8, "--R", 100],
        ["cov-decay", "--mc", "--functional", "mono:(0,-2)=1", "--depth", 8, "--R", 100, "--lags", "1:4"],
        ["clt", "--functional", "lin:0=1,-1=2", "--N", 8, "--R", 100],
        ["cov-decay", "--mc", "--R", 100, "--lags", "4:64:9"],
        ["facts", "--alpha", "nan"],
        ["facts", "--alpha", "inf"],
        ["support-probe", "--alpha", 400, "--R", 10],
        ["clt", "--alpha", 400, "--N", 64, "--R", 100],
        ["mw", "--alpha", 400],
        ["cov-decay", "--exact", "--alpha", 400],
        *(
            [*call, "--functional", functional]
            for call in (["clt", "--N", 64, "--R", 200], ["cov-decay", "--mc", "--R", 200, "--lags", "1:4"])
            for functional in ("lin:0=nan,1=1", "lin:0=inf", "mono:(0,1)=nan")
        ),
    ],
)
def test_unrunnable_input_exits_two(argv, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([*argv, "--out", tmp_path / "o"]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["halfplane-decay", "--p", 40, "--k-grid", "8:65536"], 14),
        (["envelope-check", "--p", 200, "--kmax-list", "16,32"], 2),
    ],
)
def test_steep_profile_keeps_every_grid_point(argv, rows, tmp_path, capsys):
    # (1 + u^2)^p passes the double range far from the hump, where the
    # profile reads 0.0; no point may be dropped and no warning raised
    assert run([*argv, "--out", tmp_path / "o"]) == 0
    assert capsys.readouterr().err == ""
    assert len((tmp_path / "o" / "data.csv").read_text().splitlines()) == 2 + rows


@pytest.mark.parametrize(
    "argv", [["weights-check", "--alpha", 1.5], ["support-probe", "--alpha", 1.2, "--R", 10]]
)
def test_overflowing_block_boundary_exits_two(argv, tmp_path, capsys):
    # alpha just above 1 pushes the block boundaries past the int64 range
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([*argv, "--out", tmp_path / "o"])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: block boundary of level ")
    assert f"passes the int64 range at alpha = {argv[2]!r}" in err


def test_weights_check_names_the_alpha_it_reads(tmp_path, capsys):
    assert run(["weights-check", "--alpha", 0.3, "--out", tmp_path / "o"]) == 2
    assert "orbit-norm envelope N^(-0.3) is not summable" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [TypeError("unsupported operand"), KeyError("lags")])
def test_crash_in_a_runner_exits_two(exc, monkeypatch, tmp_path, capsys):
    # exit 1 means a failed tolerance, so a defect must not end with it
    def crash(params):
        raise exc

    monkeypatch.setitem(_SCHEMAS, "facts", (crash, _SCHEMAS["facts"][1]))
    assert run(["facts", "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert err.splitlines()[-1] == f"error: {type(exc).__name__}: {exc}"


def _rarely(odd, usual):
    """``odd`` on about one draw in eight, ``usual`` otherwise."""
    return st.integers(0, 7).flatmap(lambda i: odd if i == 0 else usual)


def _grid(hi):
    doubling = st.tuples(st.integers(1, 16), st.integers(1, hi)).map(
        lambda t: f"{t[0]}:{max(t)}"
    )
    points = st.lists(st.integers(1, hi), min_size=1, max_size=4)
    malformed = st.tuples(st.integers(-1, hi), st.integers(-1, hi)).map(lambda t: f"{t[0]}:{t[1]}")
    return doubling | points.map(lambda xs: ",".join(map(str, xs))) | malformed


def _float(lo, hi):
    return _rarely(st.just(math.nan), st.floats(lo, hi))


# small values only: no draw asks for a large model, sample or worker count
FLAG_VALUES = {
    "growth": st.sampled_from(sorted(GROWTH_FUNCTIONS)),
    "d_max": st.integers(0, 5),
    "L": st.integers(1, 70),
    "alpha": _float(0.3, 3.0),
    "p_exp": _float(0.5, 3.0),
    "depth": st.integers(-2, 40),
    "lags": _grid(128),
    "exact": st.booleans(),
    "functional": st.sampled_from(["ones", "delta0", "lin:0=1,2=0.5", MONO, "normp:2"]),
    "N": st.integers(-2, 64),
    "R": st.integers(-2, 300),
    "seed": st.integers(0, 2**32),
    "n_grid": _grid(128),
    "p": st.integers(2, 6),
    "k_grid": _grid(128),
    "kmax_list": st.lists(_rarely(st.integers(-1, 0), st.integers(1, 128)), min_size=1, max_size=3).map(
        lambda xs: ",".join(map(str, xs))
    ),
    "delta": _float(-0.5, 2.0),
    "workers": st.integers(0, 3),
}
# drawn on every call, so that no default (R = 2000, lags up to 4096) sets the size
SIZES = {"R", "N", "lags", "n_grid", "k_grid", "kmax_list"}


@st.composite
def cli_calls(draw):
    experiment = draw(st.sampled_from(list(_SCHEMAS)))
    fields = _SCHEMAS[experiment][1]
    chosen = [f for f in fields if f in SIZES or draw(st.booleans())]
    if experiment == "cov-decay" and draw(st.booleans()):
        chosen.append("depth")  # exact curves default to depth 2^20
    argv = [experiment]
    for field in dict.fromkeys(chosen):
        value = draw(FLAG_VALUES[field])
        if field == "exact":
            argv.append("--exact" if value else "--mc")
        else:
            argv.append(f"--{field.replace('_', '-')}={value}")
    return argv


def _exit_code_without_crash(argv):
    """Run ``main``; exit 2 also ends a crash, so it must come with a bare
    ``error:`` line and no traceback to count as a rejected input."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue(), err.getvalue()
    assert code != 2 or err.getvalue().startswith("error:"), err.getvalue()
    return code


@settings(max_examples=150, deadline=None)
@given(argv=cli_calls())
def test_any_drawn_call_ends_with_an_exit_code(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("call")
    _exit_code_without_crash([*argv, "--out", str(out / "w1")])
    if argv[0] in ("clt", "support-probe") or (argv[0] == "cov-decay" and "--mc" in argv):
        _exit_code_without_crash([*argv, "--workers", "2", "--out", str(out / "w2")])
        for name in ("report.json", "data.csv", "manifest.replay"):
            a, b = out / "w1" / name, out / "w2" / name
            assert a.exists() == b.exists()
            assert not a.exists() or a.read_bytes() == b.read_bytes()
