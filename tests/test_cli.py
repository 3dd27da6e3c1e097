import json

import pytest

from shiftmix.cli import ManifestError, _parse_grid, main, parse_manifest


def run(args):
    return main([str(a) for a in args])


class TestManifest:
    def test_roundtrip_via_file(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text(
            "# comment\nexperiment = basis-check\nseed = 3\nL = 40\ntolerance = 1e-10\n"
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

    def test_reversed_lag_range_exits_two(self, tmp_path):
        assert run(["cov-decay", "--lags", "4:2", "--out", tmp_path / "o"]) == 2


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
        assert capsys.readouterr().err.startswith("error:")

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
        for i, functional in enumerate(("ones", "mono:(0,0)=1;(0,1)=1")):
            a, b = tmp_path / f"w1-{i}", tmp_path / f"w4-{i}"
            args = ["clt", "--functional", functional, "--R", 150, "--N", 512, "--seed", 9]
            assert run([*args, "--out", a]) == 0
            assert run([*args, "--workers", 4, "--out", b]) == 0
            for name in ("data.csv", "report.json", "manifest.replay"):
                assert (a / name).read_bytes() == (b / name).read_bytes()

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
