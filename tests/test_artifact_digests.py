"""Pinned artifact bytes: fast CLI calls, every subcommand at least once.

``artifact_digests.json`` holds, per call, its exit code and the sha256 of
``report.json``, ``data.csv`` and ``manifest.replay``.  A change that means to
alter a call's bytes updates that call's entry by hand, from the entry a
failing run prints, and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from shiftmix.cli import main

PINNED = json.loads((Path(__file__).parent / "artifact_digests.json").read_text())
ARTIFACTS = ("report.json", "data.csv", "manifest.replay")


def run_and_digest(argv: str, out: Path) -> dict:
    """The exit code and artifact digests of ``shiftmix argv --out out``."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv.split(), "--out", str(out)])
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}
    return {"argv": argv, "exit": code, **digests}


@pytest.mark.parametrize("entry", PINNED, ids=[e["argv"] for e in PINNED])
def test_artifact_bytes_match_pinned_digests(entry, tmp_path):
    got = run_and_digest(entry["argv"], tmp_path)
    assert got == entry, "new entry:\n" + json.dumps(got, indent=1)
