"""The demo scripts under ``scripts/`` run end to end at small sizes."""

import csv
import os
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_trajectory_gallery(tmp_path):
    proc = _run("trajectory_gallery.py", "--count", "51", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    # T2 row 6 at lambda = 0.1 has no closed-form potential.
    with open(tmp_path / "acausal_T2r6.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 51
    assert all(row["V"] == "" and row["kappa"] == "" for row in rows)


@pytest.mark.parametrize(
    "script,args",
    [("pole_flow.py", ("--steps", "5")), ("wigner_audit.py", ("--count", "200"))],
)
def test_script_exits_zero(script, args):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr
