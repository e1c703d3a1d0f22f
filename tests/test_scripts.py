"""The demo scripts under ``scripts/`` run end to end at small sizes."""

import csv
import importlib.util
import json
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
    [
        ("pole_flow.py", ("--steps", "5")),
        ("wigner_audit.py", ("--count", "200")),
        # 11 points over [1e-2, 1e2]: phases jump by more than pi between samples.
        ("wigner_audit.py", ("--count", "11")),
        ("trajectory_gallery.py", ("--count", "11", "--out-dir", "{tmp}")),
    ],
)
def test_script_exits_zero(script, args, tmp_path):
    proc = _run(script, *(arg.format(tmp=tmp_path) for arg in args))
    assert proc.returncode == 0, proc.stderr


def _compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", SCRIPTS / "compare_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(directory, name, code, out, err=""):
    directory.mkdir(exist_ok=True)
    (directory / f"{name}.code").write_text(str(code), encoding="utf-8")
    (directory / f"{name}.err").write_text(err, encoding="utf-8")
    if out is not None:
        (directory / f"{name}.out").write_bytes(out)


def test_compare_outputs_tallies_each_kind_of_difference(tmp_path):
    """Two directories of outputs, one with a planted difference in the
    third line of a CSV, one with a changed error text, one with a file
    missing and one with another exit code."""
    compare = _compare_outputs()
    csv_text = b"p,phi\n0.1,0.2\n0.2,0.30000000000000004\n"
    ref, new = tmp_path / "ref", tmp_path / "new"
    for side, planted in ((ref, csv_text), (new, csv_text.replace(b"04\n", b"06\n"))):
        _write_run(side, "same", 0, csv_text)
        _write_run(side, "planted", 0, planted)
    _write_run(ref, "text", 2, None, '{"error": "a0 must be finite"}\n')
    _write_run(new, "text", 2, None, '{"error": "a0 must be a finite number"}\n')
    _write_run(ref, "gone", 0, b"{}\n")
    _write_run(new, "gone", 0, None)
    _write_run(ref, "code", 0, b"{}\n")
    _write_run(new, "code", 1, b"{}\n")
    tally = compare.compare_dirs(ref, new, ["same", "planted", "text", "gone", "code"])
    assert tally.count == {"identical": 1, "error text only": 1, "different": 3}
    assert not tally.ok
    report = tally.report().splitlines()
    assert report[0] == "1 identical, 1 error text only, 3 different"
    assert report[1:] == [
        "first error text only: text: error text:",
        '  REF  {"error": "a0 must be finite"}',
        '  here {"error": "a0 must be a finite number"}',
        "first different: planted: output line 3:",
        "  REF  0.2,0.30000000000000004",
        "  here 0.2,0.30000000000000006",
    ]
    assert compare.compare_dirs(ref, new, ["same"]).ok


def test_compare_outputs_corpus_and_sides(tmp_path):
    """The corpus holds the CI smoke configs and poles commands and the
    benchmark configs; two sides on the same source tree agree on every run."""
    compare = _compare_outputs()
    configs, poles = compare.ci_corpus(compare.WORKFLOW.read_text(encoding="utf-8"))
    assert {"ci-family3d", "ci-planar", "ci-twopoint", "ci-overflow"} <= set(configs)
    assert all(isinstance(json.loads(text), dict) for text in configs.values())
    assert ["poles", "--a", "-1", "--lam", "0.3"] in poles
    (tmp_path / "corpus").mkdir()
    runs = compare.jobs(tmp_path / "corpus", range(1, 2))
    names = [name for name, _ in runs]
    assert len(names) == len(set(names))
    assert {"ci-planar.traj", "ci-planar.verify-all", "poles-0"} <= set(names)
    assert sum(name.endswith(".affine-op") for name in names) == 3
    picked = [run for run in runs if run[0].startswith(("ci-planar.", "ci-overflow.", "poles-0"))
              or run[0].endswith("T3-6.affine-op")]
    src = compare.ROOT / "src"
    tally = compare.run_sides(src, src, picked, tmp_path)
    assert tally.ok and tally.count["identical"] == len(picked) == 18
