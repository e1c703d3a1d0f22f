"""The demo scripts under ``scripts/`` and the README's Quick tour run end to
end at small sizes."""

import ast
import csv
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

import cli_cases

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


def test_readme_quick_tour(capsys):
    """The README's one Python block prints an eom residual below 1e-12,
    True for the phase map, and a pole set in the lower half plane."""
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    exec(compile(block, "README.md", "exec"), {})
    residual, phase_map, poles = capsys.readouterr().out.splitlines()
    assert float(residual) < 1e-12
    assert phase_map == "True"
    assert ast.literal_eval(poles)["lower_half"] is True


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
    """The corpus holds the configs and poles commands of ``cli_cases`` and
    the benchmark configs; two sides on the same source tree agree on every run."""
    compare = _compare_outputs()
    (tmp_path / "corpus").mkdir()
    runs = compare.jobs(tmp_path / "corpus", range(1, 2))
    names = [name for name, _ in runs]
    assert len(names) == len(set(names))
    assert {f"ci-{name}.verify-all" for name in cli_cases.CONFIGS} <= set(names)
    assert (tmp_path / "corpus" / "ci-utf16.json").read_bytes() == cli_cases.CONFIGS["utf16"]
    assert ["poles", "--a", "-1", "--lam", "0.3"] in [argv for _, argv in runs]
    assert ["poles", "--a=-1e-300", "--lam=1e-300"] in [argv for _, argv in runs]
    assert {"ci-planar.traj", "ci-planar.verify-all", "poles-0"} <= set(names)
    assert {"ci-blocks.traj-one-cpu", "ci-blocks.ep-one-cpu"} <= set(names)
    assert sum(name.endswith(".affine-op") for name in names) == 3
    picked = [run for run in runs if run[0].startswith(("ci-planar.", "ci-overflow.", "poles-0"))
              or run[0].endswith("T3-6.affine-op")]
    src = compare.ROOT / "src"
    tally = compare.run_sides(src, src, picked, tmp_path)
    assert tally.ok and tally.count["identical"] == len(picked) == 22


def test_compare_outputs_runs_one_cpu_commands_pinned(tmp_path):
    """A side runs an argv that starts with "one-cpu" on one CPU and then
    gets its CPUs back; here the package is a stand-in whose ``cli.main``
    writes the number of CPUs it may run on."""
    compare = _compare_outputs()
    src = tmp_path / "src"
    (src / "torus_scatter").mkdir(parents=True)
    (src / "torus_scatter" / "__init__.py").write_text("")
    (src / "torus_scatter" / "cli.py").write_text(
        "import os\n"
        "def main(argv):\n"
        "    with open(argv[-1], 'w') as fh:\n"
        "        fh.write(str(len(os.sched_getaffinity(0))))\n"
        "    return 0\n"
    )
    (tmp_path / "out").mkdir()
    side = compare.Side(src, tmp_path / "out")
    try:
        for name, argv in (("pinned", ["one-cpu", "traj"]), ("free", ["traj"])):
            side.send(name, argv)
            side.wait(name)
    finally:
        side.close()
    runs = {name: compare.read_run(tmp_path / "out", name) for name in ("pinned", "free")}
    assert runs["pinned"] == ("0", b"1", "")
    assert runs["free"] == ("0", str(len(os.sched_getaffinity(0))).encode(), "")


def test_compare_outputs_runs_the_scripts_at_each_side(tmp_path):
    """Each script's standard output and each file the gallery writes is a
    run; two sides on the same tree agree on every one."""
    compare = _compare_outputs()
    tally = compare.compare_scripts(compare.ROOT, compare.ROOT, tmp_path, compare.Tally())
    names = {path.relative_to(tmp_path / "scripts-new").as_posix()
             for path in (tmp_path / "scripts-new" / "gallery").iterdir()}
    assert len(names) == 12 and "gallery/acausal_T2r6.csv" in names
    assert tally.ok and tally.count["identical"] == 3 + 12


def test_compare_outputs_tallies_script_differences(tmp_path):
    """Stand-in script trees: a changed line of standard output, a changed
    file and a file that only one side writes are each a different run."""
    compare = _compare_outputs()
    for label, line, extra in (("ref", "1", False), ("new", "2", True)):
        scripts = tmp_path / label / "scripts"
        scripts.mkdir(parents=True)
        for name in ("pole_flow.py", "wigner_audit.py"):
            (scripts / name).write_text("print('same')\n")
        (scripts / "trajectory_gallery.py").write_text(
            "import pathlib\n"
            f"print({line})\n"
            "pathlib.Path('same.csv').write_text('p\\n1\\n')\n"
            f"pathlib.Path('one.csv').write_text('p\\n{line}\\n')\n"
            + ("pathlib.Path('extra.csv').write_text('p\\n')\n" if extra else "")
        )
    tally = compare.compare_scripts(tmp_path / "ref", tmp_path / "new", tmp_path,
                                    compare.Tally())
    assert tally.count == {"identical": 3, "error text only": 0, "different": 3}
    assert tally.first["different"] == (
        "extra.csv: output file: absent at REF, present here"
    )
