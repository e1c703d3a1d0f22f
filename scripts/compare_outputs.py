#!/usr/bin/env python3
"""Compare the command-line outputs of a git ref with those of the working tree.

    python scripts/compare_outputs.py REF [--seeds 1-20]

REF (a commit, branch or tag) is checked out into a temporary ``git
worktree``, removed at the end.  Each side runs one Python process with its
own ``src`` on the path, which runs every command of the corpus in process
through ``torus_scatter.cli.main``, with ``--out`` into a file.  Both sides
run each command at the same time; then the exit codes, the output files'
bytes and the error texts are compared and the two files deleted.

The corpus:

* every config of the command-line contract table ``tests/cli_cases.py``,
  which CI runs, and the ``poles`` commands of its cases;
* the configs of the three benchmark workloads at each seed, written by
  ``bench/workloads.py``, which is imported and not changed, with
  ``poles --lam`` and ``poles --r`` at each 3D length and its range, and the
  digest of each affine-reconstruct op (``workloads.AffineOp.collect``).

Each config runs ``traj``, ``ep`` and ``verify --suite S`` for every suite
``S``; a config that recurs runs once.  ``traj`` and ``ep`` run a second
time with the side's process pinned to one CPU (``os.sched_setaffinity``),
so the single-stripe CSV writer's bytes are compared as well as the striped
writer's (``cli._write_csv``).

Each side also runs the scripts of ``SCRIPTS`` from its own ``scripts``
directory, with its own ``src`` on the path, in a directory of its own: a
script's standard output is a run, and so is each file it writes there.

The script prints the number of identical runs, of runs that differ only in
their error text, and of runs that differ (exit code or output), with the
first run of each kind of difference, and exits 1 if any run is not
identical.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = ("traj", "ep")

#: The scripts each side runs, by run name: the script and its arguments.
#: The gallery writes its files under its working directory.
SCRIPTS = {
    "pole_flow": ["pole_flow.py"],
    "wigner_audit": ["wigner_audit.py", "--count", "200"],
    "trajectory_gallery": ["trajectory_gallery.py", "--count", "201", "--out-dir", "gallery"],
}

#: The code of each side's process: it reads one JSON line [name, argv] at a
#: time, writes NAME.out (the command's --out), NAME.err and NAME.code into
#: the directory given as its first argument, and answers with the name.
#: An argv that starts with "one-cpu" runs the rest pinned to one CPU.
_CHILD = r"""
import contextlib, io, json, os, sys, warnings
sys.path.append(sys.argv[2])
from torus_scatter import cli
warnings.simplefilter("always")
for line in sys.stdin:
    name, argv = json.loads(line)
    path = os.path.join(sys.argv[1], name)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(err), contextlib.redirect_stderr(err):
            if argv[0] == "affine-op":
                import workloads
                op = workloads.AffineOp(workloads.Spec(**argv[1]), argv[2])
                digest = op.collect(op.run())[0]
                with open(path + ".out", "w", encoding="utf-8") as fh:
                    fh.write(digest + "\n")
                code = 0
            elif argv[0] == "one-cpu":
                cpus = os.sched_getaffinity(0)
                os.sched_setaffinity(0, {min(cpus)})
                try:
                    code = cli.main([*argv[1:], "--out", path + ".out"])
                finally:
                    os.sched_setaffinity(0, cpus)
            else:
                code = cli.main([*argv, "--out", path + ".out"])
    except Exception as exc:  # a traceback is an outcome to compare as well
        code = f"crash: {type(exc).__name__}: {exc}"
    with open(path + ".err", "w", encoding="utf-8") as fh:
        fh.write(err.getvalue())
    with open(path + ".code", "w", encoding="utf-8") as fh:
        fh.write(str(code))
    print(name, flush=True)
"""


class Run(NamedTuple):
    """One command's outcome: its exit code, output bytes (None if it wrote
    no file) and error text."""

    code: str
    out: bytes | None
    err: str


def read_run(directory: Path, name: str) -> Run:
    """The run ``name`` as written into ``directory``: NAME.code, NAME.err
    and, if the command wrote one, NAME.out."""
    out = directory / f"{name}.out"
    return Run(
        (directory / f"{name}.code").read_text(encoding="utf-8"),
        out.read_bytes() if out.exists() else None,
        (directory / f"{name}.err").read_text(encoding="utf-8"),
    )


def _first_difference(ref: bytes | None, new: bytes | None) -> str:
    if ref is None or new is None:
        return f"output file: {'absent' if ref is None else 'present'} at REF, " \
               f"{'absent' if new is None else 'present'} here"
    ref_lines, new_lines = ref.splitlines(), new.splitlines()
    for k, (a, b) in enumerate(zip(ref_lines, new_lines), 1):
        if a != b:
            return f"output line {k}:\n  REF  {a.decode(errors='replace')}\n" \
                   f"  here {b.decode(errors='replace')}"
    return f"output: {len(ref_lines)} lines at REF, {len(new_lines)} here"


class Tally:
    """Counts of identical runs, runs that differ only in error text and runs
    that differ, with a description of the first of each kind of difference."""

    KINDS = ("identical", "error text only", "different")

    def __init__(self) -> None:
        self.count = dict.fromkeys(self.KINDS, 0)
        self.first: dict[str, str] = {}

    def add(self, name: str, ref: Run, new: Run) -> None:
        if ref.code != new.code or ref.out != new.out:
            kind = "different"
            detail = (f"exit code {ref.code} at REF, {new.code} here" if ref.code != new.code
                      else _first_difference(ref.out, new.out))
        elif ref.err != new.err:
            kind = "error text only"
            detail = f"error text:\n  REF  {ref.err.strip()}\n  here {new.err.strip()}"
        else:
            kind, detail = "identical", ""
        self.count[kind] += 1
        if kind != "identical":
            self.first.setdefault(kind, f"{name}: {detail}")

    def report(self) -> str:
        lines = [", ".join(f"{self.count[k]} {k}" for k in self.KINDS)]
        lines += [f"first {kind}: {self.first[kind]}" for kind in self.KINDS[1:]
                  if kind in self.first]
        return "\n".join(lines)

    @property
    def ok(self) -> bool:
        return self.count["identical"] == sum(self.count.values())


def compare_dirs(ref_dir: Path, new_dir: Path, names, tally: Tally | None = None) -> Tally:
    """Tally the runs ``names`` as written into the two directories."""
    tally = tally or Tally()
    for name in names:
        tally.add(name, read_run(ref_dir, name), read_run(new_dir, name))
    return tally


def bench_corpus(seeds) -> tuple[dict, list, list]:
    """({name: JSON bytes} of the benchmark configs, [argv] of poles commands at
    their 3D lengths, [name, Spec fields, samples] of the affine ops), from
    ``bench/workloads.py``."""
    sys.path.append(str(ROOT / "bench"))
    import workloads

    configs, poles, affine = {}, [], []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for seed in seeds:
                for k, spec in enumerate(workloads.make_specs(workload, seed, Path(tmp))):
                    name = f"{workload}-s{seed}-{k}-{spec.label}"
                    configs[name] = json.dumps(spec.config(), sort_keys=True).encode()
                    if spec.dimension == 3:
                        for a, r in zip((spec.a0, spec.a1), spec.ranges):
                            if spec.table is not None:
                                poles.append(["poles", f"--a={a!r}", f"--lam={spec.lam!r}"])
                            poles.append(["poles", f"--a={a!r}", f"--r={r!r}"])
                    if workload == "affine-reconstruct":
                        fields = {f: getattr(spec, f) for f in (
                            "label", "dimension", "a0", "a1", "table", "row", "lam",
                            "p_min", "p_max", "count")}
                        affine.append([name, fields, workloads.FULL["affine_samples"]])
    return configs, poles, affine


def jobs(corpus_dir: Path, seeds) -> list:
    """[name, argv] of every run: each config under every command (and each
    CSV command again on one CPU) and suite, the poles commands and the affine
    ops.  Writes the configs into ``corpus_dir``; a config whose bytes recur
    runs once."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import cli_cases
    from torus_scatter.cli import SUITES

    ci_configs = {f"ci-{name}": data for name, data in cli_cases.CONFIGS.items()}
    ci_poles = [case.argv() for case in cli_cases.CASES if case.command.startswith("poles")]
    bench_configs, bench_poles, affine = bench_corpus(seeds)
    out, seen = [], set()
    for name, data in {**ci_configs, **bench_configs}.items():
        path = str(corpus_dir / f"{name}.json")
        Path(path).write_bytes(data)
        if data in seen:
            continue
        seen.add(data)
        out += [[f"{name}.{cmd}", [cmd, "--config", path]] for cmd in COMMANDS]
        out += [[f"{name}.{cmd}-one-cpu", ["one-cpu", cmd, "--config", path]]
                for cmd in COMMANDS]
        out += [[f"{name}.verify-{suite}", ["verify", "--suite", suite, "--config", path]]
                for suite in SUITES]
    unique_poles = list(dict.fromkeys(map(tuple, ci_poles + bench_poles)))
    out += [[f"poles-{k}", list(argv)] for k, argv in enumerate(unique_poles)]
    out += [[f"{name}.affine-op",
             ["affine-op", {**fields, "path": str(corpus_dir / f"{name}.json")}, samples]]
            for name, fields, samples in affine]
    return out


class Side:
    """One side's process, running the commands it is sent with ``src`` on the path."""

    def __init__(self, src: Path, out_dir: Path):
        env = dict(os.environ, PYTHONPATH=str(src))
        self.out_dir = out_dir
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(out_dir), str(ROOT / "bench")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
            cwd=str(out_dir),
        )

    def send(self, name: str, argv: list) -> None:
        self.proc.stdin.write(json.dumps([name, argv]) + "\n")
        self.proc.stdin.flush()

    def wait(self, name: str) -> None:
        if self.proc.stdout.readline().strip() != name:
            raise RuntimeError(f"the process for {self.out_dir} stopped at {name}")

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_sides(ref_src: Path, new_src: Path, runs: list, work: Path) -> Tally:
    """Run every [name, argv] of ``runs`` on both sides and tally them."""
    tally = Tally()
    sides = []
    try:
        for label, src in (("ref", ref_src), ("new", new_src)):
            (work / label).mkdir()
            sides.append(Side(src, work / label))
        for name, argv in runs:
            for side in sides:
                side.send(name, argv)
            for side in sides:
                side.wait(name)
            compare_dirs(sides[0].out_dir, sides[1].out_dir, [name], tally)
            for side in sides:
                for suffix in (".out", ".err", ".code"):
                    (side.out_dir / f"{name}{suffix}").unlink(missing_ok=True)
    finally:
        for side in sides:
            side.close()
    return tally


def script_runs(root: Path, directory: Path) -> dict:
    """{name: Run} of the scripts of ``SCRIPTS`` run from ``root/scripts``
    with ``root/src`` on the path and the new directory ``directory`` as the
    working directory: each script's exit code, standard output and standard
    error, and each file written under ``directory`` (named by its path
    there), with exit code 0 and no error text."""
    directory.mkdir()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    runs = {}
    for name, (script, *args) in SCRIPTS.items():
        proc = subprocess.run([sys.executable, str(root / "scripts" / script), *args],
                              cwd=directory, env=env, capture_output=True, timeout=600)
        runs[name] = Run(str(proc.returncode), proc.stdout, proc.stderr.decode(errors="replace"))
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            runs[path.relative_to(directory).as_posix()] = Run("0", path.read_bytes(), "")
    return runs


def compare_scripts(ref_root: Path, new_root: Path, work: Path, tally: Tally) -> Tally:
    """Tally the runs of ``script_runs`` at the two roots, in ``work``; a file
    that one side did not write is a run with no output there."""
    ref = script_runs(ref_root, work / "scripts-ref")
    new = script_runs(new_root, work / "scripts-new")
    absent = Run("0", None, "")
    for name in sorted(ref.keys() | new.keys()):
        tally.add(name, ref.get(name, absent), new.get(name, absent))
    return tally


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the git ref to compare the working tree with")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-20"),
                        help="benchmark seeds, FIRST-LAST (default 1-20)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "corpus").mkdir()
        runs = jobs(work / "corpus", args.seeds)
        tree = work / "ref-tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), args.ref], check=True)
        try:
            tally = run_sides(tree / "src", ROOT / "src", runs, work)
            compare_scripts(tree, ROOT, work, tally)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=False)
    print(tally.report())
    return 0 if tally.ok else 1


if __name__ == "__main__":
    sys.exit(main())
