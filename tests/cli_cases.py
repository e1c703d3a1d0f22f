"""The command-line contract as one table of cases: a command line, the
config it reads, its exit code and a regular expression searched, line by
line, in its stdout or in the message of its refusal.  ``problem`` checks
each exit code's contract as well.  ``test_config_cli.test_cli_case`` runs
every case in process through ``cli.main``.  Run as a script, this runs each
case as ``python -W error -m torus_scatter.cli`` in a fresh process, with
this checkout's ``src`` first on the path, prints each failing case and
exits 1 if any fails:  ``python tests/cli_cases.py``
"""

import contextlib
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"


def _config(dimension, a0, a1, grid=(), **keys) -> bytes:
    """A config's JSON bytes; ``grid`` is the p_grid's (min, max, count[, spacing="log"])."""
    if grid:
        keys["p_grid"] = dict(zip(("min", "max", "count", "spacing"), (*grid, "log")))
    return json.dumps({"dimension": dimension, "a0": a0, "a1": a1, **keys}).encode()


_LAM14, _T1R4 = {"table": "T3", "row": 6, "lambda": 0.25}, {"table": "T1", "row": 4}

#: name -> the bytes of the config file NAME.json.
CONFIGS = {
    "hugequarter": _config(3, -1e308, -1e308, (1e-310, 1e-306, 5), family=_LAM14),
    "family3d": _config(3, -1.0, -5.0, (0.01, 100.0, 201), family=_LAM14),
    "planar": _config(2, 1.0, 3.0, (0.001, 1000.0, 201)),
    "twopoint": _config(2, 1.0, 3.0, p_grid={
        "min": 0.10933059980159891, "max": 3.0488567147553383, "count": 2}),
    "blocks": _config(2, 1.0, 4.0, (0.25, 0.75, 8197, "linear")),
    "tight": _config(3, -1.0, -5.0, family=_LAM14,
                     tolerances={"phase_map": 1e-20, "density_map": 1e-20}),
    "overflow": _config(2, 1e300, 2e-300, (1e-10, 1e10, 5)),
    "inversion": _config(3, 1e150, 1e150, (1e9, 1e10, 5), family=_T1R4),
    "mixed": _config(3, 1.0, 5.0, (1e-9, 1e-5, 4099), family=_T1R4),
    "tiny": _config(3, 1.0, 5.0, (1e-15, 1e-12, 2049), family=_T1R4),
    "untagged": _config(3, 1.0, 5.0),
    "free": _config(3, 0.0, 5.0),
    "row4quarter": _config(3, 1.0, 1.0, family={"table": "T2", "row": 4, "lambda": 0.25}),
    "nan": _config(3, -1e150, -1e150, (1e-9, 1e-8, 3), family=_LAM14),
    "c1small": _config(3, 1.0, 5.0, (0.01, 100.0, 5), c1=1e-140),
    "c1tiny": _config(3, 1.0, 5.0, (0.01, 100.0, 5), c1=1e-200),
    "unitbig": _config(3, 1e200, 5e200, (1e-201, 1e-199, 201)),
    "unitsmall": _config(3, 1e-200, 5e-200, (1e199, 1e201, 201)),
    "eombig": _config(3, 1e110, 5e110, (1e-111, 1e-109, 201)),
    "eomsmall": _config(3, 1e-110, 5e-110, (1e109, 1e111, 201)),
    "planarbig": _config(2, 1e200, 3e200, (1e-201, 1e-199, 201)),
    "planarsmall": _config(2, 1e-200, 3e-200, (1e199, 1e201, 201)),
    "family5": _config(3, 1.0, 5.0, family=5),
    "tol5": _config(3, 1.0, 5.0, tolerances=5),
    "utf16": _config(3, 1.0, 5.0).decode().encode("utf-16"),
}


def _percent_g(out: str) -> None:
    """Every float field of a traj or ep CSV is its own '%.17g': the integer
    digits' and the fallback's outside zero and [1e-11, 1e17) alike."""
    header, *rows = csv.reader(out.splitlines())
    width = 7 if header[-1] == "quadrant" else None
    floats = [f for row in rows for f in row[:width] if f]
    bad = [f for f in floats if "%.17g" % float(f) != f]
    assert floats and not bad, f"fields that are not their own '%.17g': {bad[:5]}"


def _planar_checks(out: str) -> None:
    """The planar report's checks; the eom suite has one, the residual."""
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == ["phase_map", "density_map", "eom_residual", "ep_invariance"], names


def _both_kept(out: str) -> None:
    """phi + theta is pi and 3 pi, where the potential's gradient vanishes: both are kept."""
    kept = [c["n_points"] for c in json.loads(out)["checks"] if c["name"] == "eom_residual"]
    assert kept == [2], kept


def _kappa_and_v_on_every_row(out: str) -> None:
    header, *rows = csv.reader(out.splitlines())
    kappa, v = header.index("kappa"), header.index("V")
    assert rows and all(row[kappa] and row[v] for row in rows), rows[:2]


class Case(NamedTuple):
    """A command line, with ``--config PATH`` of ``config`` after its first word."""

    command: str
    config: str | None = None
    code: int = 0
    pattern: str = ""
    check: Callable[[str], None] | None = None
    one_cpu: bool = False

    def argv(self, directory: str | Path = "") -> list:
        words = shlex.split(self.command)
        if self.config:
            words[1:1] = ["--config", str(Path(directory) / f"{self.config}.json")]
        return words

    @property
    def name(self) -> str:
        return f"{self.command or '(no command)'} {self.config or ''}".strip()


_RESONANCE = '"case": "resonance_pair"'
_DERIVATIVES = "^phase derivatives: "
_EOM_UNIT = "^eom_residual: .* at this unit of length$"
_ALL = "verify --suite all"
_EOM = "verify --suite eom"

CASES = [
    # A negative number in exponent notation after a space is a value, not an option.
    Case("poles --a -1 --lam 0.3"), Case("poles --a -2.5e-1 --lam 0.5", pattern=_RESONANCE),
    # A pair near p of 1e170: the roots are formed from 2r/a - 1, a pure number.
    Case("poles --a=-1e-170 --r=-2e-170", pattern=_RESONANCE),
    # Pairs where 4 lambda - 1 or r = 2 a lambda overflows; refusals where the
    # imaginary part, or r, underflows to 0.
    Case("poles --a=-1e-300 --lam=1e308", pattern=_RESONANCE),
    Case("poles --a=-1 --lam=1e308", pattern=_RESONANCE),
    Case("poles --a=-1e20 --lam=1e308", code=2, pattern="imaginary part underflows to 0"),
    Case("poles --a -1e20 --lam 1e308", code=2, pattern="imaginary part underflows to 0"),
    Case("poles --a=-1e-200 --lam=1e-200", code=2, pattern="^no finite poles for a = "),
    Case("poles --a=-1e-300 --lam=1e-300", code=2, pattern="^no finite poles for a = "),
    # 2 a overflows, r = 2 (lambda a) does not: the double pole; ep writes the
    # phases, traj refuses their derivatives, a length squared.
    Case("poles --a=-1e308 --lam=0.25", pattern='"case": "double_virtual"'),
    Case("ep", "hugequarter"), Case("traj", "hugequarter", 2, _DERIVATIVES),
    # a (1 + sqrt(1 - 4 lambda)) overflows: the subnormal pole -7.5e-309i, not -0.
    Case("poles --a=-1.5e308 --lam=0.1", pattern='"lower_half": true'),
    Case("traj", "family3d"), Case("ep", "family3d"), Case(_ALL, "family3d"),
    Case("traj", "planar"), Case("ep", "planar"), Case(_ALL, "planar", check=_planar_checks),
    # --out /dev/null is written in place, not replaced: nothing reaches stdout.
    Case(f"{_ALL} --out /dev/null", "family3d"), Case(_ALL, "twopoint", check=_both_kept),
    # 5 blocks written in stripes by forked children are the bytes of one CPU's.
    Case("traj", "blocks", one_cpu=True), Case("ep", "blocks", one_cpu=True),
    Case(_ALL, "tight", 1),  # tolerances that cannot be met
    Case("traj", "overflow", 2), Case("ep", "overflow", 2), Case(_ALL, "overflow", 2),
    # lambda |a0 a1| p overflows: the phases are written, the inversion is refused.
    Case("traj", "inversion"), Case("ep", "inversion"), Case(_ALL, "inversion", 2),
    # Fallback fields below 1e-11 in 75% of the mixed ep rows, in every tiny traj row.
    Case("ep", "mixed"), Case("traj", "tiny"),
    # An untagged zero-range model has the zero-range potential; a zero length has none.
    Case(_EOM, "untagged"), Case("traj", "untagged"), Case("traj", "free"),
    # T2 row 4 at lambda = 1/4, a0 = a1 is the r = a/2 class: kappa and V on every row.
    Case(_EOM, "row4quarter"), Case("traj", "row4quarter", check=_kappa_and_v_on_every_row),
    # The slope inf - inf is NaN: traj and verify refuse it; ep's columns are finite.
    Case("traj", "nan", 2), Case(_ALL, "nan", 2), Case("ep", "nan"),
    # Usage errors are JSON too; --help prints help and exits 0.
    Case("", code=2), Case("verify", code=2), Case("verify --tol 1", "untagged", 2),
    Case("--help", pattern="^usage: torus-scatter"),
    # The eom residual does not depend on c1; an amplitude 1/c1^2 out of range is refused.
    Case(_EOM, "c1small"), Case("traj", "c1tiny", 2), Case(_ALL, "c1tiny", 2),
    # At lengths of 1e+-200 the lapse's derivative, a length squared, leaves
    # float64: traj and the eom suite refuse it by name; ep and wigner run.
    *(case for c in ("unitbig", "unitsmall") for case in (
        Case("ep", c), Case("verify --suite wigner", c), Case("traj", c, 2), Case(_EOM, c, 2))),
    # At lengths of 1e+-110 the eom residual's terms, lengths cubed, leave float64.
    Case(_EOM, "eombig", 2, _EOM_UNIT), Case(_EOM, "eomsmall", 2, _EOM_UNIT),
    # At 2D lengths of 1e+-200 C'' = 2/(pi p^2) leaves float64; ep runs.
    *(case for c in ("planarbig", "planarsmall") for case in (
        Case("ep", c), Case("traj", c, 2, _DERIVATIVES), Case(_EOM, c, 2))),
    # A family or tolerances that is not an object, a file that is not UTF-8.
    Case("traj", "family5", 2, "^family must be a JSON object$"),
    Case("ep", "tol5", 2, "^tolerances must be a JSON object$"),
    Case("traj", "utf16", 2, "^config file '{config}' is not valid UTF-8"),
]


def refusal(code, out, err) -> str:
    """The message of a refusal: exit 2, no stdout, and one stderr line holding
    a JSON object whose only key is "error"."""
    assert code == 2 and out == "", (code, out[:200], err)
    assert err.endswith("\n") and err.count("\n") == 1, err
    error = json.loads(err)
    assert isinstance(error, dict) and error.keys() == {"error"}, error
    return error["error"]


def problem(case: Case, directory: str | Path, run) -> str | None:
    """What ``case`` breaks of the contract, or None, with its config written
    into ``directory``; ``run(argv, one_cpu)`` gives (exit code, stdout, stderr).
    At exit 0 or 1 stderr is empty, and stdout is empty with ``--out``, else a
    CSV of '%.17g' floats or a JSON report, which passes at exit 0 only."""
    if case.config:
        (Path(directory) / f"{case.config}.json").write_bytes(CONFIGS[case.config])
    argv = case.argv(directory)
    code, out, err = result = run(argv, False)
    try:
        assert code == case.code, f"exit {code}, not {case.code}; stderr {err!r}"
        text = refusal(code, out, err) if code == 2 else out
        if code != 2:
            assert not err, f"stderr {err!r}"
            if "--out" in argv:
                assert not out, f"stdout {out[:200]!r} with --out"
            elif argv[0] in ("traj", "ep"):
                _percent_g(out)
            elif argv[0] in ("verify", "poles"):
                report = json.loads(out)
                assert argv[0] == "poles" or report["pass"] is (code == 0), report["pass"]
        pattern = case.pattern.replace("{config}", re.escape(argv[2] if case.config else ""))
        assert re.search(pattern, text, re.MULTILINE), f"no {pattern!r} in {text[:400]!r}"
        if case.check:
            case.check(out)
        assert not case.one_cpu or run(argv, True) == result, "another output on one CPU"
    except Exception as exc:  # noqa: BLE001 - any failed check is the case's problem
        return f"{type(exc).__name__}: {exc}"
    return None


def run_in_process(argv: list, one_cpu: bool = False) -> tuple:
    """(exit code, stdout, stderr) of ``torus_scatter.cli.main(argv)``."""
    from torus_scatter import cli

    cpus, out, err = os.sched_getaffinity(0), io.StringIO(), io.StringIO()
    try:
        os.sched_setaffinity(0, {min(cpus)} if one_cpu else cpus)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    finally:
        os.sched_setaffinity(0, cpus)
    return code, out.getvalue(), err.getvalue()


def run_fresh(argv: list, one_cpu: bool = False) -> tuple:
    """(exit code, stdout, stderr) of ``python -W error -m torus_scatter.cli
    ARGV`` in a fresh process with ``SRC`` first on its path."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    cpu = {min(os.sched_getaffinity(0))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "torus_scatter.cli", *argv], timeout=300,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, encoding="utf-8",
        preexec_fn=(lambda: os.sched_setaffinity(0, cpu)) if one_cpu else None,
    )
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        found = [(case.name, problem(case, tmp, run_fresh)) for case in CASES]
    failures = [f"FAIL {name}: {why}" for name, why in found if why]
    print(*failures, f"{len(CASES) - len(failures)} of {len(CASES)} CLI cases pass", sep="\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
