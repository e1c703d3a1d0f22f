"""Command-line surface: trajectory export, verification suites, pole reports.

Subcommands
-----------
``traj``    write the torus trajectory of a configured model as CSV
            (columns ``p,phi,theta,dphi_dp,dtheta_dp,kappa,V,quadrant``);
            ``kappa`` and ``V`` are empty on every row of a model with no
            closed-form potential (``geometry.closed_form`` names the three
            classes that have one from the channels, not the family tag)
            and at singular points
``verify``  run a verification suite (symmetry, eom, wigner, poles, ep, all)
            and emit a JSON report; exit 0 iff every check passes, that is
            iff each check's max_deviation is below its tolerance, which the
            config's ``tolerances`` set (``config.Check``).  A suite applies
            unless a check of it raises ``config.NotApplicable``, whose
            reason ``all`` lists under ``skipped``.  The ``eom`` suite's one
            check, in 2D as in 3D, is ``geometry.eom_residual``
``poles``   report the S-matrix pole set of one channel as JSON
``ep``      tabulate the closed-form entanglement power along the grid

Exit codes: 0 success, 1 a verification check failed, 2 usage/config error.
Usage and configuration errors are reported as one JSON object on standard
error, with nothing on standard output; ``--help`` prints help and exits 0.
``main`` parses with one parser per process, built on its first call
(``build_parser``) and reused by every later one.
All floating-point output uses 17 significant digits, so files are
bit-identical across runs for a fixed config and seed, on one machine and
NumPy build.

``traj`` and ``ep`` compute every column, refuse a value that is not finite,
then write the CSV in blocks of ``CSV_BLOCK_ROWS`` rows, so each process
holds a few blocks of text, never the whole grid's.  A block's floats are
written by an exact vectorised ``%.17g`` (the private ``_g17`` module, laid
out in one byte matrix per block), the bytes ``'%.17g' % x`` writes: the
digits of zero and of magnitudes in [1e-11, 1e17) come from integer
arithmetic, and any other value is formatted by ``'%.17g' %`` in its own
field.  The blocks are split into one contiguous stripe per available CPU
(``_write_csv``): forked children format every stripe after the first into
temporary files, which the parent copies out in order after its own, so the
bytes are those of one process writing every block in turn.  A command that
fails leaves its ``--out`` file as it was, or absent (``_output``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import stat
import sys
import warnings
from collections.abc import Iterator

import numpy as np

from . import causality, ere, geometry, spin, torus, uvir
from .config import NotApplicable, RunConfig

__all__ = ["main", "build_parser"]


def _fail(message: str) -> None:
    sys.stderr.write(json.dumps({"error": message}) + "\n")


@contextlib.contextmanager
def _output(out_path: str | None) -> Iterator:
    """The text file ``--out`` is written through, stdout when None.

    A new or regular file is written to a new file beside it, which replaces
    it, with its permissions, when the block exits cleanly and is removed
    otherwise, so a failed command leaves ``out_path`` as it was.  A symlink's
    target is replaced; another path (``/dev/null``, a pipe) is written in place.
    """
    if out_path is None:
        yield sys.stdout
        return
    try:
        mode = os.stat(out_path).st_mode
    except (OSError, ValueError):  # absent, as os.path.exists reads it
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    target = os.path.realpath(out_path) if os.path.islink(out_path) else out_path
    tmp = f"{target}.{os.urandom(6).hex()}.tmp"
    # O_EXCL takes over no existing file; 0o666 less the umask is open()'s mode.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            if mode is not None:
                os.fchmod(fd, mode & 0o7777)
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text`` through ``_output``."""
    with _output(out_path) as fh:
        fh.write(text)


#: Rows formatted per CSV block: enough that the per-block cost is
#: negligible, few enough that the text each process holds at once stays a
#: few blocks of 0.4 MB of traj rows whatever the grid size.
CSV_BLOCK_ROWS = 2048


def _csv_blocks(header: str, columns, floats: int, blank=None) -> Iterator[str]:
    """The CSV text of ``header`` and one row per entry of ``columns``, in blocks.

    Row ``k`` joins with commas the ``%.17g`` of ``columns[j][k]`` for each
    of the first ``floats`` columns, left empty where ``blank[k, j]`` is set
    (``blank``, rows x float columns, None for no empty field), then
    ``columns[j][k]`` of each later column, of printable ASCII strings, and
    ends in a newline.  A column is an array or a list.

    Each block of ``CSV_BLOCK_ROWS`` rows is written by ``_g17.csv_rows``, the
    bytes ``'%.17g' % x`` writes for every float, and yielded as one string.
    """
    # Imported here, not at the top: where no bytecode is cached, compiling
    # the formatter adds about 2 ms to every import of cli, which a process
    # that writes no CSV need not spend.
    from . import _g17

    _g17.tables()  # in the parent, before ``_write_csv`` forks
    yield header + "\n"
    texts = [np.asarray(c, dtype=str) for c in columns[floats:]]
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = slice(start, start + CSV_BLOCK_ROWS)
        xs = np.array([c[block] for c in columns[:floats]], dtype=float)
        cut = None if blank is None else blank[block]
        if cut is not None:
            xs[cut.T] = 0.0  # written as 0, then left out: a NaN there costs no fallback
        data = _g17.csv_rows(xs, cut, [t[block] for t in texts])
        del xs  # before the next block's are made
        yield data


#: Python 3.12+ warns on fork in a process that has threads (OpenBLAS starts
#: some); see ``_fork_stripe`` for why the child is safe.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)"


def _fork_stripe(fd: int, blocks: Iterator[str]) -> int:
    """Fork a child that writes the text of ``blocks`` to ``fd`` and exits:
    status 0 once every block is written, 1 on any exception.  Returns its pid.

    The child only formats floats from arrays it inherited, then makes
    ``os.write`` calls, so no lock another thread held at the fork is taken
    in it.  It points its stdout and stderr at the null device first, so it
    cannot write to an inherited descriptor, and leaves by ``os._exit``
    from a ``finally``, so it never returns into the caller and flushes no
    inherited buffer.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        for text in blocks:
            data = memoryview(text.encode())
            while data:
                data = data[os.write(fd, data):]
        status = 0
    finally:
        os._exit(status)


def _kill_and_reap(pids: list) -> None:
    """SIGKILL and reap every child in ``pids``."""
    import signal

    for pid in pids:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    pids.clear()


def _write_csv(header: str, columns, floats: int, out_path: str | None, blank=None) -> None:
    """Write ``_csv_blocks(header, columns, floats, blank)`` to ``out_path``
    or stdout, one contiguous stripe of whole blocks per available CPU (one
    stripe for fewer than two blocks, one CPU, or no ``os.sched_getaffinity``).

    ``_output`` opens the output first, one child per stripe after the first
    writes it to an unnamed temporary file (``_fork_stripe``), the parent
    writes the header and the first stripe, then reaps each child in order
    and copies its file; a single stripe starts no child and opens no
    temporary file.  A child that fails raises an OSError; on any exception
    every child still running is killed and reaped.
    """
    # Imported here, not at the top: with random, importing shutil and
    # tempfile takes about 3 ms, which a process that writes no CSV need not
    # spend.
    import shutil
    import tempfile

    rows = len(columns[0])
    blocks = -(-rows // CSV_BLOCK_ROWS)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    stripes = min(cpus, blocks)
    cuts = [min(rows, CSV_BLOCK_ROWS * (blocks * k // stripes)) for k in range(stripes + 1)]
    parts = [
        _csv_blocks(header, [c[a:b] for c in columns], floats, None if blank is None else blank[a:b])
        for a, b in zip(cuts, cuts[1:])
    ]
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(_output(out_path))
        pending: list = []
        stack.callback(_kill_and_reap, pending)
        files = [
            stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
            for _ in parts[1:]
        ]
        for tmp, part in zip(files, parts[1:]):
            next(part)  # the header, which only the first stripe writes
            pending.append(_fork_stripe(tmp.fileno(), part))
        fh.writelines(parts[0])
        for tmp in files:
            status = os.waitpid(pending[0], 0)[1]
            del pending[0]
            if status:
                raise OSError(
                    f"CSV stripe writer exited with status {os.waitstatus_to_exitcode(status)}"
                )
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh)


def _require_finite(p, columns: dict, rows=True) -> None:
    """A ValueError naming the first column of ``columns`` (name -> array over
    the grid ``p``) with a value that is not finite on ``rows``, and its momentum."""
    for name, values in columns.items():
        bad = ~np.isfinite(values) & rows
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(
                f"{name} is not finite at p = {float(p[k])!r} (got {float(values[k])!r}); "
                "no output is written"
            )


# ---------------------------------------------------------------------------
# traj
# ---------------------------------------------------------------------------

TRAJ_HEADER = "p,phi,theta,dphi_dp,dtheta_dp,kappa,V,quadrant"


def cmd_traj(cfg: RunConfig, out_path: str | None) -> int:
    """Write one CSV row per grid point.

    ``kappa`` is the inaffinity N'(p)/N(p) of the closed-form construction
    lapse, which does not depend on the config's c1, and ``V`` the
    closed-form potential at c1 at the trajectory point.  Both
    fields are empty on every row of a model with no closed-form potential
    (``geometry.closed_form`` names the three classes that have one), and at
    singular points (vanishing lapse,
    ``geometry.lapse_inaffinity``, or the potential argument within 1e-6 of
    a pole of tan^2).
    """
    model = cfg.build_model()
    traj = torus.sample_trajectory(model, cfg.build_grid())
    # kappa and v_val are printed where a row is regular.
    regular = np.zeros(traj.p.size, dtype=bool)
    kappa = v_val = np.full(traj.p.size, np.nan)
    potential = geometry.closed_form_potential(model, cfg.c1)
    if potential is not None:
        kappa, vanishing = geometry.lapse_inaffinity(traj)
        v_val = potential.value(traj.phi, traj.theta)
        regular = ~(potential.singular_mask(traj.phi, traj.theta) | vanishing)
    _require_finite(traj.p, {"phi": traj.phi, "theta": traj.theta, "dphi_dp": traj.dphi,
                             "dtheta_dp": traj.dtheta})
    _require_finite(traj.p, {"kappa": kappa, "V": v_val}, regular)
    columns = (
        traj.p, traj.phi, traj.theta, traj.dphi, traj.dtheta, kappa, v_val, traj.quadrants()
    )
    blank = np.zeros((traj.p.size, 7), dtype=bool)
    blank[:, 5:] = ~regular[:, None]
    _write_csv(TRAJ_HEADER, columns, 7, out_path, blank)
    return 0


# ---------------------------------------------------------------------------
# verify
#
# Each suite is a runner returning ``config.Check`` records from the model's
# sampled trajectory, its closed-form potential (None when it has none) and
# its ``uvir.InversionImage`` (one per op, evaluated by the first check that
# reads it), each at the config's tolerance for its check.  A suite applies
# unless one of its checks raises ``config.NotApplicable``.
# ---------------------------------------------------------------------------


def _suite_symmetry(cfg, traj, potential, image) -> list:
    return [
        uvir.verify_phase_map(traj, tol=cfg.tolerance("phase_map"), image=image),
        uvir.verify_density_map(
            traj,
            in_states=uvir._default_in_states(seed=cfg.seed),
            tol=cfg.tolerance("density_map"),
            image=image,
        ),
    ]


def _suite_eom(cfg, traj, potential, image) -> list:
    if potential is None:
        raise NotApplicable(
            "eom suite needs a closed-form potential (geometry.closed_form_potential); "
            "this model has none"
        )
    return [geometry.eom_residual(traj, potential, tol=cfg.tolerance("eom_residual"))]


def _suite_wigner(cfg, traj, potential, image) -> list:
    return [
        causality.tangent_vector_audit(traj, tol=cfg.tolerance("tangent_audit")),
        causality.quadrant_exit_audit(traj),
    ]


def _suite_poles(cfg, traj, potential, image) -> list:
    return causality.verify_poles(traj, tol=cfg.tolerance("pole_match"))


def _suite_ep(cfg, traj, potential, image) -> list:
    return [uvir.verify_ep_invariance(traj, tol=cfg.tolerance("ep_invariance"), image=image)]


#: name -> runner, in report order.
_SUITES = {
    "symmetry": _suite_symmetry,
    "eom": _suite_eom,
    "wigner": _suite_wigner,
    "poles": _suite_poles,
    "ep": _suite_ep,
}
SUITES = (*_SUITES, "all")


def cmd_verify(cfg: RunConfig, suite: str, out_path: str | None) -> int:
    model = cfg.build_model()
    traj = torus.sample_trajectory(model, cfg.build_grid())
    potential = geometry.closed_form_potential(model, cfg.c1)
    image = uvir.InversionImage(traj)
    checks: list = []
    skipped: list = []
    for name in _SUITES if suite == "all" else (suite,):
        try:
            checks.extend(c.to_json() for c in _SUITES[name](cfg, traj, potential, image))
        except NotApplicable as exc:
            if suite != "all":
                raise
            skipped.append({"suite": name, "reason": str(exc)})
    if not checks:
        raise NotApplicable("no verification suite applies to this config")
    report = {"suite": suite, "checks": checks, "pass": all(c["pass"] for c in checks)}
    if suite == "all":
        report["skipped"] = skipped
    _emit(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n", out_path)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# poles / ep
# ---------------------------------------------------------------------------


def cmd_poles(a: float, lam: float | None, r: float | None, out_path: str | None) -> int:
    if lam is not None:
        poleset = causality.poles_closed_form(a, lam)
    else:
        poleset = causality.poles_numeric(a, r)
    _emit(json.dumps(poleset.to_json(), indent=2, sort_keys=True) + "\n", out_path)
    return 0


EP_HEADER = "p,phi,theta,ep"


def cmd_ep(cfg: RunConfig, out_path: str | None) -> int:
    """Tabulate p, the two phases, and the closed-form entanglement power."""
    model = cfg.build_model()
    grid = cfg.build_grid()
    phi, theta = ere.phases(model, grid)
    power = spin.entanglement_power_closed(phi, theta)
    _require_finite(grid, {"phi": phi, "theta": theta, "ep": power})
    _write_csv(EP_HEADER, (grid, phi, theta, power), 4, out_path)
    return 0


# ---------------------------------------------------------------------------
# argument parsing / dispatch
# ---------------------------------------------------------------------------


#: A negative number as an argument, not an option: argparse's own pattern
#: leaves out exponent notation such as -1e20, -2.5e-1 and -.5E+3.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise a ValueError with argparse's
    message, prefixed by the (sub)command, instead of printing usage and
    exiting, so that ``main`` reports them as exit 2 with a JSON error.  It
    and its subparsers read a negative number in exponent notation after a
    space (``--a -1e20``) as the option's value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The shared parser of ``main``: built on the first call, the same object
    after that.  Parsing keeps no state in it, so one parser serves every call."""
    parser = _Parser(
        prog="torus-scatter",
        description="Two-channel low-energy scattering on the flat phase torus: "
        "trajectories, symmetry/causality verification, pole reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_traj = sub.add_parser("traj", help="export a trajectory as CSV")
    p_traj.add_argument("--config", required=True, help="JSON run configuration")
    p_traj.add_argument("--out", default=None, help="output file (default stdout)")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--config", required=True, help="JSON run configuration")
    p_verify.add_argument("--suite", default="all", choices=SUITES)
    p_verify.add_argument("--out", default=None, help="report file (default stdout)")

    p_poles = sub.add_parser("poles", help="pole set of one channel")
    p_poles.add_argument("--a", type=float, required=True, help="scattering length")
    group = p_poles.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--lam", type=float, default=None,
        help="family parameter lambda (causal closed form, needs a < 0)",
    )
    group.add_argument("--r", type=float, default=None, help="effective range (numeric roots)")
    p_poles.add_argument("--out", default=None, help="report file (default stdout)")

    p_ep = sub.add_parser("ep", help="closed-form entanglement power along the grid")
    p_ep.add_argument("--config", required=True, help="JSON run configuration")
    p_ep.add_argument("--out", default=None, help="output file (default stdout)")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "traj":
            return cmd_traj(RunConfig.load(args.config), args.out)
        if args.command == "verify":
            return cmd_verify(RunConfig.load(args.config), args.suite, args.out)
        if args.command == "poles":
            return cmd_poles(args.a, args.lam, args.r, args.out)
        return cmd_ep(RunConfig.load(args.config), args.out)
    except (ValueError, ArithmeticError) as exc:
        _fail(str(exc))
        return 2
    except OSError as exc:
        _fail(f"i/o error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
