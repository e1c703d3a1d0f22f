"""Command-line surface: trajectory export, verification suites, pole reports.

Subcommands
-----------
``traj``    write the torus trajectory of a configured model as CSV
            (columns ``p,phi,theta,dphi_dp,dtheta_dp,kappa,V,quadrant``);
            ``kappa`` and ``V`` are empty on every row of a model with no
            closed-form potential (one exists only for 3D zero range, the
            lambda = 1/4 branch with r = +2 a lambda, and 2D with distinct
            lengths) and at singular points
``verify``  run a verification suite (symmetry, eom, wigner, poles, ep, all)
            and emit a JSON report; exit 0 iff every check passes.  ``all``
            runs the suites that apply to the model and lists the others
            under ``skipped`` with the reason
``poles``   report the S-matrix pole set of one channel as JSON
``ep``      tabulate the closed-form entanglement power along the grid

Exit codes: 0 success, 1 a verification check failed, 2 usage/config error.
Configuration errors are reported as one JSON object on standard error.
All floating-point output uses 17 significant digits, so files are
bit-identical across runs for a fixed config and seed.

``traj`` and ``ep`` compute every column before the output is opened, then
write the CSV in blocks of ``CSV_BLOCK_ROWS`` rows, each row from one
``%``-template, so the text of a large grid never sits in memory at once.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import causality, ere, geometry, spin, torus, uvir
from .config import ConfigError, RunConfig

__all__ = ["main", "build_parser", "SuiteError"]


class SuiteError(ValueError):
    """A verification suite that does not apply to the configured model."""


def _fail(message: str) -> None:
    sys.stderr.write(json.dumps({"error": message}) + "\n")


def _emit(text: str | Iterable[str], out_path: str | None) -> None:
    """Write ``text``, one string or an iterable of strings, to ``out_path`` or stdout."""
    chunks = (text,) if isinstance(text, str) else text
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


#: Rows formatted per CSV block: enough that the per-block cost is
#: negligible, few enough that the text held at once stays near 0.4 MB of
#: traj rows whatever the grid size.
CSV_BLOCK_ROWS = 2048

#: One CSV field: 17 significant digits, so a float64 round-trips exactly.
_FLOAT = "%.17g"


def _csv_blocks(header: str, templates, columns, pick=None) -> Iterator[str]:
    """The CSV text of ``header`` and one row per entry of ``columns``, in blocks.

    Row ``k`` is ``templates[pick[k]] % (columns[0][k], columns[1][k], ...)``
    (``templates[0]`` when ``pick`` is None); each template ends in a newline.
    A column is an array or a list.  Every block of ``CSV_BLOCK_ROWS`` rows
    turns its array slices into Python objects with one ``tolist`` call each
    and is yielded as one string.
    """
    yield header + "\n"
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = slice(start, start + CSV_BLOCK_ROWS)
        rows = zip(*(c[block].tolist() if isinstance(c, np.ndarray) else c[block] for c in columns))
        if pick is None:
            template = templates[0]
            yield "".join([template % row for row in rows])
        else:
            yield "".join([templates[i] % row for i, row in zip(pick[block].tolist(), rows)])


# ---------------------------------------------------------------------------
# traj
# ---------------------------------------------------------------------------

TRAJ_HEADER = "p,phi,theta,dphi_dp,dtheta_dp,kappa,V,quadrant"
#: A traj row, and a row whose ``kappa`` and ``V`` are left empty: ``%.0s``
#: takes its value and prints nothing.
_TRAJ_ROWS = (
    ",".join([_FLOAT] * 5 + ["%.0s", "%.0s", "%s\n"]),
    ",".join([_FLOAT] * 7 + ["%s\n"]),
)


def cmd_traj(cfg: RunConfig, out_path: str | None) -> int:
    """Write one CSV row per grid point.

    ``kappa`` is the inaffinity N'(p)/N(p) of the closed-form construction
    lapse and ``V`` the closed-form potential at the trajectory point.  Both
    fields are empty on every row of a model with no closed-form potential
    (``geometry.closed_form_potential``: only 3D zero range, the lambda = 1/4
    branch with r = +2 a lambda, and 2D with distinct lengths have one), and
    at singular points (vanishing lapse, ``geometry.lapse_inaffinity``, or
    the potential argument within 1e-6 of a pole of tan^2).
    """
    model = cfg.build_model()
    traj = torus.sample_trajectory(model, cfg.build_grid())
    # kappa and v_val are printed where a row is regular.
    regular = np.zeros(traj.p.size, dtype=bool)
    kappa = v_val = np.full(traj.p.size, np.nan)
    potential = geometry.closed_form_potential(model, cfg.c1)
    if potential is not None:
        kappa, vanishing = geometry.lapse_inaffinity(traj, cfg.c1)
        v_val = potential.value(traj.phi, traj.theta)
        regular = ~(potential.singular_mask(traj.phi, traj.theta) | vanishing)
    columns = (
        traj.p, traj.phi, traj.theta, traj.dphi, traj.dtheta, kappa, v_val, traj.positions()
    )
    _emit(_csv_blocks(TRAJ_HEADER, _TRAJ_ROWS, columns, pick=regular), out_path)
    return 0


# ---------------------------------------------------------------------------
# verify
#
# Each suite is a pair: a predicate giving the reason it does not apply to a
# model and its closed-form potential (None when it does), and a runner
# returning ``uvir.Check`` records from the model's sampled trajectory.
# ---------------------------------------------------------------------------


def _tol(cfg: RunConfig, name: str, override: float | None) -> float:
    return float(override) if override is not None else cfg.tolerance(name)


def _as_check(report, tol: float | None = None) -> uvir.Check:
    """The check record of a geometry or causality report."""
    if isinstance(report, geometry.EomResidualReport):
        return uvir.Check(
            "eom_residual", report.max_norm, tol, report.max_norm < tol,
            {"n_points": int(report.p.size)},
        )
    if isinstance(report, geometry.OverdeterminationReport):
        return uvir.Check(
            "overdetermination_2d", report.max_relative_deviation, report.tolerance,
            report.passed, {"n_points": int(report.p.size)},
        )
    if isinstance(report, causality.TangentAuditReport):
        worst = min((m for _p, _c, m in report.violations), default=0.0)
        return uvir.Check(
            "tangent_audit", abs(min(worst, 0.0)), tol, report.passed,
            {"violations": len(report.violations)},
        )
    if isinstance(report, causality.ExitAuditReport):
        return uvir.Check(
            "quadrant_exit_audit", float(len(report.forbidden)), 1.0, report.passed,
            {"crossings": len(report.crossings)},
        )
    raise TypeError(f"no check record for {type(report).__name__}")


def _symmetry_skip(model: ere.TwoChannelModel, potential) -> str | None:
    if model.family is None:
        return "symmetry suite needs a family tag (table/row) in the config"
    return None


def _suite_symmetry(cfg, traj, potential, tol_override) -> list:
    return [
        uvir.verify_phase_map(traj, tol=_tol(cfg, "phase_map", tol_override)),
        uvir.verify_density_map(
            traj,
            in_states=uvir._default_in_states(10, seed=cfg.seed),
            tol=_tol(cfg, "density_map", tol_override),
        ),
    ]


def _eom_skip(model: ere.TwoChannelModel, potential) -> str | None:
    if model.family is None:
        return "eom suite needs a family tag identifying a solvable-potential model"
    if potential is not None:
        return None
    if model.dimension == 2:
        return "equal 2D scattering lengths: trajectory is a geodesic, no potential"
    return (
        "eom suite needs a solvable-potential family: zero effective ranges "
        "or the lambda = 1/4 branch with r = +2 a lambda in both channels"
    )


def _suite_eom(cfg, traj, potential, tol_override) -> list:
    tol = _tol(cfg, "eom_residual", tol_override)
    checks = [_as_check(geometry.eom_residual(traj, potential), tol)]
    if traj.model.dimension == 2:
        over_tol = _tol(cfg, "overdetermination", tol_override)
        checks.append(_as_check(geometry.overdetermination_2d(traj, tol=over_tol)))
    return checks


def _wigner_skip(model: ere.TwoChannelModel, potential) -> str | None:
    if model.dimension != 3:
        return "wigner suite applies to 3D models (2D has the area bound instead)"
    return None


def _suite_wigner(cfg, traj, potential, tol_override) -> list:
    tol = _tol(cfg, "tangent_audit", tol_override)
    return [
        _as_check(causality.tangent_vector_audit(traj, tol=tol), tol),
        _as_check(causality.quadrant_exit_audit(traj)),
    ]


def _poles_skip(model: ere.TwoChannelModel, potential) -> str | None:
    """The poles suite needs a causal self-correlated family: r = 2 a lambda, a < 0."""
    if model.dimension != 3 or model.family is None:
        return "poles suite needs a 3D model with a family tag"
    if ere.ranges_follow(model, +1) and all(ch.a < 0 for ch in model.channels):
        return None
    return (
        "poles suite needs the causal family with r = 2 a lambda and "
        "a < 0 in both channels (e.g. T3 row 6)"
    )


def _suite_poles(cfg, traj, potential, tol_override) -> list:
    lam = traj.model.family.lam
    tol = _tol(cfg, "pole_match", tol_override)
    checks = []
    worst_im = -np.inf
    for label, ch in zip(("singlet", "triplet"), traj.model.channels):
        closed = causality.poles_closed_form(ch.a, lam)
        # The roots of p^2 - (2i/r) p - 2/(a r) sum to 2i/r and multiply to -2/(a r).
        poles = causality.flatten_poles(closed)
        dev = max(abs(sum(poles) * ch.r / 2j - 1), abs(math.prod(poles) * ch.a * ch.r / -2 - 1))
        checks.append(
            uvir.Check(f"pole_match_{label}", dev, tol, dev < tol, {"case": closed.classification})
        )
        worst_im = max(worst_im, max(p.imag for p, _m in closed.poles))
    checks.append(uvir.Check("pole_lower_half", worst_im, 0.0, worst_im < 0.0))
    return checks


def _ep_skip(model: ere.TwoChannelModel, potential) -> str | None:
    if model.family is None:
        return "ep suite needs a family tag (table/row) in the config"
    mapping = uvir.expected_map(model.family.table, model.family.row)
    if mapping.rho_class not in (uvir.RhoClass.RHO, uvir.RhoClass.RHO_BAR):
        return (
            "ep suite applies to families mapping onto rho or rho-bar as a whole; "
            f"this row mixes sectors ({mapping.rho_class.value})"
        )
    return None


def _suite_ep(cfg, traj, potential, tol_override) -> list:
    return [uvir.verify_ep_invariance(traj, tol=_tol(cfg, "ep_invariance", tol_override))]


#: name -> (reason the suite does not apply, or None; runner), in report order.
#: Both take the model's closed-form potential, resolved once per op.
_SUITES = {
    "symmetry": (_symmetry_skip, _suite_symmetry),
    "eom": (_eom_skip, _suite_eom),
    "wigner": (_wigner_skip, _suite_wigner),
    "poles": (_poles_skip, _suite_poles),
    "ep": (_ep_skip, _suite_ep),
}
SUITES = (*_SUITES, "all")


def cmd_verify(cfg: RunConfig, suite: str, out_path: str | None, tol_override: float | None) -> int:
    model = cfg.build_model()
    traj = torus.sample_trajectory(model, cfg.build_grid())
    potential = geometry.closed_form_potential(model, cfg.c1)
    checks: list = []
    skipped: list = []
    for name in _SUITES if suite == "all" else (suite,):
        skip_reason, run = _SUITES[name]
        reason = skip_reason(model, potential)
        if reason is None:
            checks.extend(c.to_json() for c in run(cfg, traj, potential, tol_override))
        elif suite == "all":
            skipped.append({"suite": name, "reason": reason})
        else:
            raise SuiteError(reason)
    if not checks:
        raise SuiteError("no verification suite applies to this config")
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
_EP_ROW = ",".join([_FLOAT] * 4) + "\n"


def cmd_ep(cfg: RunConfig, out_path: str | None) -> int:
    """Tabulate p, the two phases, and the closed-form entanglement power."""
    model = cfg.build_model()
    grid = cfg.build_grid()
    phi, theta = ere.phases(model, grid)
    power = spin.entanglement_power_closed(phi, theta)
    _emit(_csv_blocks(EP_HEADER, (_EP_ROW,), (grid, phi, theta, power)), out_path)
    return 0


# ---------------------------------------------------------------------------
# argument parsing / dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_verify.add_argument(
        "--tol", type=float, default=None,
        help="override every tolerance used by the suite",
    )

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "traj":
            return cmd_traj(RunConfig.load(args.config), args.out)
        if args.command == "verify":
            return cmd_verify(RunConfig.load(args.config), args.suite, args.out, args.tol)
        if args.command == "poles":
            return cmd_poles(args.a, args.lam, args.r, args.out)
        if args.command == "ep":
            return cmd_ep(RunConfig.load(args.config), args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, SuiteError, ValueError, ArithmeticError) as exc:
        _fail(str(exc))
        return 2
    except OSError as exc:
        _fail(f"i/o error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
