"""Command-line surface: trajectory export, verification suites, pole reports.

Subcommands
-----------
``traj``    write the torus trajectory of a configured model as CSV
            (columns ``p,phi,theta,dphi_dp,dtheta_dp,kappa,V,quadrant``)
``verify``  run a verification suite (symmetry, eom, wigner, poles, ep, all)
            and emit a JSON report; exit 0 iff every check passes
``poles``   report the S-matrix pole set of one channel as JSON
``ep``      tabulate the closed-form entanglement power along the grid

Exit codes: 0 success, 1 a verification check failed, 2 usage/config error.
Configuration errors are reported as one JSON object on standard error.
All floating-point output uses 17 significant digits, so files are
bit-identical across runs for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import causality, ere, geometry, spin, torus, uvir
from .config import ConfigError, RunConfig

__all__ = ["main", "build_parser", "SuiteError"]

SUITES = ("symmetry", "eom", "wigner", "poles", "ep", "all")


class SuiteError(ValueError):
    """A verification suite that does not apply to the configured model."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fail(message: str) -> None:
    sys.stderr.write(json.dumps({"error": message}) + "\n")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# traj
# ---------------------------------------------------------------------------

TRAJ_HEADER = "p,phi,theta,dphi_dp,dtheta_dp,kappa,V,quadrant"


def _model_potential(cfg: RunConfig, model: ere.TwoChannelModel) -> geometry.GeometricPotential:
    if model.dimension == 2:
        return geometry.potential_2d(model.singlet.a2, model.triplet.a2, c1=cfg.c1)
    branch = ere.quarter_lambda_branch(model)
    if branch == "solvable":
        return geometry.potential_lam14(cfg.a0, cfg.a1, c1=cfg.c1)
    return geometry.potential_3d(cfg.a0, cfg.a1, c1=cfg.c1)


def cmd_traj(cfg: RunConfig, out_path: str | None) -> int:
    """Write one CSV row per grid point.

    ``kappa`` is the inaffinity N'(p)/N(p) of the closed-form construction
    lapse and ``V`` the closed-form potential at the trajectory point; both
    fields are left empty at singular points (vanishing lapse, or the
    potential argument within 1e-6 of a pole of tan^2).
    """
    model = cfg.build_model()
    grid = cfg.build_grid()
    traj = torus.sample_trajectory(model, grid)
    potential = _model_potential(cfg, model)
    dphi, dtheta = ere.tangents(model, grid)
    dphi = np.atleast_1d(np.asarray(dphi, dtype=float))
    dtheta = np.atleast_1d(np.asarray(dtheta, dtype=float))
    n_val, dn_val = geometry.construction_lapse(model, potential, grid)
    n_val = np.atleast_1d(np.asarray(n_val, dtype=float))
    dn_val = np.atleast_1d(np.asarray(dn_val, dtype=float))
    v_val = np.atleast_1d(np.asarray(potential.value(traj.phi, traj.theta), dtype=float))
    singular = np.atleast_1d(potential.singular_mask(traj.phi, traj.theta)) | (
        np.abs(n_val) < geometry.LAPSE_SINGULAR_TOL * abs(cfg.c1)
    )
    kappa = np.full(grid.size, np.nan)
    ok = ~singular
    kappa[ok] = dn_val[ok] / n_val[ok]
    quads = traj.quadrants()
    lines = [TRAJ_HEADER]
    for k in range(grid.size):
        if singular[k]:
            kappa_str = v_str = ""
        else:
            kappa_str = _fmt(kappa[k])
            v_str = _fmt(v_val[k])
        lines.append(
            ",".join(
                (
                    _fmt(grid[k]),
                    _fmt(traj.phi[k]),
                    _fmt(traj.theta[k]),
                    _fmt(dphi[k]),
                    _fmt(dtheta[k]),
                    kappa_str,
                    v_str,
                    quads[k].position,
                )
            )
        )
    _emit("\n".join(lines) + "\n", out_path)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _check_dict(name: str, max_deviation: float, tolerance: float, passed: bool, **extra) -> dict:
    out = {
        "name": name,
        "max_deviation": float(max_deviation),
        "tolerance": float(tolerance),
        "pass": bool(passed),
    }
    out.update(extra)
    return out


def _tol(cfg: RunConfig, name: str, override: float | None) -> float:
    return float(override) if override is not None else cfg.tolerance(name)


def _density_states(cfg: RunConfig, n: int = 10) -> np.ndarray:
    return spin.haar_product_states(n, rng=np.random.default_rng(cfg.seed))


def _suite_symmetry(cfg, model, grid, tol_override) -> list:
    if model.family is None:
        raise SuiteError("symmetry suite needs a family tag (table/row) in the config")
    checks = [
        uvir.verify_phase_map(model, grid, tol=_tol(cfg, "phase_map", tol_override)).to_json(),
        uvir.verify_density_map(
            model,
            in_states=_density_states(cfg),
            p_grid=grid,
            tol=_tol(cfg, "density_map", tol_override),
        ).to_json(),
    ]
    return checks


def _suite_eom(cfg, model, grid, tol_override) -> list:
    if model.family is None:
        raise SuiteError("eom suite needs a family tag identifying a solvable-potential model")
    tol = _tol(cfg, "eom_residual", tol_override)
    if model.dimension == 2:
        potential = geometry.potential_2d(model.singlet.a2, model.triplet.a2, c1=cfg.c1)
        report = geometry.eom_residual(model, potential, p_grid=grid)
        over = geometry.overdetermination_2d(
            model, grid, tol=_tol(cfg, "overdetermination", tol_override)
        )
        return [
            _check_dict("eom_residual", report.max_norm, tol, report.max_norm < tol,
                        n_points=int(report.p.size)),
            {"name": "overdetermination_2d", **over.to_json()},
        ]
    if model.singlet.r == 0.0 and model.triplet.r == 0.0:
        potential = geometry.potential_3d(cfg.a0, cfg.a1, c1=cfg.c1)
    elif ere.quarter_lambda_branch(model) == "solvable":
        potential = geometry.potential_lam14(cfg.a0, cfg.a1, c1=cfg.c1)
    else:
        raise SuiteError(
            "eom suite needs a solvable-potential family: zero effective ranges "
            "or the lambda = 1/4 branch with r = +2 a lambda in both channels"
        )
    report = geometry.eom_residual(model, potential, p_grid=grid)
    return [
        _check_dict("eom_residual", report.max_norm, tol, report.max_norm < tol,
                    n_points=int(report.p.size)),
    ]


def _suite_wigner(cfg, model, grid, tol_override) -> list:
    if model.dimension != 3:
        raise SuiteError("wigner suite applies to 3D models (2D has the area bound instead)")
    traj = torus.sample_trajectory(model, grid)
    tol = _tol(cfg, "tangent_audit", tol_override)
    tangent = causality.tangent_vector_audit(traj, tol=tol)
    worst = min((m for _p, _c, m in tangent.violations), default=0.0)
    exits = causality.quadrant_exit_audit(traj)
    return [
        _check_dict(
            "tangent_audit", abs(min(worst, 0.0)), tol, tangent.passed,
            violations=len(tangent.violations),
        ),
        _check_dict(
            "quadrant_exit_audit", float(len(exits.forbidden)), 1.0, exits.passed,
            crossings=len(exits.crossings),
        ),
    ]


def _causal_lambda(model: ere.TwoChannelModel) -> float:
    """lambda of a causal self-correlated family (r = 2 a lambda, a < 0, both channels)."""
    if model.dimension != 3 or model.family is None:
        raise SuiteError("poles suite needs a 3D model with a family tag")
    lam = model.family.lam
    for ch in (model.singlet, model.triplet):
        if ch.unitarity or ch.a >= 0 or abs(ch.r - 2.0 * ch.a * lam) > 1e-12 * abs(ch.r):
            raise SuiteError(
                "poles suite needs the causal family with r = 2 a lambda and "
                "a < 0 in both channels (e.g. T3 row 6)"
            )
    return lam


def _suite_poles(cfg, model, grid, tol_override) -> list:
    lam = _causal_lambda(model)
    tol = _tol(cfg, "pole_match", tol_override)
    checks = []
    worst_im = -np.inf
    for label, ch in (("singlet", model.singlet), ("triplet", model.triplet)):
        closed = causality.poles_closed_form(ch.a, lam)
        numeric = causality.poles_numeric(ch.a, ch.r)
        closed_list = sorted(
            (p for p, m in closed.poles for _ in range(m)), key=lambda z: (z.real, z.imag)
        )
        numeric_list = sorted(
            (p for p, m in numeric.poles for _ in range(m)), key=lambda z: (z.real, z.imag)
        )
        dev = max(abs(c - n) for c, n in zip(closed_list, numeric_list))
        checks.append(
            _check_dict(
                f"pole_match_{label}", dev, tol, dev < tol, case=closed.classification
            )
        )
        worst_im = max(worst_im, max(p.imag for p, _m in closed.poles))
    checks.append(
        _check_dict("pole_lower_half", worst_im, 0.0, worst_im < 0.0)
    )
    return checks


def _suite_ep(cfg, model, grid, tol_override) -> list:
    if model.family is None:
        raise SuiteError("ep suite needs a family tag (table/row) in the config")
    mapping = uvir.expected_map(model.family.table, model.family.row)
    if mapping.rho_class not in (uvir.RhoClass.RHO, uvir.RhoClass.RHO_BAR):
        raise SuiteError(
            "ep suite applies to families mapping onto rho or rho-bar as a whole; "
            f"this row mixes sectors ({mapping.rho_class.value})"
        )
    return [
        uvir.verify_ep_invariance(
            model, grid, tol=_tol(cfg, "ep_invariance", tol_override)
        ).to_json()
    ]


_SUITE_RUNNERS = {
    "symmetry": _suite_symmetry,
    "eom": _suite_eom,
    "wigner": _suite_wigner,
    "poles": _suite_poles,
    "ep": _suite_ep,
}


def cmd_verify(cfg: RunConfig, suite: str, out_path: str | None, tol_override: float | None) -> int:
    model = cfg.build_model()
    grid = cfg.build_grid()
    if suite == "all":
        checks: list = []
        skipped: list = []
        for name in ("symmetry", "eom", "wigner", "poles", "ep"):
            try:
                checks.extend(_SUITE_RUNNERS[name](cfg, model, grid, tol_override))
            except SuiteError as exc:
                skipped.append({"suite": name, "reason": str(exc)})
        if not checks:
            raise SuiteError("no verification suite applies to this config")
        report = {
            "suite": "all",
            "checks": checks,
            "skipped": skipped,
            "pass": all(c["pass"] for c in checks),
        }
    else:
        checks = _SUITE_RUNNERS[suite](cfg, model, grid, tol_override)
        report = {
            "suite": suite,
            "checks": checks,
            "pass": all(c["pass"] for c in checks),
        }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", out_path)
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


def cmd_ep(cfg: RunConfig, out_path: str | None) -> int:
    """Tabulate p, the two phases, and the closed-form entanglement power."""
    model = cfg.build_model()
    grid = cfg.build_grid()
    phi, theta = ere.phases(model, grid)
    power = spin.entanglement_power_closed(phi, theta)
    lines = ["p,phi,theta,ep"]
    for k in range(grid.size):
        lines.append(
            ",".join((_fmt(grid[k]), _fmt(phi[k]), _fmt(theta[k]), _fmt(power[k])))
        )
    _emit("\n".join(lines) + "\n", out_path)
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
