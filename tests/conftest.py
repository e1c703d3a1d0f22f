"""Shared fixtures, reference oracles and the acceptance-summary terminal hook."""

from __future__ import annotations

import math

import numpy as np
import pytest

from torus_scatter import ere

#: Per-criterion result lines recorded by tests/test_acceptance.py.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, passed: bool, detail: str) -> None:
    """Record one 'ACCEPTANCE n PASS/FAIL: detail' line for the summary."""
    verdict = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number} {verdict}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def polyline_distance_all_pairs(points, polyline):
    """Reference oracle for ``geometry.point_to_polyline_distance``: every
    point against every segment, 256 points at a time."""
    points = np.asarray(points, dtype=float)
    polyline = np.asarray(polyline, dtype=float)
    seg_a = polyline[:-1]
    seg_v = polyline[1:] - seg_a
    seg_len2 = np.maximum(np.einsum("ij,ij->i", seg_v, seg_v), 1e-300)
    out = np.empty(points.shape[0])
    chunk = 256
    for start in range(0, points.shape[0], chunk):
        pts = points[start : start + chunk]
        diff = pts[:, None, :] - seg_a[None, :, :]
        t = np.clip(np.einsum("kij,ij->ki", diff, seg_v) / seg_len2, 0.0, 1.0)
        proj = seg_a[None, :, :] + t[:, :, None] * seg_v[None, :, :]
        d2 = np.sum((pts[:, None, :] - proj) ** 2, axis=2)
        out[start : start + chunk] = np.sqrt(np.min(d2, axis=1))
    return out


def quadrant_oracle(phi, theta):
    """Reference for the quadrant labeller: the ``Quadrant`` of one sample
    from the signs of the sines of its wrapped phases, a sine below
    ``torus.BOUNDARY_TOL`` in magnitude being an edge."""
    from torus_scatter import torus

    sp, st = (math.sin(torus.wrap_angle(x)) for x in (phi, theta))
    if abs(sp) < torus.BOUNDARY_TOL or abs(st) < torus.BOUNDARY_TOL:
        return torus.Quadrant.BOUNDARY
    if sp > 0:
        return torus.Quadrant.I if st > 0 else torus.Quadrant.IV
    return torus.Quadrant.II if st > 0 else torus.Quadrant.III


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def traj_rows_oracle(grid, phi, theta, dphi, dtheta, kappa, v_val, regular, positions) -> str:
    """Reference for the rows of ``cli.cmd_traj``: one ``_fmt`` call per field,
    ``kappa`` and ``V`` empty where ``regular`` is false."""
    lines = []
    for k in range(len(grid)):
        if regular[k]:
            kappa_str, v_str = _fmt(kappa[k]), _fmt(v_val[k])
        else:
            kappa_str = v_str = ""
        fields = (grid[k], phi[k], theta[k], dphi[k], dtheta[k])
        lines.append(",".join([*map(_fmt, fields), kappa_str, v_str, positions[k]]) + "\n")
    return "".join(lines)


def traj_csv_oracle(cfg) -> str:
    """Reference for the text ``cli.cmd_traj`` writes for ``cfg``: the arrays
    computed as the command computes them, then the per-field loop."""
    from torus_scatter import cli, ere, geometry, torus

    model = cfg.build_model()
    grid = cfg.build_grid()
    traj = torus.sample_trajectory(model, grid)
    dphi, dtheta = (np.atleast_1d(np.asarray(x, dtype=float)) for x in ere.tangents(model, grid))
    regular = np.zeros(grid.size, dtype=bool)
    kappa = v_val = None
    potential = geometry.closed_form_potential(model, cfg.c1)
    if potential is not None:
        n_val, dn_val = geometry.construction_lapse(model, potential, grid)
        v_val = potential.value(traj.phi, traj.theta)
        regular = ~(
            potential.singular_mask(traj.phi, traj.theta)
            | (np.abs(grid * n_val / cfg.c1) < geometry.LAPSE_SINGULAR_TOL)
        )
        kappa = np.full(grid.size, np.nan)
        kappa[regular] = dn_val[regular] / n_val[regular]
    positions = [quadrant_oracle(f, t).position for f, t in zip(traj.phi, traj.theta)]
    return cli.TRAJ_HEADER + "\n" + traj_rows_oracle(
        grid, traj.phi, traj.theta, dphi, dtheta, kappa, v_val, regular, positions
    )


def ep_rows_oracle(grid, phi, theta, power) -> str:
    """Reference for the rows of ``cli.cmd_ep``: one ``_fmt`` call per field."""
    return "".join(
        ",".join(map(_fmt, (grid[k], phi[k], theta[k], power[k]))) + "\n"
        for k in range(len(grid))
    )


def ep_csv_oracle(cfg) -> str:
    """Reference for the text ``cli.cmd_ep`` writes for ``cfg``."""
    from torus_scatter import ere, spin

    grid = cfg.build_grid()
    phi, theta = ere.phases(cfg.build_model(), grid)
    return "p,phi,theta,ep\n" + ep_rows_oracle(
        grid, phi, theta, spin.entanglement_power_closed(phi, theta)
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


#: Scattering-length signs that each table row accepts (T2 rows accept any).
ROW_SIGNS = {
    "T1": {1: (1, -1), 2: (-1, 1), 3: (-1, -1), 4: (1, 1)},
    "T3": {1: (1, 1), 2: (1, -1), 3: (-1, 1), 4: (-1, -1), 5: (1, 1), 6: (-1, -1)},
}


def family_models(seed=20261018, draws=2):
    """T1-T3 rows at lambda in {0.1, 1/4, 1, 4} and 2D pairs, lengths log-uniform in [0.2, 20]."""
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(draws):
        for table, rows in (("T1", range(1, 5)), ("T2", range(1, 7)), ("T3", range(1, 7))):
            for row in rows:
                for lam in (0.1, 0.25, 1.0, 4.0) if table != "T1" else (1.0,):
                    mags = np.exp(rng.uniform(math.log(0.2), math.log(20.0), 2))
                    signs = ROW_SIGNS.get(table, {}).get(row) or rng.choice((-1, 1), 2)
                    a0, a1 = (float(s * m) for s, m in zip(signs, mags))
                    models.append(ere.make_symmetric_model(table, row, a0, a1, lam=lam))
        a0, a1 = np.exp(rng.uniform(math.log(0.2), math.log(20.0), 2))
        models.append(ere.make_2d_model(float(a0), float(a1)))
    return models
