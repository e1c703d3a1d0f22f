"""Independent references for the tests, the only module under ``tests/``
that forms a value at high precision.

The phases, their momentum derivatives, the lapse, the tangent margins and
the amplitude poles come at 50 digits from the effective-range expansion
itself, not from the library's (S, C) pairs, and every such function returns
Python floats or complex numbers.  The symbolic pair behind the
inversion-map certificates and the float references of the quadrant
labeller, the polyline distance and the CSV writers are here too.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import sympy

from torus_scatter import ere

DPS = 50


def phase(ch, p):
    """2 delta of a ``Channel3D`` or ``Channel2D`` at the working precision,
    on the code's continuous branch (0 at threshold).

    From cot(delta) = k: 2 delta = pi - 2 atan(k), less 2 pi for a 3D channel
    with a > 0, whose phase starts from 0 downwards.  3D: k = (-1/a + r p^2/2)/p;
    2D: k = -(2/pi) log(a2 p).
    """
    if isinstance(ch, ere.Channel2D):
        return mp.pi - 2 * mp.atan(-(2 / mp.pi) * mp.log(mp.mpf(ch.a2) * p))
    a, r = mp.mpf(ch.a), mp.mpf(ch.r)
    k = (-1 / a + r * p * p / 2) / p
    return mp.pi - 2 * mp.atan(k) - (2 * mp.pi if a > 0 else 0)


def _diff(ch, p, n):
    return mp.diff(lambda q: phase(ch, q), mp.mpf(p), n)


def derivative(ch, p, n: int) -> float:
    """The n-th momentum derivative of ``phase`` at p (n = 0: the phase), to 50 digits."""
    with mp.workdps(DPS):
        return float(_diff(ch, p, n))


def tangent_margin(ch, p) -> float:
    """p x' - sin x of the phase x of one channel, to 50 digits."""
    with mp.workdps(DPS):
        p = mp.mpf(p)
        return float(p * _diff(ch, p, 1) - mp.sin(phase(ch, p)))


def lapse(model, c1):
    """The lapse N(p) of a closed-form class at the working precision:
    (c1/p)(sin phi - eps sin theta) at 3D zero range, sqrt(2) c1 (phi' - eps
    theta') on the lambda = 1/4 branch and c1 (phi' - theta') in 2D, with
    eps = -1 for lengths of equal sign."""
    singlet, triplet = model.channels
    if model.dimension == 2:
        return lambda p: c1 * (_diff(singlet, p, 1) - _diff(triplet, p, 1))
    eps = -1 if singlet.a * triplet.a > 0 else 1
    if singlet.r == 0.0:
        return lambda p: c1 / p * (mp.sin(phase(singlet, p)) - eps * mp.sin(phase(triplet, p)))
    return lambda p: mp.sqrt(2) * c1 * (_diff(singlet, p, 1) - eps * _diff(triplet, p, 1))


def lapse_span(model, c1, nodes) -> float:
    """The integral of ``lapse`` over the momenta ``nodes`` (interval ends and
    the points where a phase passes pi): tanh-sinh quadrature to 30 digits of
    the lapse at 50."""
    n = lapse(model, c1)

    def integrand(p):
        with mp.workdps(DPS):
            return n(p)

    with mp.workdps(30):
        return float(mp.quad(integrand, [mp.mpf(p) for p in nodes]))


def pole_roots(a, r=None, *, lam=None) -> tuple:
    """Both roots of p^2 - (2i/r) p - 2/(a r) at the float a and r (or at
    r = 2 a lam, formed at 50 digits, when ``lam`` is given): the larger in
    size, i/r +/- sqrt(2/(a r) - 1/r^2), then the product -2/(a r) over it,
    which has no cancellation."""
    with mp.workdps(DPS):
        a = mp.mpf(a)
        r = 2 * a * mp.mpf(lam) if lam is not None else mp.mpf(r)
        half_sum, prod = 1j / r, -2 / (a * r)
        s = mp.sqrt(half_sum**2 - prod)
        big = max(half_sum + s, half_sum - s, key=abs)
        return complex(big), complex(prod / big)


def symbolic_pair(dimension: int, a, r, p) -> tuple:
    """(S, C) of one channel as sympy expressions, with e^{i delta}
    proportional to C + iS: 3D S = -a p, C = 1 - a r p^2/2; 2D S = 1,
    C = -(2/pi) log(a p) (r is ignored)."""
    if dimension == 2:
        return sympy.Integer(1), -2 / sympy.pi * sympy.log(a * p)
    return -a * p, 1 - a * r * p**2 / 2


def polyline_distance_all_pairs(points, polyline):
    """Reference for ``geometry.point_to_polyline_distance``: every
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
    from torus_scatter import cli, geometry, torus

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
    from torus_scatter import spin

    grid = cfg.build_grid()
    phi, theta = ere.phases(cfg.build_model(), grid)
    return "p,phi,theta,ep\n" + ep_rows_oracle(
        grid, phi, theta, spin.entanglement_power_closed(phi, theta)
    )
