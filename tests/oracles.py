"""Independent references for the tests, the only module under ``tests/``
that forms a value at high precision.

The phases, their momentum derivatives, the lapse, the tangent margins and
the amplitude poles come at 50 digits from the effective-range expansion
itself, not from the library's (S, C) pairs, and every such function returns
Python floats or complex numbers.  The symbolic pair behind the
inversion-map certificates, the certificate of the harmonic affine orbit and
its 50-digit wall time, the LSODA integration of the affine motion, and the
float references of the quadrant labeller, the polyline distance and the CSV
writers are here too.
"""

from __future__ import annotations

import math
import warnings

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
    theta') in the lambda = 1/4 class and c1 (phi' - theta') in 2D, with
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


#: Relative and absolute error targets of ``affine_lsoda``'s steps.  At 1e-11
#: and 1e-12 LSODA's 2D first-integral drift reached 1.3e-10 to 4.8e-10 on the
#: affine benchmark's intervals; here it stays below 5e-12.
AFFINE_RTOL, AFFINE_ATOL = 1e-13, 1e-14


def affine_lsoda(potential, init, tau):
    """Reference for ``geometry.integrate_affine``: x''_a = -dV/dx_a from
    (phi, theta, phi', theta') integrated numerically at the samples ``tau``
    (from 0, monotonic) by one scipy ``odeint`` call (LSODA, Petzold 1983).

    Returns a ``geometry.AffineCurve``.  If the integrator fails (typically by
    running into a potential singularity) the curve is cut before the first
    sample it did not reach, and the diagnostic names the tau it reached, the
    potential argument u at its last right-hand-side evaluation and the
    cause; no warning is raised.
    """
    from scipy.integrate import ODEintWarning, odeint

    from torus_scatter import geometry

    tau = np.asarray(tau, dtype=float)
    last_u = [math.nan]
    with warnings.catch_warnings():
        # A failure is read from ``tcur`` and the message, not the warning.
        warnings.simplefilter("ignore", ODEintWarning)
        y, info = odeint(
            affine_rhs(potential, last_u),
            [float(v) for v in init],
            tau,
            rtol=AFFINE_RTOL,
            atol=AFFINE_ATOL,
            full_output=True,
            tfirst=True,
        )
    # ``tcur`` of a failed interval is the tau reached; the rows of y from it
    # on, and tcur after it, hold uninitialised memory, which may read as a
    # NaN: keep the samples before the first output time not reached.
    span = float(tau[-1])
    with np.errstate(invalid="ignore"):
        short = ~(np.sign(span) * info["tcur"] >= np.sign(span) * tau[1:])
    truncated = bool(short.any())
    diagnostic = ""
    if truncated:
        failed = int(np.argmax(short))
        tau, y = tau[: failed + 1], y[: failed + 1]
        # scipy appends a guess at a Jacobian fault; none is passed here.
        cause = info["message"].partition(" (perhaps")[0]
        diagnostic = (
            f"integrator stopped at tau = {float(info['tcur'][failed])!r} of {span!r}, "
            f"where the potential argument was last u = {last_u[0]!r}: {cause}"
        )
    phi, theta, dphi, dtheta = y.T
    return geometry.AffineCurve(tau, phi, theta, dphi, dtheta, truncated, diagnostic)


def affine_rhs(potential, last_u: list):
    """``affine_lsoda``'s right-hand side (phi', theta', -dV/dphi, -dV/dtheta).

    The potential depends on phi and theta only through its argument u, and
    dV/dtheta = epsilon dV/dphi, so one slope 2 A s tan(u) sec^2(u), formed on
    Python floats in the order of ``gradient``'s arithmetic, gives both
    forces bit for bit.  tan and cos stay NumPy's: ``math.tan`` differs from
    them in the last bit on some arguments.  Each call leaves its u in
    ``last_u[0]``, for the diagnostic of a failure.
    """
    eps = potential.epsilon
    coeff = 2.0 * potential.amplitude * potential.scale

    def rhs(_tau, y):
        phi, theta, dphi, dtheta = y.tolist()
        u = last_u[0] = potential.argument(phi, theta)
        cos_u = float(np.cos(u))
        g_phi = coeff * float(np.tan(u)) * (1.0 / (cos_u * cos_u))
        return [dphi, dtheta, -g_phi, -eps * g_phi]

    return rhs


def harmonic_orbit_residuals(scale, epsilon, chi) -> list:
    """Certificate of the closed-form affine motion: three expressions that
    ``sympy`` simplifies to 0 for V = A tan^2(u), u = scale (phi + epsilon
    theta) + chi, with A a nonzero real symbol.

    d/dtau along x'' = -grad V is the derivation phi' d/dphi + theta' d/dtheta
    - V_phi d/dphi' - V_theta d/dtheta', so an identity in (phi, theta, phi',
    theta') holds on every solution.  The expressions are v'' with v = phi -
    epsilon theta, K' with K = u'^2/2 + 2 A scale^2 tan^2(u), and (sin u)'' +
    (2K + 4 A scale^2) sin u.
    """
    phi, theta, dphi, dtheta = sympy.symbols("phi theta phi_dot theta_dot", real=True)
    amp = sympy.Symbol("A", real=True, nonzero=True)
    u = scale * (phi + epsilon * theta) + chi
    potential = amp * sympy.tan(u) ** 2
    force = (-sympy.diff(potential, phi), -sympy.diff(potential, theta))

    def rate(f):
        return (
            sympy.diff(f, phi) * dphi + sympy.diff(f, theta) * dtheta
            + sympy.diff(f, dphi) * force[0] + sympy.diff(f, dtheta) * force[1]
        )

    k = (scale * (dphi + epsilon * dtheta)) ** 2 / 2 + 2 * amp * scale**2 * sympy.tan(u) ** 2
    w = sympy.sin(u)
    return [
        sympy.simplify(e)
        for e in (
            rate(rate(phi - epsilon * theta)),
            rate(k),
            rate(rate(w)) + (2 * k + 4 * amp * scale**2) * w,
        )
    ]


def affine_wall_time(potential, init, tau_span) -> float | None:
    """The first tau between 0 and ``tau_span`` at which |sin u| = 1 on the
    affine motion from ``init``, or None: a root at the working precision of
    sin u(tau) = w0 cos(Omega tau) + (w0'/Omega) sin(Omega tau), the harmonic
    orbit that ``harmonic_orbit_residuals`` certifies, with Omega^2 = 2K + 4 A
    s^2 from the start.  The first sample of a scan of 4000 at which |sin u|
    reaches 1 brackets the root for bisection."""
    with mp.workdps(DPS):
        phi0, theta0, dphi0, dtheta0 = (mp.mpf(x) for x in init)
        s, amp = mp.mpf(potential.scale), mp.mpf(potential.amplitude)
        u0 = s * (phi0 + potential.epsilon * theta0) + mp.mpf(potential.chi)
        du0 = s * (dphi0 + potential.epsilon * dtheta0)
        omega = mp.sqrt(mp.mpc(du0**2 + 4 * amp * s**2 / mp.cos(u0) ** 2))
        w0, dw0 = mp.sin(u0), mp.cos(u0) * du0

        def gap(tau):
            return 1 - abs(mp.re(w0 * mp.cos(omega * tau) + dw0 * mp.sin(omega * tau) / omega))

        scan = [mp.mpf(tau_span) * k / 4000 for k in range(4001)]
        for lo, hi in zip(scan, scan[1:]):
            if gap(hi) <= 0:
                return float(mp.findroot(gap, (lo, hi), solver="bisect"))
    return None


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


#: The labels of the quadrant labeller, ``torus.Trajectory.quadrants``.
QUADRANT_LABELS = ("top-right", "top-left", "bottom-left", "bottom-right", "boundary")


def quadrant_oracle(phi, theta):
    """Reference for the quadrant labeller: the label of one sample from the
    signs of the sines of its wrapped phases, a sine below
    ``torus.BOUNDARY_TOL`` in magnitude being an edge."""
    from torus_scatter import torus

    sp, st = (math.sin(torus.wrap_angle(x)) for x in (phi, theta))
    if abs(sp) < torus.BOUNDARY_TOL or abs(st) < torus.BOUNDARY_TOL:
        return "boundary"
    if sp > 0:
        return "top-right" if st > 0 else "bottom-right"
    return "top-left" if st > 0 else "bottom-left"


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
    positions = [quadrant_oracle(f, t) for f, t in zip(traj.phi, traj.theta)]
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
