"""Independent references for the tests, the only module under ``tests/``
that forms a value at high precision.

The phases, their momentum derivatives, the lapse, the tangent margins and
the amplitude poles come at 50 digits from the effective-range expansion
itself, not from the library's (S, C) pairs, and every such function returns
Python floats or complex numbers.  The symbolic pair behind the
inversion-map certificates, the certificate of the harmonic affine orbit and
its 50-digit wall time, the LSODA integration of the affine motion, the
operator-level spin chain (the S operator, its out-state density matrices,
the density-map check point by point and a Monte-Carlo entanglement power),
the log grid closed under the momentum inversion, and the float references
of the quadrant labeller, the polyline distance and the CSV writers are here
too.
"""

from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
import sympy

from torus_scatter import config, ere, spin, uvir

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


def zero_range_orbit_residual(signs, scale, epsilon, chi):
    """Certificate that the 3D zero-range curve lies on its harmonic orbit:
    sin(s (phi + eps theta) + chi) - K sin(s (phi - eps theta)), with
    K = ((a0 - a1)/(a0 + a1))^(-eps), which ``sympy`` simplifies to 0 as a
    function of |a0|, |a1| and p for lengths of sign ``signs``.

    phi = 2 delta_0 and theta = 2 delta_1, with sin delta and cos delta of
    each channel from its ERE pair at r = 0 (``symbolic_pair``), normalized:
    sin delta = -a p / sqrt(1 + a^2 p^2), cos delta = 1 / sqrt(1 + a^2 p^2).
    """
    magnitude0, magnitude1, p = sympy.symbols("A0 A1 p", positive=True)
    lengths = signs[0] * magnitude0, signs[1] * magnitude1
    deltas = sympy.symbols("delta0 delta1", real=True)
    on_curve = {}
    for delta, a in zip(deltas, lengths):
        sin_part, cos_part = symbolic_pair(3, a, 0, p)
        norm = sympy.sqrt(sin_part**2 + cos_part**2)
        on_curve[sympy.sin(delta)] = sin_part / norm
        on_curve[sympy.cos(delta)] = cos_part / norm
    phi, theta = 2 * deltas[0], 2 * deltas[1]
    k = ((lengths[0] - lengths[1]) / (lengths[0] + lengths[1])) ** -epsilon
    orbit = sympy.sin(scale * (phi + epsilon * theta) + chi) - k * sympy.sin(
        scale * (phi - epsilon * theta)
    )
    return sympy.simplify(sympy.expand_trig(orbit).subs(on_curve))


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
    grid = cfg.build_grid()
    phi, theta = ere.phases(cfg.build_model(), grid)
    return "p,phi,theta,ep\n" + ep_rows_oracle(
        grid, phi, theta, spin.entanglement_power_closed(phi, theta)
    )


# Pauli matrices (sigma_x, sigma_y, sigma_z).
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def build_swap() -> np.ndarray:
    """The SWAP (particle exchange) operator as ``(1 + sigma.sigma)/2``, with
    ``sigma.sigma`` the sum of ``sigma_i (x) sigma_i`` over the Pauli matrices:
    eigenvalue +1 on the three triplet states and -1 on the singlet."""
    sigma_dot_sigma = sum(np.kron(s, s) for s in PAULI)
    return 0.5 * (np.eye(4) + sigma_dot_sigma)


def build_s_operator(phi, theta) -> np.ndarray:
    """The 4x4 scattering operator for singlet/triplet phases (phi, theta),
    ``(e^{i theta} + e^{i phi})/2 * 1 + (e^{i theta} - e^{i phi})/2 * SWAP``,
    which is ``e^{i phi} P_singlet + e^{i theta} P_triplet``.  Array phases
    give the stack of operators, of shape ``phi.shape + (4, 4)``.
    """
    e_phi = np.exp(1j * np.asarray(phi))[..., None, None]
    e_theta = np.exp(1j * np.asarray(theta))[..., None, None]
    return 0.5 * (e_theta + e_phi) * np.eye(4) + 0.5 * (e_theta - e_phi) * spin.SWAP


def is_unitary(op: np.ndarray, tol: float = 1e-10) -> bool:
    """``op^dagger op = 1`` to absolute tolerance ``tol``: a stack of
    operators (shape ``(..., n, n)``) passes only if every operator does; a
    NaN entry fails."""
    op = np.asarray(op)
    dev = np.swapaxes(op.conj(), -1, -2) @ op - np.eye(op.shape[-1])
    return bool(np.max(np.abs(dev), initial=0.0) <= tol)


def out_density_matrix(s_op, in_state, conjugated: bool = False) -> np.ndarray:
    """Outgoing spin density matrix ``S |in><in| S^dagger`` of one state in
    C^4; with ``conjugated=True`` the conjugated evolution ``S* |in><in| S^T``,
    which is the state evolved with phases (-phi, -theta), since ``S^T = S``."""
    out = (s_op.conj() if conjugated else s_op) @ np.asarray(in_state, dtype=complex)
    return np.outer(out, out.conj())


def linear_entropy_one_qubit(states: np.ndarray) -> np.ndarray:
    """Linear entropy ``1 - tr(rho_A^2)`` of the first qubit of each pure
    state of an (n, 4) array: with coefficient matrix M (2x2),
    ``tr(rho_A^2) = tr((M M^dagger)^2)``."""
    m = states.reshape(-1, 2, 2)
    rho_a = np.einsum("kij,klj->kil", m, m.conj())
    purity = np.einsum("kij,kji->k", rho_a, rho_a).real
    return 1.0 - purity


def entanglement_power_mc(phi, theta, n_samples: int = 100_000, seed=0) -> tuple:
    """Monte-Carlo entanglement power with its standard error: the mean
    linear entropy of the first outgoing spin over ``n_samples`` Haar
    product in-states, evolved by the scattering operator.  Returns
    ``(estimate, standard_error)``, deterministic for a fixed ``seed``."""
    states = spin.haar_product_states(n_samples, np.random.default_rng(seed))
    out = states @ build_s_operator(phi, theta).T  # row k becomes S @ states[k]
    ent = linear_entropy_one_qubit(out)
    return float(np.mean(ent)), float(np.std(ent, ddof=1) / np.sqrt(n_samples))


#: Sector signs (s_s, s_t) read off the mixed class names: "minus" is the
#: singlet sector, "plus" the triplet; "rho" keeps a sector's phase, "rhobar"
#: flips its sign.
MIXED_SIGNS = {
    uvir.RhoClass.RHO_MINUS_RHOBAR_PLUS: (+1, -1),
    uvir.RhoClass.RHO_PLUS_RHOBAR_MINUS: (-1, +1),
}


def density_map_by_point(model, in_states, grid):
    """Reference for ``uvir.verify_density_map``: the per-point loop over
    ``out_density_matrix``, as a ``config.Check`` at tolerance 1e-10."""
    sym = uvir.expected_map(model.family.table, model.family.row)
    phi, theta = ere.phases(model, grid)
    phi_inv, theta_inv = ere.phases(model, uvir.model_inverted_momentum(model, grid))
    p_s, p_t = spin.SINGLET_PROJECTOR, spin.TRIPLET_PROJECTOR
    max_dev = 0.0
    cross = []
    for k in range(grid.size):
        s_here = build_s_operator(phi[k], theta[k])
        s_image = build_s_operator(phi_inv[k], theta_inv[k])
        for psi in in_states:
            rho_image = out_density_matrix(s_image, psi)
            rho_plain = out_density_matrix(s_here, psi)
            if sym.rho_class is uvir.RhoClass.RHO:
                dev = np.max(np.abs(rho_image - rho_plain))
            elif sym.rho_class is uvir.RhoClass.RHO_BAR:
                rho_bar = out_density_matrix(s_here, psi, conjugated=True)
                dev = np.max(np.abs(rho_image - rho_bar))
            else:
                s_s, s_t = MIXED_SIGNS[sym.rho_class]
                s_mixed = build_s_operator(s_s * phi[k], s_t * theta[k])
                dev = np.max(np.abs(rho_image - out_density_matrix(s_mixed, psi)))
                cross_image = p_s @ rho_image @ p_t
                cross_plain = p_s @ rho_plain @ p_t
                idx = np.unravel_index(np.argmax(np.abs(cross_plain)), cross_plain.shape)
                if abs(cross_plain[idx]) >= 1e-12:
                    cross.append(float(np.angle(cross_image[idx] / cross_plain[idx])))
            max_dev = max(max_dev, float(dev))
    details = {"rho_class": sym.rho_class.value, "table": model.family.table}
    if cross:
        details["cross_block_phase_vs_plain_rho"] = {"min": min(cross), "max": max(cross)}
    extra = {"row": model.family.row, "details": details}
    return config.Check("density_map", max_dev, 1e-10, extra)


def inversion_fixed_point(lam, a0, a1) -> float:
    """The self-inverse momentum p* = 1/sqrt(lambda |a0 a1|) of ``uvir.inverted_momentum``."""
    return 1.0 / math.sqrt(lam * abs(a0 * a1))


def make_paired_grid(a0, a1, lam=1.0, count=101) -> np.ndarray:
    """Log grid over three decades on either side of p*, closed under the
    momentum inversion p -> 1/(eta p), eta = lambda |a0 a1|: the points
    below p* are mirrored above it, and an odd ``count`` includes p*."""
    pstar = inversion_fixed_point(lam, a0, a1)
    lower = pstar * np.logspace(-3.0, 0.0, count // 2, endpoint=False)
    upper = 1.0 / (lam * abs(a0 * a1) * lower)
    middle = [pstar] if count % 2 else []
    return np.concatenate([lower, middle, upper[::-1]])
