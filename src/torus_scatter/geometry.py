"""Geometric action machinery on the flat torus.

A physical S-matrix curve p -> (phi(p), theta(p)) can be generated as a
trajectory of an external potential V(phi, theta) on the flat torus with
metric g = diag(1,1)/2, traversed with a momentum-dependent lapse N(p):

    x''_a - kappa x'_a + N^2 dV/dx_a = 0,   kappa = N'/N,

where primes are d/dp and the inverse-metric factor 2 is folded into the
potential term (g^{ab} = 2 diag(1,1)).  ``closed_form`` alone names the three
exactly solvable model classes, from the channels and not the family tag, and
gives each its ``ClosedForm`` record: the potential A tan^2(s (phi + eps
theta) + chi) and the lapse k c1 (phi' - eps theta'); every other model has
none.  The potentials and ``lapse`` (every model's, along a sampled
``torus.Trajectory``, which the trajectory-equation checks also read) read
the record, so the affine span is exact from the continuous-branch phases at
its ends (``affine_parameter_span``).
In every potential the N = 1 motion is a harmonic orbit, which
``integrate_affine`` gives in closed form.  ``point_to_polyline_distance``
measures it against the ERE curve in one pass along phi: with the segments
ordered by their lower end (as they are, or reversed, when phi runs one way
along the curve), the last segment whose lower end is below a point's phi
gives its distance where a running maximum of upper ends shows that no
other segment can be nearer; every other point takes every segment.  Either
way the distance is the all-pairs one bit for bit.

``eom_residual`` checks the trajectory equations multiplied through by N,
which stay regular where the lapse vanishes (the 2D inversion fixed point);
it is the one check of them, in 2D as in 3D, and returns a ``config.Check``.
Momenta where the potential argument hits a tan singularity (|cos| < 1e-6)
are excluded and reported.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import ere, torus
from .config import DEFAULT_TOLERANCES, Check, _linspace

__all__ = [
    "GeometricPotential",
    "ClosedForm",
    "AffineCurve",
    "epsilon_for",
    "potential_3d",
    "potential_lam14",
    "potential_2d",
    "closed_form",
    "closed_form_potential",
    "lapse",
    "construction_lapse",
    "lapse_inaffinity",
    "eom_residual",
    "integrate_affine",
    "affine_parameter_span",
    "first_integral",
    "point_to_polyline_distance",
]

#: |cos| of the potential argument below which a grid point is singular.
COS_SINGULAR_TOL = 1e-6
#: |p N / c1| below which the lapse counts as vanishing (no inaffinity).
LAPSE_SINGULAR_TOL = 1e-10


@dataclass(frozen=True)
class GeometricPotential:
    """V(phi, theta) = amplitude * tan^2(scale*(phi + epsilon*theta) + chi).

    epsilon is +1 or -1, scale positive, chi finite and c1 nonzero.  The
    amplitude must be a finite, nonzero normal float.  It scales as 1/c1^2,
    so a large or small enough c1 is refused here by name.
    """

    amplitude: float
    epsilon: int
    scale: float
    chi: float
    c1: float = 1.0

    def __post_init__(self) -> None:
        if self.epsilon not in (+1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale {self.scale!r} is not positive and finite")
        if not math.isfinite(self.chi):
            raise ValueError(f"chi {self.chi!r} is not finite")
        if self.c1 == 0.0:
            raise ValueError("c1 must be nonzero")
        if not (math.isfinite(self.amplitude) and abs(self.amplitude) >= sys.float_info.min):
            raise ValueError(
                f"potential amplitude {self.amplitude!r} at c1 = {self.c1!r} is not a finite, "
                "nonzero normal float (the amplitude scales as 1/c1^2)"
            )

    def argument(self, phi, theta):
        """u = scale (phi + epsilon theta) + chi, on arrays or Python floats."""
        return self.scale * (phi + self.epsilon * theta) + self.chi

    def value(self, phi, theta):
        t = np.tan(self.argument(np.asarray(phi), np.asarray(theta)))
        return (self.amplitude * t * t)[()]

    def gradient(self, phi, theta):
        """(dV/dphi, dV/dtheta) with dV/dphi = 2 A s tan(u) sec^2(u); the theta
        component is epsilon times the phi one."""
        u = self.argument(np.asarray(phi), np.asarray(theta))
        cos_u = np.cos(u)
        g_phi = 2.0 * self.amplitude * self.scale * np.tan(u) * (1.0 / (cos_u * cos_u))
        return g_phi[()], (self.epsilon * g_phi)[()]

    def singular_mask(self, phi, theta):
        """True where tan(argument) blows up (|cos| below ``COS_SINGULAR_TOL``)."""
        u = self.argument(np.asarray(phi), np.asarray(theta))
        return np.abs(np.cos(u)) < COS_SINGULAR_TOL


@dataclass(frozen=True)
class ClosedForm:
    """The closed form of an exactly solvable model (``closed_form``): the
    potential A tan^2(s (phi + eps theta) + chi) at c1 = 1, and the lapse
    k c1 (phi' - eps theta') that makes the model's curve a trajectory in it."""

    amplitude: float
    epsilon: int
    scale: float
    chi: float
    k: float

    def potential(self, c1: float = 1.0) -> GeometricPotential:
        """The potential at c1, of amplitude A/c1/c1."""
        if c1 == 0.0:
            raise ValueError("c1 must be nonzero")
        return GeometricPotential(self.amplitude / c1 / c1, self.epsilon, self.scale, self.chi, c1)


def epsilon_for(a0: float, a1: float) -> int:
    """Sign convention of the potential argument: -1 for equal-sign lengths."""
    if a0 == 0.0 or a1 == 0.0:
        raise ValueError("scattering lengths must be nonzero")
    return -1 if (a0 > 0.0) == (a1 > 0.0) else +1


def _zero_range_form(a0: float, a1: float) -> ClosedForm:
    """A = |a0 a1| / (|a0| + |a1|)^2, s = 1/2, chi = 0 and k = 1."""
    if a0 == 0.0 or a1 == 0.0:
        raise ValueError("zero scattering length: trivial fixed point, no potential")
    if not (math.isfinite(a0) and math.isfinite(a1)):
        raise ValueError("potential requires finite scattering lengths")
    # The ratio from both lengths scaled by one power of two, exactly, so it
    # neither overflows nor underflows at any unit of length and is the same
    # bits at every power-of-two unit.
    exponent = math.frexp(max(abs(a0), abs(a1)))[1]
    b0, b1 = math.ldexp(abs(a0), -exponent), math.ldexp(abs(a1), -exponent)
    return ClosedForm(b0 * b1 / (b0 + b1) ** 2, epsilon_for(a0, a1), 0.5, 0.0, 1.0)


def _quarter_form(a0: float, a1: float) -> ClosedForm:
    """The zero-range form with the amplitude halved, the argument rescaled
    from (phi + eps theta)/2 to (phi + eps theta)/4 and k = sqrt(2)."""
    base = _zero_range_form(a0, a1)
    return ClosedForm(0.5 * base.amplitude, base.epsilon, 0.25, base.chi, math.sqrt(2.0))


def _planar_form(a0: float, a1: float) -> ClosedForm:
    """A = -pi^2 / (4 log^2(a0/a1)), eps = +1, s = 1/2, chi = pi/2 and k = 1."""
    log_ratio = math.log(a0 / a1)
    return ClosedForm(-math.pi**2 / (4.0 * log_ratio * log_ratio), +1, 0.5, math.pi / 2, 1.0)


def closed_form(model: ere.TwoChannelModel) -> ClosedForm | None:
    """The record of the model's closed-form class, from its channels alone,
    whatever its family tag, or None.  The classes: 2D with distinct lengths;
    3D zero range (r = 0 in both channels, nonzero lengths); and the lambda =
    1/4 class, r = a/2 in both channels (``ere.ranges_follow`` at 1/4),
    nonzero lengths.  2D models with equal lengths, whose curve is a
    geodesic, and every other model have None."""
    a0, a1 = model.singlet.length, model.triplet.length
    if model.dimension == 2:
        return None if a0 == a1 else _planar_form(a0, a1)
    if 0.0 in (a0, a1):
        return None
    if model.singlet.r == 0.0 and model.triplet.r == 0.0:
        return _zero_range_form(a0, a1)
    if ere.ranges_follow(model, 0.25):
        return _quarter_form(a0, a1)
    return None


def potential_3d(a0: float, a1: float, c1: float = 1.0) -> GeometricPotential:
    """Exact geometric potential of the 3D zero-range (scattering-length) model."""
    return _zero_range_form(a0, a1).potential(c1)


def potential_lam14(a0: float, a1: float, c1: float = 1.0) -> GeometricPotential:
    """Geometric potential of the lambda = 1/4 class (r = a/2 in both
    channels), the zero-range one halved and rescaled (``_quarter_form``)."""
    return _quarter_form(a0, a1).potential(c1)


def potential_2d(a2_0: float, a2_1: float, c1: float = 1.0) -> GeometricPotential:
    """Exact geometric potential of the 2D log-periodic model.

    Defined only for distinct 2D scattering lengths; at a2_0 = a2_1 the
    trajectory is a geodesic (the diagonal) and no potential is needed.
    """
    if not (a2_0 > 0.0 and a2_1 > 0.0):
        raise ValueError("2D scattering lengths must be positive")
    if a2_0 == a2_1:
        raise ValueError(
            "equal 2D scattering lengths: trajectory is a geodesic, no potential"
        )
    return _planar_form(a2_0, a2_1).potential(c1)


def closed_form_potential(
    model: ere.TwoChannelModel, c1: float = 1.0
) -> GeometricPotential | None:
    """The potential at c1 of the model's ``closed_form``, or None."""
    form = closed_form(model)
    return None if form is None else form.potential(c1)


def lapse(traj: torus.Trajectory, c1: float = 1.0):
    """(N, dN/dp) of the model's lapse along its sampled trajectory, analytic in p.

    * 2D, and a 3D ``closed_form`` with k != 1 (the lambda = 1/4 class): the
      record's k c1 (phi' - eps theta'); at equal 2D lengths, with no record,
      c1 (phi' - theta'), which is 0;
    * every other 3D model: N = (c1/p)(sin phi - eps sin theta), which is the
      record's c1 (phi' - eps theta') at zero range (sin(phi)/p = phi').

    N is a length and dN/dp a length squared (times c1): where either
    overflows or underflows, as at lengths near 1e+-154 and beyond, this
    raises a ValueError.
    """
    return _lapse(traj, closed_form(traj.model), c1)


def _lapse(traj: torus.Trajectory, form: ClosedForm | None, c1: float):
    """``lapse`` of a trajectory whose model's ``closed_form`` is ``form``."""
    model, p = traj.model, traj.p
    try:
        with np.errstate(over="raise", under="raise"):
            if model.dimension == 3 and (form is None or form.k == 1.0):
                eps = epsilon_for(model.singlet.a, model.triplet.a)
                s = np.sin(traj.phi) - eps * np.sin(traj.theta)
                ds = np.cos(traj.phi) * traj.dphi - eps * np.cos(traj.theta) * traj.dtheta
                return c1 / p * s, c1 * (ds / p - s / (p * p))
            k, eps = (1.0, +1) if form is None else (form.k, form.epsilon)
            kc1 = k * c1
            return kc1 * (traj.dphi - eps * traj.dtheta), kc1 * (traj.d2phi - eps * traj.d2theta)
    except FloatingPointError as exc:
        raise ValueError(
            f"lapse: {exc} on p_grid [{float(p[0])!r}, {float(p[-1])!r}]; N or dN/dp is not "
            "a normal float at this unit of length"
        ) from None


def _require_closed_form(model: ere.TwoChannelModel, potential: GeometricPotential) -> ClosedForm:
    """The model's ``closed_form``, if ``potential`` is its potential."""
    form = closed_form(model)
    if form is None or potential != form.potential(potential.c1):
        raise ValueError("potential is not the model's closed-form potential")
    return form


def construction_lapse(
    model: ere.TwoChannelModel, potential: GeometricPotential, p
) -> tuple[np.ndarray, np.ndarray]:
    """(N, dN/dp) of the lapse that generates the model's curve in its own
    closed-form potential: ``lapse`` at the potential's c1, on the trajectory
    sampled at ``p`` (a scalar or a strictly increasing 1D grid of p > 0),
    in the shape of ``p``.  Any other potential raises a ValueError."""
    form = _require_closed_form(model, potential)
    # Array methods, not np.shape and np.ravel, for their Python layers' cost
    # on the one momentum this is often given.
    p = np.asarray(p, dtype=float)
    n_val, dn_val = _lapse(torus.sample_trajectory(model, p.reshape(-1)), form, potential.c1)
    return n_val.reshape(p.shape)[()], dn_val.reshape(p.shape)[()]


def lapse_inaffinity(traj: torus.Trajectory, c1: float = 1.0):
    """(kappa = dN/N, vanishing) of ``lapse`` at c1 along a sampled trajectory:
    it vanishes, and kappa is NaN, where the pure number |p N / c1| (sin phi -
    eps sin theta for the sine form) is below ``LAPSE_SINGULAR_TOL``."""
    n_val, dn_val = lapse(traj, c1)
    vanishing = np.abs(traj.p * n_val / c1) < LAPSE_SINGULAR_TOL
    return np.divide(dn_val, n_val, out=np.full(n_val.shape, np.nan), where=~vanishing), vanishing


def eom_residual(
    traj: torus.Trajectory,
    potential: GeometricPotential,
    tol: float = DEFAULT_TOLERANCES["eom_residual"],
) -> Check:
    """Relative residual of N x'' - N' x' + N^3 dV/dx, per component, along a
    sampled trajectory, as the ``eom_residual`` check: its deviation is the
    larger residual's max-norm, its extra the count of kept grid points.

    This is the trajectory equation multiplied through by the model's
    ``lapse`` N, so it stays regular where N vanishes.  For each component
    the residual |N x'' - N' x' + N^3 dV/dx| is divided by |N x''| + |N' x'|
    + |N^3 dV/dx| (0 where that sum is 0; a NaN term raises ValueError).
    All derivatives are analytic.  The terms are lengths cubed: where one
    overflows, or where their sum is 0 or subnormal at a kept point with
    N != 0, as at lengths beyond about 1e+-103, this raises a ValueError.
    Each term carries one power of c1 (the amplitude 1/c1^2), so the
    residual does not depend on it; it is evaluated in that c1-free form,
    with the lapse at c1 = 1 and the amplitude times c1^2, which neither
    overflows nor underflows where N^3 would.  Grid points where the potential
    argument is within 1e-6 of a tan singularity are excluded from the
    max-norm; a grid with none left raises ValueError.  The detail holds
    the kept ``p``, the residuals ``res_phi`` and ``res_theta`` there, each
    in [0, 1], and ``excluded``, the (p, reason) of the rest.
    """
    p, phi, theta = traj.p, traj.phi, traj.theta
    keep = ~potential.singular_mask(phi, theta)
    if not keep.any():
        raise ValueError(
            f"eom_residual: all {keep.size} grid points excluded (potential singularity)"
        )
    n_val, dn_val = (x[keep] for x in lapse(traj))
    unit = replace(
        potential, amplitude=potential.amplitude * potential.c1 * potential.c1, c1=1.0
    )
    grads = unit.gradient(phi[keep], theta[keep])
    live = n_val != 0
    res = []
    try:
        with np.errstate(over="raise"):
            n3 = n_val * n_val * n_val
            for dx, d2x, grad in zip((traj.dphi, traj.dtheta), (traj.d2phi, traj.d2theta), grads):
                terms = (n_val * d2x[keep], -dn_val * dx[keep], n3 * grad)
                total = np.abs(terms[0] + terms[1] + terms[2])
                scale = np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2])
                if np.any((scale < np.finfo(float).tiny) & live):
                    raise FloatingPointError("underflow encountered in a term sum")
                res.append(np.divide(total, scale, out=np.zeros_like(total), where=scale != 0))
    except FloatingPointError as exc:
        raise ValueError(
            f"eom_residual: {exc} on p_grid [{float(p[0])!r}, {float(p[-1])!r}]; its terms, "
            "lengths cubed, are not normal floats at this unit of length"
        ) from None
    max_norm = float(np.maximum(res[0].max(), res[1].max()))
    if math.isnan(max_norm):
        raise ValueError("eom_residual: a residual is NaN (a phase derivative overflowed)")
    return Check(
        "eom_residual", max_norm, tol, {"n_points": int(keep.sum())},
        {
            "p": p[keep],
            "res_phi": res[0],
            "res_theta": res[1],
            "excluded": [(float(pp), "potential singularity") for pp in p[~keep]],
        },
    )


@dataclass(frozen=True, eq=False)
class AffineCurve:
    """A curve in the affine parameterization (N = 1, kappa = 0).  Equal and
    hashed by identity (``eq=False``), as its array fields cannot be."""

    tau: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    dphi: np.ndarray
    dtheta: np.ndarray
    truncated: bool = False
    diagnostic: str = ""

    @property
    def points(self) -> np.ndarray:
        """The (n, 2) array of (phi, theta), as ``np.column_stack`` gives it."""
        # Filled in place: column_stack's Python layer costs more than the copy.
        points = np.empty((self.phi.size, 2))
        points[:, 0], points[:, 1] = self.phi, self.theta
        return points


def first_integral(potential: GeometricPotential, phi, theta, dphi, dtheta):
    """Conserved energy (kinetic term plus potential) of the affine motion."""
    kinetic = 0.5 * (np.asarray(dphi) ** 2 + np.asarray(dtheta) ** 2)
    return (kinetic + potential.value(phi, theta))[()]


def integrate_affine(
    potential: GeometricPotential,
    init: tuple[float, float, float, float],
    tau_span: float,
    n_samples: int = 1000,
) -> AffineCurve:
    """The motion x''_a = -dV/dx_a from (phi, theta, phi', theta'), in closed form.

    The inverse-metric factor is folded in as in ``eom_residual`` with N = 1.
    With V = A tan^2(u), u = s (phi + eps theta) + chi, v = phi - eps theta
    moves freely and w = sin u obeys w'' = -Omega^2 w, Omega^2 = u'^2 + 4 A s^2
    / cos^2(u) = 2K + 4 A s^2 (K conserved).  u stays between the walls cos u
    = 0 around u0, so u - u0 = sign(cos u0) (arcsin w - arcsin w0) and u' =
    w' / cos u.  ``tau_span`` must be finite and nonzero and ``n_samples`` at
    least 1; the samples are ``np.linspace(0, tau_span, n_samples)`` bit for
    bit.  For A < 0 the curve is cut before the tau at which |w| reaches 1
    (``_wall_time``), which the diagnostic names; for A > 0 |w| stays below 1.
    """
    if not (math.isfinite(tau_span) and tau_span != 0.0):
        raise ValueError(f"tau_span must be finite and nonzero, got {tau_span!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples!r}")
    phi0, theta0, dphi0, dtheta0 = (float(v) for v in init)
    if bool(np.asarray(potential.singular_mask(phi0, theta0))):
        raise ValueError("initial point sits on a potential singularity")
    amp, eps, s = potential.amplitude, potential.epsilon, potential.scale
    u0 = potential.argument(phi0, theta0)
    du0, cos0 = s * (dphi0 + eps * dtheta0), math.cos(u0)
    w0, dw0, side = math.sin(u0), cos0 * du0, math.copysign(1.0, cos0)
    omega2 = du0 * du0 + 4.0 * amp * s * s / (cos0 * cos0)
    # linspace's own steps, without its Python layers, a cost of microseconds
    # per call against the arithmetic on a thousand samples.
    tau = _linspace(0.0, tau_span, n_samples)
    diagnostic = ""
    if amp < 0.0:
        sign = math.copysign(1.0, tau_span)
        wall = sign * _wall_time(w0, sign * dw0, omega2)
        if sign * tau_span >= sign * wall:
            tau = tau[sign * tau < sign * wall]
            diagnostic = f"the motion meets the wall |sin u| = 1 at tau = {wall!r} of {tau_span!r}"
    # w = w0 C + w0' S and w' = w0' C - Omega^2 w0 S, where S' = C and C' = -Omega^2 S.
    q = math.sqrt(abs(omega2))
    if omega2 < 0.0:
        c, sn = np.cosh(q * tau), np.sinh(q * tau) / q
    else:  # S = tau at Omega^2 = 0
        c, sn = np.cos(q * tau), np.sin(q * tau) / q if q else tau
    # Rounding only: |w| < 1 inside the walls.  np.minimum/np.maximum, not
    # np.clip, whose Python layer costs more than the pass on small arrays.
    w = np.minimum(np.maximum(w0 * c + dw0 * sn, -1.0), 1.0)
    du = side * (np.arcsin(w) - math.asin(w0)) / s
    u_rate = (dw0 * c - omega2 * w0 * sn) / (side * np.sqrt((1.0 - w) * (1.0 + w)))
    ddu, dv = (u_rate - u_rate[0]) / (2.0 * s), (dphi0 - eps * dtheta0) * tau
    return AffineCurve(
        tau, phi0 + 0.5 * (du + dv), theta0 + eps * 0.5 * (du - dv),
        dphi0 + ddu, dtheta0 + eps * ddu, bool(diagnostic), diagnostic,
    )


def _wall_time(w0: float, dw0: float, omega2: float) -> float:
    """The first t > 0 at which |w| = 1, for w'' = -omega2 w from |w0| < 1 and
    w' = dw0, or inf.  w reaches first the wall sigma = +/-1 it moves towards
    (for omega2 < 0, that of its growing exponential), where a quadratic in
    h = tan(q t/2)/q, q = sqrt|omega2| (tanh for omega2 < 0, t/2 for 0), has
    its least positive root h below; q h >= 1 means no wall (omega2 < 0).
    """
    q = math.sqrt(abs(omega2))
    sigma = math.copysign(1.0, dw0 + (q * w0 if omega2 < 0.0 else 0.0))
    a, c = sigma * w0, sigma * dw0
    h = (1.0 - a) / (c + math.sqrt(c * c - omega2 * (1.0 - a * a)))
    if omega2 > 0.0:
        return 2.0 * math.atan(q * h) / q
    if omega2 == 0.0:
        return 2.0 * h
    return 2.0 * math.atanh(q * h) / q if q * h < 1.0 else math.inf


def affine_parameter_span(
    model: ere.TwoChannelModel,
    potential: GeometricPotential,
    p_start: float,
    p_stop: float,
) -> float:
    """Affine-parameter length tau = integral of N dp between two momenta.

    With N = k c1 (phi' - eps theta') (the ``closed_form`` record's) and the
    phases on their continuous branch, tau = k c1 [(phi(p1) - phi(p0)) - eps
    (theta(p1) - theta(p0))] exactly.  That holds only for the model's own
    closed-form potential; any other potential raises a ValueError.
    """
    form = _require_closed_form(model, potential)
    phi, theta = ere.phases(model, np.array([p_start, p_stop], dtype=float))
    return float(
        form.k * potential.c1 * ((phi[1] - phi[0]) - form.epsilon * (theta[1] - theta[0]))
    )


def point_to_polyline_distance(points: np.ndarray, polyline: np.ndarray) -> np.ndarray:
    """Distance from each point to a piecewise-linear curve.

    ``points`` is (n, 2) and ``polyline`` (m, 2) with m >= 2.  Returns the
    (n,) distances to the nearest segment, bit for bit those of evaluating
    every (point, segment) pair.

    One pass along phi.  The segments are ordered by their lower end in
    phi, by a stable sort; lower ends already ascending stay as they are and
    strictly descending ones are reversed, which is what the sort would do.
    In that order, a running maximum of their upper ends bounds every
    segment before a place from above.  Each point's distance to one
    segment, the last whose lower end is below its phi (the first if none
    is), bounds its distance by d_u.  Inflated by 1e-12 of
    (d_u + |point| + w), w the widest phi extent of a segment, and by
    1e-150, far more than any rounding or underflow of a square, that bound
    is the reach r: the segment of least computed distance meets
    [phi - r, phi + r].  Where every earlier segment ends below phi - r and
    the next one starts above phi + r, no other segment does, and d_u is the
    distance; when that settles every point the pass ends there.  The other
    points take every segment, as does a point for which a pair could
    overflow (its largest |coordinate| plus 3 times the polyline's at least
    1e150, or not finite), 128 points at a time.  Every pair is evaluated
    with the all-pairs arithmetic (clipped projection, then the sum of
    squares), so either minimum is the all-pairs one.
    """
    points = np.asarray(points, dtype=float)
    polyline = np.asarray(polyline, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be an (n, 2) array, got shape {points.shape}")
    if polyline.ndim != 2 or polyline.shape[0] < 2 or polyline.shape[1] != 2:
        raise ValueError(
            f"polyline must be an (m, 2) array of m >= 2 vertices, got shape {polyline.shape}"
        )
    xs, ys = points.T.copy(), polyline.T.copy()
    n_pts, n_seg = xs.shape[1], ys.shape[1] - 1
    # Rows: the segments' starts, steps and squared lengths.
    seg = np.empty((5, n_seg))
    seg[:2] = ys[:, :-1]
    v = np.subtract(ys[:, 1:], ys[:, :-1], out=seg[2:4])
    np.maximum(v[0] * v[0] + v[1] * v[1], 1e-300, out=seg[4])
    size = np.maximum(np.abs(xs[0]), np.abs(xs[1]))
    d2 = np.empty(n_pts)
    done = np.zeros(n_pts, dtype=bool)
    # Below this bound no intermediate of a pair overflows, so no distance is
    # inf or NaN; the other points take every segment.
    swept = size + 3.0 * np.abs(ys).max() < 1e150
    if swept.any():
        width = np.abs(v[0]).max()
        lower = np.minimum(ys[0, :-1], ys[0, 1:])
        upper = np.maximum(ys[0, :-1], ys[0, 1:])
        # A stable sort leaves ascending lower ends as they are and reverses
        # strictly descending ones.
        if (lower[1:] >= lower[:-1]).all():
            order = slice(None)
        elif (lower[1:] < lower[:-1]).all():
            order = slice(None, None, -1)
        else:
            order = np.argsort(lower, kind="stable")
        lower, seg = lower[order], seg[:, order]
        upper = np.maximum.accumulate(upper[order])
        # The last segment whose lower end is below phi, or the first.  The
        # array methods, not np.searchsorted and np.take, whose Python layers
        # cost tens of microseconds a call after the caches are cold.
        j = np.maximum(lower.searchsorted(xs[0]) - 1, 0)
        with np.errstate(over="ignore", invalid="ignore"):  # only where not swept
            near = _pair_d2(xs[0], xs[1], seg.take(j, axis=1))
            d_u = np.sqrt(near)
            reach = d_u + 1e-12 * (d_u + size + width) + 1e-150
            lo, hi = xs[0] - reach, xs[0] + reach
        # No other segment meets [lo, hi] when every segment before this one
        # ends below lo and the next one starts above hi.
        # np.concatenate, not np.append, for the per-call cost of its Python layer.
        before = np.concatenate(([-np.inf], upper))[j]
        done = swept & (before < lo) & (np.concatenate((lower, [np.inf]))[j + 1] > hi)
        if done.all():
            return d_u
        d2[done] = near[done]
    rest = np.flatnonzero(~done)
    for first in range(0, rest.size, 128):
        block = rest[first : first + 128]
        d2[block] = _pair_d2(xs[0, block, None], xs[1, block, None], seg).min(axis=1)
    return np.sqrt(d2)


def _pair_d2(x0, x1, seg):
    """Squared distance of each point (x0, x1) to its segment, the columns of
    ``seg`` (start, step and squared length), as broadcast, with the
    arithmetic of the all-pairs evaluation, operation for operation."""
    a0, a1, v0, v1, len2 = seg
    # np.minimum/np.maximum, not np.clip, for the per-call cost of its Python
    # layer.  They differ only in the sign of a zero t, and t v is added to a
    # and the sum subtracted and squared, so no distance does.
    t = np.minimum(np.maximum(((x0 - a0) * v0 + (x1 - a1) * v1) / len2, 0.0), 1.0)
    return (x0 - (a0 + t * v0)) ** 2 + (x1 - (a1 + t * v1)) ** 2
