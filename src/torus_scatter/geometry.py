"""Geometric action machinery on the flat torus.

A physical S-matrix curve p -> (phi(p), theta(p)) can be generated as a
trajectory of an external potential V(phi, theta) on the flat torus with
metric g = diag(1,1)/2, traversed with a momentum-dependent lapse N(p):

    x''_a - kappa x'_a + N^2 dV/dx_a = 0,   kappa = N'/N,

where primes are d/dp and the inverse-metric factor 2 is folded into the
potential term (g^{ab} = 2 diag(1,1)).  Three exactly solvable families are
implemented:

* 3D zero-range models: V = A tan^2((phi + eps theta)/2) with
  A = |a0 a1| / ((|a0|+|a1|)^2 c1^2);
* the lambda = 1/4 range-correlated family with r = +2 a lambda in both
  channels: amplitude A/2, argument rescaled to (phi + eps theta)/4;
* 2D models: V = -pi^2/(4 log^2(a0/a1) c1^2) tan^2((phi+theta)/2 + pi/2).

``closed_form_potential`` decides which of the three a model has, if any,
and ``lapse`` gives every model its lapse, keyed on the model's class, along
a sampled ``torus.Trajectory``, which the trajectory-equation checks also
read.  The three closed-form lapses are k c1 (phi' - eps theta'), so the
affine span is exact from the continuous-branch phases at its ends
(``affine_parameter_span``).
``integrate_affine`` integrates the N = 1 motion with LSODA through scipy's
``odeint``, whose step loop and output interpolation run in compiled code;
its right-hand side evaluates ``gradient``'s formula once per call on Python
floats.  ``point_to_polyline_distance`` measures an integrated curve against
the closed form.  It evaluates only the segments beside the vertices that
can be nearest, found by a k-d tree query of 4 neighbours and, where those
do not cover the point's ball, of 16, and equals the all-pairs distance bit
for bit.

``eom_residual`` checks the trajectory equations multiplied through by N,
which stay regular where the lapse vanishes (the 2D inversion fixed point).
Momenta where the potential argument hits a tan singularity (|cos| < 1e-6)
are excluded and reported.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import ere, torus
from .config import DEFAULT_TOLERANCES

__all__ = [
    "GeometricPotential",
    "EomResidualReport",
    "OverdeterminationReport",
    "AffineCurve",
    "epsilon_for",
    "potential_3d",
    "potential_lam14",
    "potential_2d",
    "closed_form_potential",
    "lapse",
    "construction_lapse",
    "lapse_inaffinity",
    "inaffinity",
    "eom_residual",
    "overdetermination_2d",
    "integrate_affine",
    "affine_parameter_span",
    "first_integral",
    "point_to_polyline_distance",
]

#: |cos| of the potential argument below which a grid point is singular.
COS_SINGULAR_TOL = 1e-6
#: |p N / c1| below which the lapse counts as vanishing (no inaffinity).
LAPSE_SINGULAR_TOL = 1e-10
#: Relative and absolute error targets of ``integrate_affine``'s LSODA steps.
#: At 1e-11 and 1e-12 LSODA's 2D first-integral drift reached 1.3e-10 to
#: 4.8e-10 on the affine benchmark's intervals; here it stays below 5e-12.
AFFINE_RTOL, AFFINE_ATOL = 1e-13, 1e-14
#: Nearest-vertex counts ``point_to_polyline_distance`` asks its k-d tree for,
#: in turn, before a point whose ball holds more takes every segment.
BALL_NEIGHBOURS = (4, 16)


@dataclass(frozen=True)
class GeometricPotential:
    """V(phi, theta) = amplitude * tan^2(scale*(phi + epsilon*theta) + chi)."""

    amplitude: float
    epsilon: int
    scale: float
    chi: float
    c1: float = 1.0

    def __post_init__(self) -> None:
        if self.epsilon not in (+1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if self.scale not in (0.5, 0.25):
            raise ValueError("scale must be 1/2 or 1/4")
        if self.chi not in (0.0, math.pi / 2):
            raise ValueError("chi must be 0 or pi/2")
        if self.c1 == 0.0:
            raise ValueError("c1 must be nonzero")

    def argument(self, phi, theta):
        """u = scale (phi + epsilon theta) + chi, on arrays or Python floats."""
        return self.scale * (phi + self.epsilon * theta) + self.chi

    def value(self, phi, theta):
        t = np.tan(self.argument(np.asarray(phi), np.asarray(theta)))
        return (self.amplitude * t * t)[()]

    def gradient(self, phi, theta):
        """(dV/dphi, dV/dtheta); the theta component is epsilon times the phi one."""
        u = self.argument(np.asarray(phi), np.asarray(theta))
        g_phi = self._slope(np.tan(u), np.cos(u))
        return g_phi[()], (self.epsilon * g_phi)[()]

    def _slope(self, tan_u, cos_u):
        """dV/dphi = 2 A s tan(u) sec^2(u), given tan(u) and cos(u) of the argument.

        The one statement of the derivative: ``gradient`` passes arrays,
        ``integrate_affine``'s right-hand side Python floats.  cos^2 is a
        product, as NumPy squares arrays, so both give the same bits.
        """
        return 2.0 * self.amplitude * self.scale * tan_u * (1.0 / (cos_u * cos_u))

    def singular_mask(self, phi, theta, tol: float = COS_SINGULAR_TOL):
        """True where tan(argument) blows up (|cos| below tol)."""
        return np.abs(np.cos(self.argument(np.asarray(phi), np.asarray(theta)))) < tol


def epsilon_for(a0: float, a1: float) -> int:
    """Sign convention of the potential argument: -1 for equal-sign lengths."""
    if a0 == 0.0 or a1 == 0.0:
        raise ValueError("scattering lengths must be nonzero")
    return -1 if a0 * a1 > 0.0 else +1


def potential_3d(a0: float, a1: float, c1: float = 1.0) -> GeometricPotential:
    """Exact geometric potential of the 3D zero-range (scattering-length) model."""
    if a0 == 0.0 or a1 == 0.0:
        raise ValueError("zero scattering length: trivial fixed point, no potential")
    if not (math.isfinite(a0) and math.isfinite(a1)):
        raise ValueError("potential requires finite scattering lengths")
    if c1 == 0.0:
        raise ValueError("c1 must be nonzero")
    try:
        amp = abs(a0 * a1) / ((abs(a0) + abs(a1)) ** 2 * c1 * c1)
    except OverflowError:
        raise ValueError(f"potential overflows for a0 = {a0!r}, a1 = {a1!r}, c1 = {c1!r}") from None
    return GeometricPotential(
        amplitude=amp, epsilon=epsilon_for(a0, a1), scale=0.5, chi=0.0, c1=c1
    )


def potential_lam14(a0: float, a1: float, c1: float = 1.0) -> GeometricPotential:
    """Geometric potential of the lambda = 1/4 range-correlated family.

    Relative to the zero-range potential the amplitude is halved and the
    argument rescaled from (phi + eps theta)/2 to (phi + eps theta)/4.
    """
    base = potential_3d(a0, a1, c1)
    return GeometricPotential(
        amplitude=0.5 * base.amplitude,
        epsilon=base.epsilon,
        scale=0.25,
        chi=0.0,
        c1=c1,
    )


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
    if c1 == 0.0:
        raise ValueError("c1 must be nonzero")
    log_ratio = math.log(a2_0 / a2_1)
    amp = -math.pi**2 / (4.0 * log_ratio * log_ratio * c1 * c1)
    return GeometricPotential(
        amplitude=amp, epsilon=+1, scale=0.5, chi=math.pi / 2, c1=c1
    )


def closed_form_potential(
    model: ere.TwoChannelModel, c1: float = 1.0
) -> GeometricPotential | None:
    """The exact potential whose trajectory is the model's curve, or None.

    Three classes have one: 3D zero range (both effective ranges zero, finite
    lengths), the lambda = 1/4 branch with r = +2 a lambda in both channels,
    and 2D with distinct lengths.  Every other model has None, among them 2D
    models with equal lengths, whose curve is a geodesic.
    """
    a0, a1 = model.singlet.length, model.triplet.length
    if model.dimension == 2:
        return None if a0 == a1 else potential_2d(a0, a1, c1=c1)
    if model.singlet.r == 0.0 and model.triplet.r == 0.0:
        return potential_3d(a0, a1, c1=c1) if math.isfinite(a0) and math.isfinite(a1) else None
    if ere.quarter_lambda_branch(model) == "solvable":
        return potential_lam14(a0, a1, c1=c1)
    return None


def _lapse_form(model: ere.TwoChannelModel) -> tuple[float, int, bool]:
    """(k, eps, tangent) of ``lapse``: k c1 (phi' - eps theta') if tangent,
    else the sine form, where k is 1."""
    if model.dimension == 2:
        return 1.0, +1, True
    eps = epsilon_for(model.singlet.a, model.triplet.a)
    if ere.quarter_lambda_branch(model) == "solvable":
        return math.sqrt(2.0), eps, True
    return 1.0, eps, False


def lapse(traj: torus.Trajectory, c1: float = 1.0):
    """(N, dN/dp) of the model's lapse along its sampled trajectory, analytic in p.

    * 2D: N = c1 (phi' - theta'), for which the pointwise-solved trajectory
      equations close (``overdetermination_2d``);
    * the lambda = 1/4 branch with r = +2 a lambda: N = sqrt(2) c1 (phi' - eps
      theta'), there equal to (2 sqrt(2) c1 / p)(sin(phi/2) - eps sin(theta/2));
    * every other 3D model: N = (c1/p)(sin phi - eps sin theta), which is
      c1 (phi' - eps theta') at zero range (sin(phi)/p = phi').
    """
    k, eps, tangent = _lapse_form(traj.model)
    if tangent:
        kc1 = k * c1
        return kc1 * (traj.dphi - eps * traj.dtheta), kc1 * (traj.d2phi - eps * traj.d2theta)
    p = traj.p
    s = np.sin(traj.phi) - eps * np.sin(traj.theta)
    ds = np.cos(traj.phi) * traj.dphi - eps * np.cos(traj.theta) * traj.dtheta
    return c1 / p * s, c1 * (ds / p - s / (p * p))


def _require_closed_form(model: ere.TwoChannelModel, potential: GeometricPotential) -> None:
    if potential != closed_form_potential(model, potential.c1):
        raise ValueError("potential is not the model's closed-form potential")


def construction_lapse(
    model: ere.TwoChannelModel, potential: GeometricPotential, p
) -> tuple[np.ndarray, np.ndarray]:
    """(N, dN/dp) of the lapse that generates the model's curve in its own
    closed-form potential: ``lapse`` at the potential's c1, on the trajectory
    sampled at ``p`` (a scalar or a strictly increasing 1D grid of p > 0),
    in the shape of ``p``.  Any other potential raises a ValueError."""
    _require_closed_form(model, potential)
    shape = np.shape(p)
    n_val, dn_val = lapse(torus.sample_trajectory(model, np.ravel(p)), potential.c1)
    return n_val.reshape(shape)[()], dn_val.reshape(shape)[()]


def lapse_inaffinity(traj: torus.Trajectory, c1: float = 1.0):
    """(kappa = dN/N, vanishing) of ``lapse`` at c1 along a sampled trajectory:
    it vanishes, and kappa is NaN, where the pure number |p N / c1| (sin phi -
    eps sin theta for the sine form) is below ``LAPSE_SINGULAR_TOL``."""
    n_val, dn_val = lapse(traj, c1)
    vanishing = np.abs(traj.p * n_val / c1) < LAPSE_SINGULAR_TOL
    return np.divide(dn_val, n_val, out=np.full(n_val.shape, np.nan), where=~vanishing), vanishing


def inaffinity(traj: torus.Trajectory):
    """kappa(p) = N'(p)/N(p) of the model's ``lapse`` along its sampled
    trajectory; a ValueError where the lapse vanishes (``lapse_inaffinity``)."""
    kappa, vanishing = lapse_inaffinity(traj)
    if np.any(vanishing):
        raise ValueError(f"lapse vanishes at p = {traj.p[vanishing][:3]}: inaffinity singular")
    return kappa


@dataclass(frozen=True)
class EomResidualReport:
    """Relative residuals of the two trajectory equations over a momentum grid.

    ``p``, ``res_phi`` and ``res_theta`` hold the kept grid points; each
    residual lies in [0, 1].  ``excluded`` lists (p, reason) of the rest.
    """

    p: np.ndarray
    res_phi: np.ndarray
    res_theta: np.ndarray
    max_norm: float
    excluded: list = field(default_factory=list)


def eom_residual(traj: torus.Trajectory, potential: GeometricPotential) -> EomResidualReport:
    """Relative residual of N x'' - N' x' + N^3 dV/dx, per component, along a
    sampled trajectory.

    This is the trajectory equation multiplied through by the model's
    ``lapse`` N, so it stays regular where N vanishes.  For each component
    the residual |N x'' - N' x' + N^3 dV/dx| is divided by |N x''| + |N' x'|
    + |N^3 dV/dx| (0 where that sum is 0; a NaN term raises ValueError).
    All derivatives are analytic.
    Each term carries one power of c1 (the amplitude 1/c1^2), so the
    residual does not depend on it.  Grid points where the potential
    argument is within 1e-6 of a tan singularity are excluded from the
    max-norm and reported in ``excluded``; a grid with none left raises
    ValueError.
    """
    p, phi, theta = traj.p, traj.phi, traj.theta
    keep = ~potential.singular_mask(phi, theta)
    if not keep.any():
        raise ValueError(
            f"eom_residual: all {keep.size} grid points excluded (potential singularity)"
        )
    n_val, dn_val = (x[keep] for x in lapse(traj, potential.c1))
    n3 = n_val * n_val * n_val
    res = []
    for dx, d2x, grad in zip(
        (traj.dphi, traj.dtheta),
        (traj.d2phi, traj.d2theta),
        potential.gradient(phi[keep], theta[keep]),
    ):
        terms = (n_val * d2x[keep], -dn_val * dx[keep], n3 * grad)
        total = np.abs(terms[0] + terms[1] + terms[2])
        scale = np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2])
        res.append(np.divide(total, scale, out=np.zeros_like(total), where=scale != 0))
    max_norm = float(np.maximum(res[0].max(), res[1].max()))
    if math.isnan(max_norm):
        raise ValueError("eom_residual: a residual is NaN (a phase derivative overflowed)")
    return EomResidualReport(
        p=p[keep],
        res_phi=res[0],
        res_theta=res[1],
        max_norm=max_norm,
        excluded=[(float(pp), "potential singularity") for pp in p[~keep]],
    )


@dataclass(frozen=True)
class OverdeterminationReport:
    """Consistency of the pointwise-solved 2D trajectory equations.

    The two equations at fixed p are linear in (kappa, W = N^2 * amplitude)
    once the potential shape is fixed with unit amplitude.  Exactness of
    kappa = (ln N)' is equivalent to W being proportional to (phi'-theta')^2;
    ``max_relative_deviation`` bounds the spread of that ratio on the grid.
    """

    p: np.ndarray
    kappa: np.ndarray
    w: np.ndarray
    max_relative_deviation: float
    tolerance: float
    passed: bool
    excluded: list = field(default_factory=list)


def overdetermination_2d(
    traj: torus.Trajectory, tol: float = DEFAULT_TOLERANCES["overdetermination"]
) -> OverdeterminationReport:
    """Solve the two 2D trajectory equations pointwise and check consistency.

    Unknowns per grid point: the inaffinity kappa and the combination
    W = N^2 * A (lapse squared times potential amplitude), with the potential
    shape tan^2((phi+theta)/2 + pi/2) fixed at unit amplitude:

        phi''   = kappa phi'   - W dU/dphi
        theta'' = kappa theta' - W dU/dtheta,   U = tan^2((phi+theta)/2 + pi/2).

    The overdetermination is consistent iff kappa equals (ln sqrt(W))', i.e.
    iff W / (phi' - theta')^2 is constant along the curve; the maximal
    relative spread of that ratio is reported.  Points where the shape's
    gradient vanishes or blows up are excluded; a grid with none left raises
    ValueError.
    """
    model = traj.model
    if model.dimension != 2:
        raise ValueError("overdetermination check is for 2D models")
    if model.singlet.a2 == model.triplet.a2:
        raise ValueError("equal 2D scattering lengths: geodesic, nothing to solve")
    p, dphi, dtheta, d2phi, d2theta = traj.p, traj.dphi, traj.dtheta, traj.d2phi, traj.d2theta

    u = 0.5 * (traj.phi + traj.theta) + math.pi / 2
    cos_u, sin_u = np.cos(u), np.sin(u)
    keep = (np.abs(cos_u) >= COS_SINGULAR_TOL) & (np.abs(sin_u) >= COS_SINGULAR_TOL)
    excluded = [(float(pp), "shape gradient singular or zero") for pp in p[~keep]]

    # Unit-amplitude shape gradient: dU/dphi = dU/dtheta = tan(u)/cos^2(u).
    grad_u = np.tan(u) / (cos_u * cos_u)
    # 2x2 solve: [phi', -grad; theta', -grad] [kappa, W]^T = [phi'', theta''].
    det = -dphi * grad_u + dtheta * grad_u
    kappa = np.where(keep, (-d2phi * grad_u + d2theta * grad_u) / np.where(keep, det, 1.0), np.nan)
    w = np.where(keep, (dphi * d2theta - d2phi * dtheta) / np.where(keep, det, 1.0), np.nan)

    dw = dphi - dtheta
    ratio = (w / (dw * dw))[keep]
    if ratio.size == 0:
        raise ValueError(
            f"overdetermination_2d: all {len(excluded)} grid points excluded "
            "(shape gradient singular or zero)"
        )
    center = float(np.median(ratio))
    dev = float(np.max(np.abs(ratio - center) / abs(center)))
    return OverdeterminationReport(
        p=p[keep],
        kappa=kappa[keep],
        w=w[keep],
        max_relative_deviation=dev,
        tolerance=tol,
        passed=dev < tol,
        excluded=excluded,
    )


@dataclass(frozen=True)
class AffineCurve:
    """A curve integrated in the affine parameterization (N = 1, kappa = 0)."""

    tau: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    dphi: np.ndarray
    dtheta: np.ndarray
    truncated: bool = False
    diagnostic: str = ""

    @property
    def points(self) -> np.ndarray:
        return np.column_stack([self.phi, self.theta])


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
    """Integrate x''_a = -dV/dx_a from (phi, theta, phi', theta') over tau.

    The inverse-metric factor is folded into the potential term exactly as in
    ``eom_residual`` with N = 1, so an integrated curve initialized on a
    closed-form trajectory stays on it.  One ``odeint`` call (LSODA, Petzold
    1983) takes every step and interpolates every output sample in compiled
    code, so the only Python per step is the right-hand side.
    ``tau_span`` must be finite and nonzero (it may be negative) and
    ``n_samples`` at least 1; the samples are ``np.linspace(0, tau_span,
    n_samples)``.  If the integrator fails (typically by running into a
    potential singularity) the curve is cut before the first sample it did
    not reach, and the diagnostic names the tau it reached, the potential
    argument u at its last right-hand-side evaluation, the latest state it
    tried, and the cause; no warning is raised.
    """
    if not (math.isfinite(tau_span) and tau_span != 0.0):
        raise ValueError(f"tau_span must be finite and nonzero, got {tau_span!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples!r}")
    phi0, theta0, dphi0, dtheta0 = (float(v) for v in init)
    if bool(np.asarray(potential.singular_mask(phi0, theta0))):
        raise ValueError("initial point sits on a potential singularity")
    from scipy.integrate import ODEintWarning, odeint

    tau = np.linspace(0.0, tau_span, n_samples)
    last_u = [math.nan]
    with warnings.catch_warnings():
        # A failure is read from ``tcur`` and the message, not the warning.
        warnings.simplefilter("ignore", ODEintWarning)
        y, info = odeint(
            _affine_rhs(potential, last_u),
            [phi0, theta0, dphi0, dtheta0],
            tau,
            rtol=AFFINE_RTOL,
            atol=AFFINE_ATOL,
            full_output=True,
            tfirst=True,
        )
    # ``tcur`` of a failed interval is the tau reached; the rows of y from it
    # on, and tcur after it, hold uninitialised memory: keep the samples
    # before the first output time not reached.
    short = ~(np.sign(tau_span) * info["tcur"] >= np.sign(tau_span) * tau[1:])
    truncated = bool(short.any())
    diagnostic = ""
    if truncated:
        failed = int(np.argmax(short))
        tau, y = tau[: failed + 1], y[: failed + 1]
        # scipy appends a guess at a Jacobian fault; none is passed here.
        cause = info["message"].partition(" (perhaps")[0]
        diagnostic = (
            f"integrator stopped at tau = {float(info['tcur'][failed])!r} of {tau_span!r}, "
            f"where the potential argument was last u = {last_u[0]!r}: {cause}"
        )
    phi, theta, dphi, dtheta = y.T
    return AffineCurve(
        tau=tau,
        phi=phi,
        theta=theta,
        dphi=dphi,
        dtheta=dtheta,
        truncated=truncated,
        diagnostic=diagnostic,
    )


def _affine_rhs(potential: GeometricPotential, last_u: list):
    """``integrate_affine``'s right-hand side (phi', theta', -dV/dphi, -dV/dtheta).

    The potential depends on phi and theta only through its argument u, and
    dV/dtheta = epsilon dV/dphi, so one ``_slope`` on Python floats gives
    both forces, bit for bit those of ``gradient``.  tan and cos stay NumPy's:
    ``math.tan`` differs from them in the last bit on some arguments.  Each
    call leaves its u in ``last_u[0]``, for the diagnostic of a failure.
    """
    eps = potential.epsilon

    def rhs(_tau, y):
        phi, theta, dphi, dtheta = y.tolist()
        u = last_u[0] = potential.argument(phi, theta)
        g_phi = potential._slope(float(np.tan(u)), float(np.cos(u)))
        return [dphi, dtheta, -g_phi, -eps * g_phi]

    return rhs


def affine_parameter_span(
    model: ere.TwoChannelModel,
    potential: GeometricPotential,
    p_start: float,
    p_stop: float,
) -> float:
    """Affine-parameter length tau = integral of N dp between two momenta.

    With N = k c1 (phi' - eps theta') (``_lapse_form``) and the phases on
    their continuous branch, tau = k c1 [(phi(p1) - phi(p0)) - eps (theta(p1)
    - theta(p0))] exactly.  That holds only for the model's own closed-form
    potential; any other potential raises a ValueError.
    """
    _require_closed_form(model, potential)
    k, eps, _tangent = _lapse_form(model)
    phi, theta = ere.phases(model, np.array([p_start, p_stop], dtype=float))
    return float(k * potential.c1 * ((phi[1] - phi[0]) - eps * (theta[1] - theta[0])))


def point_to_polyline_distance(points: np.ndarray, polyline: np.ndarray) -> np.ndarray:
    """Distance from each point to a piecewise-linear curve.

    ``points`` is (n, 2) and ``polyline`` (m, 2) with m >= 2.  Returns the
    (n,) array of Euclidean distances to the nearest segment.

    Only segments that can be nearest are evaluated.  Let d_v be a point's
    distance to its nearest vertex and L_max the longest segment.  The nearest
    segment is at distance <= d_v, and each point of a segment lies within
    half its length of one of its endpoints, so the nearest segment has an
    endpoint within d_v + L_max/2 of the point.  A k-d tree on the vertices
    finds the vertices in that ball, its radius inflated by 1e-12 of
    d_v + L_max/2 plus the point's largest coordinate, far more than the
    rounding of any computed distance.  The segments on either side of those
    vertices are evaluated with the arithmetic of an all-pairs evaluation
    (clipped projection, then the sum of squares), and the minimum over them
    is the all-pairs minimum, so the result is the all-pairs one bit for bit.
    The tree is asked for each point's 4 nearest vertices, and again for 16
    only where the 4th lies inside the ball (``BALL_NEIGHBOURS``).  A point
    whose 16th nearest vertex lies inside its ball, a non-finite point, and
    every point of a polyline with a non-finite vertex (the tree rejects
    those) take every segment.  Points go to the tree 4096 at a time, in at
    most two queries each; those that take every segment go 128 at a time,
    so at most max(128 (m - 1), 4096 * 30) pairs are held at once.
    """
    from scipy.spatial import cKDTree

    points = np.asarray(points, dtype=float)
    polyline = np.asarray(polyline, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be an (n, 2) array, got shape {points.shape}")
    if polyline.ndim != 2 or polyline.shape[0] < 2 or polyline.shape[1] != 2:
        raise ValueError(
            f"polyline must be an (m, 2) array of m >= 2 vertices, got shape {polyline.shape}"
        )
    seg_a = polyline[:-1]
    seg_v = polyline[1:] - seg_a
    seg_len2 = np.maximum(np.einsum("ij,ij->i", seg_v, seg_v), 1e-300)
    tree = cKDTree(polyline) if np.isfinite(polyline).all() else None
    d2 = np.full(points.shape[0], np.inf)
    every = np.ones(points.shape[0], dtype=bool)
    if tree is not None:
        for start in range(0, points.shape[0], 4096):
            block = slice(start, start + 4096)
            every[block] = _lower_in_ball(d2[block], tree, points[block], seg_a, seg_v, seg_len2)
    dense, n_seg = np.flatnonzero(every), seg_len2.size
    for start in range(0, dense.size, 128):
        idx = dense[start : start + 128]
        _lower_on_pairs(
            d2, points, np.repeat(idx, n_seg), np.tile(np.arange(n_seg), idx.size),
            seg_a, seg_v, seg_len2,
        )
    return np.sqrt(d2)


def _lower_in_ball(d2_min, tree, pts, seg_a, seg_v, seg_len2) -> np.ndarray:
    """Lower ``d2_min`` over the segments beside the vertices in each ball.

    The k nearest vertices hold a point's whole ball (see
    ``point_to_polyline_distance``) unless the k-th is inside it; a tree of
    fewer than k vertices reports the missing ones at infinite distance.
    Each point is asked for its ``BALL_NEIGHBOURS[0]`` nearest vertices, and
    only those whose k-th lies inside their ball are asked again for the
    next count.  Returns the mask of the points this leaves for every
    segment: those whose last k-th is inside their ball, and the non-finite
    ones.  Pairs may repeat, which leaves the minimum unchanged.
    """
    every = ~np.isfinite(pts).all(axis=1)
    todo = np.flatnonzero(~every)
    half_longest = 0.5 * math.sqrt(seg_len2.max())
    for k in BALL_NEIGHBOURS:
        x = pts[todo]
        dist, vert = tree.query(x, k=k)
        reach = dist[:, 0] + half_longest
        radius = reach + 1e-12 * (reach + np.abs(x).max(axis=1))
        inside = dist <= radius[:, None]
        whole = ~inside[:, -1]
        row, col = np.nonzero(inside & whole[:, None])
        near = vert[row, col]
        _lower_on_pairs(
            d2_min, pts, np.tile(todo[row], 2),
            np.clip(np.concatenate([near - 1, near]), 0, seg_len2.size - 1),
            seg_a, seg_v, seg_len2,
        )
        todo = todo[~whole]
    every[todo] = True
    return every


def _lower_on_pairs(d2_min, pts, p_idx, s_idx, seg_a, seg_v, seg_len2) -> None:
    """Lower ``d2_min[p]`` to the squared distance of each (point p, segment s) pair.

    The per-pair arithmetic is that of the all-pairs evaluation, operation
    for operation.  Its temporaries end with the call, so they never overlap
    those of the next chunk.
    """
    x, a, v = pts[p_idx], seg_a[s_idx], seg_v[s_idx]
    t = np.clip(np.einsum("ij,ij->i", x - a, v) / seg_len2[s_idx], 0.0, 1.0)
    np.minimum.at(d2_min, p_idx, np.sum((x - (a + t[:, None] * v)) ** 2, axis=1))
