"""Causality bounds, tangent-vector audits, and S-matrix pole analysis.

Zero-range causality bounds the momentum derivative of each phase shift from
below (the Wigner bound); on the flat torus this becomes a quadrant-dependent
restriction of allowed tangent vectors, and by continuity at quadrant edges a
trajectory may exit a quadrant only through its upper or right edge.  At
threshold the bound turns into an upper bound on the effective range (3D) or
on the effective area parameter (2D).

The rational S-matrix element of a range-corrected channel has a quadratic
denominator in p; its two complex roots classify the channel as a resonance
pair (mirrored off-axis poles), a double virtual state, or two virtual
states, colliding at the family parameter lambda = 1/4.  For causal models
all poles lie strictly in the lower half of the complex momentum plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import ere
from .config import DEFAULT_TOLERANCES
from .torus import Trajectory

__all__ = [
    "TangentAuditReport",
    "ExitAuditReport",
    "PoleSet",
    "wigner_derivative_bound",
    "threshold_range_bound_3d",
    "effective_area_bound_2d",
    "tangent_vector_audit",
    "quadrant_exit_audit",
    "poles_closed_form",
    "poles_numeric",
    "verify_lower_half",
    "flatten_poles",
]

#: A root pair is "on the imaginary axis" when |Re| < this fraction of |p|.
AXIS_TOL = 1e-10
#: Two roots closer than this relative separation count as one double pole.
COINCIDENCE_TOL = 1e-8


def wigner_derivative_bound(p: float, delta: float, R: float):
    """Lower bound on d(delta)/dp for an interaction of range R.

    Returns ``-R + sin(2 delta + 2 p R) / (2 p)``.  Dropping the oscillatory
    term gives the semiclassical bound -R.  Requires p > 0 (the threshold
    limit is expressed by the range/area bounds instead).
    """
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise ValueError("derivative bound requires p > 0; use the threshold bounds at p = 0")
    if R < 0:
        raise ValueError("range R must be >= 0")
    return (-R + np.sin(2.0 * np.asarray(delta) + 2.0 * p * R) / (2.0 * p))[()]


def threshold_range_bound_3d(R: float, a: float) -> float:
    """Maximum effective range allowed by causality: 2[R - R^2/a + R^3/(3a^2)].

    At R = 0 the bound is exactly 0 (zero-range causality r <= 0).
    """
    if a == 0.0:
        raise ValueError("threshold bound requires a != 0")
    if R < 0:
        raise ValueError("range R must be >= 0")
    if R == 0.0:
        return 0.0
    return 2.0 * (R - R * R / a + R**3 / (3.0 * a * a))


def effective_area_bound_2d(R: float, a2: float) -> float:
    """Maximum 2D effective area parameter allowed by causality.

    sigma2 <= (R^2/pi) { [log(R/(2 a2)) + gamma - 1/2]^2 + 1/4 } with gamma
    the Euler-Mascheroni constant.  The bound vanishes as R -> 0 (and is
    defined to be 0 at R = 0, where the momentum-inversion-symmetric model
    saturates it with sigma2 = 0); it is always >= R^2/(4 pi) for R > 0.
    """
    if a2 <= 0.0:
        raise ValueError("2D scattering length must be positive")
    if R < 0:
        raise ValueError("range R must be >= 0")
    if R == 0.0:
        return 0.0
    bracket = math.log(R / (2.0 * a2)) + np.euler_gamma - 0.5
    return (R * R / math.pi) * (bracket * bracket + 0.25)


@dataclass(frozen=True)
class TangentAuditReport:
    """Result of checking the tangent-vector conditions along a trajectory."""

    checked: int
    violations: list = field(default_factory=list)  # (p, channel, margin)

    @property
    def passed(self) -> bool:
        return not self.violations


def tangent_vector_audit(
    traj: Trajectory, tol: float = DEFAULT_TOLERANCES["tangent_audit"]
) -> TangentAuditReport:
    """Check p phi'(p) >= sin(phi) and p theta'(p) >= sin(theta) samplewise.

    These are the zero-range causality conditions times p, so the margin
    p x' - sin x is a pure number.  Differentiating p cot(delta) = -1/a +
    r p^2/2 makes it -2 r p sin^2(x/2) exactly, which is evaluated in that
    form, free of the cancellation between p x' and sin x: zero-effective-
    range models saturate the conditions identically, negative ranges
    satisfy them strictly, and positive ranges violate them.  A margin below
    ``-tol`` is a recorded violation (p, channel, margin), the phi channel's
    first, each in grid order.
    """
    if traj.model.dimension != 3:
        raise ValueError("tangent-vector audit applies to 3D models")
    p = traj.p
    violations = []
    for channel, ch, x in zip(("phi", "theta"), traj.model.channels, (traj.phi, traj.theta)):
        margins = -2.0 * ch.r * p * np.sin(0.5 * x) ** 2
        bad = margins < -tol
        violations += zip(p[bad].tolist(), [channel] * int(bad.sum()), margins[bad].tolist())
    return TangentAuditReport(checked=2 * p.size, violations=violations)


@dataclass(frozen=True)
class ExitAuditReport:
    """Quadrant-boundary crossings of a trajectory with their exit edges."""

    crossings: list = field(default_factory=list)
    # each crossing: {"p" (the exact crossing momentum), "channel", "edge", "allowed"}

    @property
    def forbidden(self) -> list:
        return [c for c in self.crossings if not c["allowed"]]

    @property
    def passed(self) -> bool:
        return not self.forbidden


def quadrant_exit_audit(traj: Trajectory) -> ExitAuditReport:
    """Locate quadrant-boundary crossings and label each exit edge.

    Quadrant edges are the lines where either phase is a multiple of pi.  A
    channel's phase meets one only where cot(delta) = 0, at the single
    momentum ``ere.channel_pole_momentum``, and the crossing counts when
    that momentum lies strictly between the first and last grid points.  A
    phase rising there (``ere.tangents`` > 0) exits through the right edge
    (phi) or the upper edge (theta); a falling one exits left/bottom, which
    causality forbids.  Only the grid's ends enter, so any grid is exact.
    """
    crossings = []
    for k, (channel, rise_edge, fall_edge) in enumerate(
        (("phi", "right", "left"), ("theta", "top", "bottom"))
    ):
        p_star = ere.channel_pole_momentum(traj.model.channels[k])
        if p_star is None or not traj.p[0] < p_star < traj.p[-1]:
            continue
        rising = bool(ere.tangents(traj.model, p_star)[k] > 0)
        crossings.append(
            {
                "p": p_star,
                "channel": channel,
                "edge": rise_edge if rising else fall_edge,
                "allowed": rising,
            }
        )
    crossings.sort(key=lambda c: c["p"])
    return ExitAuditReport(crossings=crossings)


@dataclass(frozen=True)
class PoleSet:
    """Denominator roots of a rational S-matrix element, with multiplicity."""

    poles: tuple  # ((complex, multiplicity), ...)
    classification: str  # resonance_pair | double_virtual | two_virtual | single_pole
    params: dict = field(default_factory=dict)
    scope_flag: str | None = None

    def to_json(self) -> dict:
        return {
            **self.params,
            "case": self.classification,
            "poles": [
                {"re": pole.real, "im": pole.imag, "mult": mult}
                for pole, mult in self.poles
            ],
            "lower_half": verify_lower_half(self),
            **({"scope": self.scope_flag} if self.scope_flag else {}),
        }


def poles_closed_form(a: float, lam: float) -> PoleSet:
    """Pole positions of the causal range-correlated channel (r = 2 a lambda, a < 0).

    Three regimes: lambda > 1/4 gives a mirrored resonance pair
    +/- p_R - i p_I with p_R = sqrt(4 lambda - 1)/(2|a|lambda), p_I =
    1/(2|a|lambda); lambda = 1/4 a double virtual-state pole at -i/(2|a|lambda);
    lambda < 1/4 two virtual states -i p_+/- with
    p_+/- = (1 +/- sqrt(1-4 lambda))/(2|a|lambda), p_- computed free of
    cancellation as 2/(|a|(1 + sqrt(1-4 lambda))).  Lambda = 1/4 means 0.25
    exactly.  Non-finite inputs or poles raise a ValueError.
    """
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    if a >= 0.0:
        raise ValueError("closed-form poles apply to the causal row (a<0)")
    mag = abs(a)
    p_i = 1.0 / (2.0 * mag * lam)
    if lam > 0.25:
        p_r = math.sqrt(4.0 * lam - 1.0) / (2.0 * mag * lam)
        poles = ((complex(p_r, -p_i), 1), (complex(-p_r, -p_i), 1))
        case = "resonance_pair"
    elif lam == 0.25:
        poles = ((complex(0.0, -p_i), 2),)
        case = "double_virtual"
    else:
        root = math.sqrt(1.0 - 4.0 * lam)
        p_plus = (1.0 + root) / (2.0 * mag * lam)
        p_minus = 2.0 / (mag * (1.0 + root))
        poles = ((complex(0.0, -p_plus), 1), (complex(0.0, -p_minus), 1))
        case = "two_virtual"
    return _finite_pole_set(poles, case, a, "lambda", lam)


def poles_numeric(a: float, r: float) -> PoleSet:
    """Denominator roots of S = (1 - i a(p) p)/(1 + i a(p) p) for one channel.

    Clearing the momentum-dependent scattering length gives the monic
    quadratic p^2 - (2i/r) p - 2/(a r) = 0 with roots
    p = (1/r)(i +/- sqrt(2r/a - 1)), the smaller of two on the imaginary
    axis as the product -2/(a r) over the larger.  The degenerate r = 0
    channel has the single pole p = i/a, flagged as outside the causal-model
    discussion.  Non-finite inputs or poles raise a ValueError.
    """
    if a == 0.0:
        raise ValueError("a = 0 has no pole (free channel)")
    if r == 0.0:
        pole = complex(0.0, 1.0 / a)
        return _finite_pole_set(
            ((pole, 1),), "single_pole", a, "r", r, scope="outside causal-model scope"
        )
    disc = 2.0 / (a * r) - 1.0 / (r * r)
    s = cmath.sqrt(complex(disc, 0.0))
    p1 = 1j / r + s
    p2 = 1j / r - s
    if disc < 0.0:
        p1 = max(p1, p2, key=abs)
        p2 = (-2.0 / (a * r)) / p1
    scale = max(abs(p1), abs(p2))
    if abs(p1 - p2) < COINCIDENCE_TOL * scale:
        pole = 0.5 * (p1 + p2)
        if abs(pole.real) < AXIS_TOL * abs(pole):
            pole = complex(0.0, pole.imag)
        poles = ((pole, 2),)
        case = "double_virtual"
    else:
        on_axis = [abs(p.real) < AXIS_TOL * abs(p) for p in (p1, p2)]
        if all(on_axis):
            poles = tuple(
                (complex(0.0, p.imag), 1)
                for p in sorted((p1, p2), key=lambda z: z.imag)
            )
            case = "two_virtual"
        else:
            poles = tuple(
                (p, 1) for p in sorted((p1, p2), key=lambda z: z.real)
            )
            case = "resonance_pair"
    return _finite_pole_set(poles, case, a, "r", r)


def _finite_pole_set(poles, case, a, name, value, scope=None) -> PoleSet:
    """The PoleSet of one channel, unless an input or a pole is not finite."""
    if not all(map(cmath.isfinite, (a, value, *(p for p, _m in poles)))):
        raise ValueError(f"no finite poles for a = {a!r}, {name} = {value!r}")
    return PoleSet(poles, case, {"a": a, "lambda_or_r": value}, scope)


def verify_lower_half(poleset: PoleSet) -> bool:
    """True iff every pole lies strictly in the lower half momentum plane."""
    return all(pole.imag < 0.0 for pole, _mult in poleset.poles)


def flatten_poles(poleset: PoleSet) -> list:
    """The poles, each repeated by its multiplicity, sorted by (real, imag)."""
    return sorted(
        (pole for pole, mult in poleset.poles for _ in range(mult)),
        key=lambda z: (z.real, z.imag),
    )
