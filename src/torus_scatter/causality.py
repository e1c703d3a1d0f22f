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
from dataclasses import dataclass, field, replace

import numpy as np

from . import ere
from .config import DEFAULT_TOLERANCES, Check, NotApplicable
from .torus import Trajectory

__all__ = [
    "PoleSet",
    "wigner_derivative_bound",
    "threshold_range_bound_3d",
    "effective_area_bound_2d",
    "tangent_vector_audit",
    "quadrant_exit_audit",
    "poles_closed_form",
    "poles_numeric",
    "verify_poles",
    "verify_lower_half",
    "flatten_poles",
]

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


def tangent_vector_audit(
    traj: Trajectory, tol: float = DEFAULT_TOLERANCES["tangent_audit"]
) -> Check:
    """Check p phi'(p) >= sin(phi) and p theta'(p) >= sin(theta) samplewise.

    These are the zero-range causality conditions times p, so the margin
    p x' - sin x is a pure number.  Differentiating p cot(delta) = -1/a +
    r p^2/2 makes it -2 r p sin^2(x/2) exactly, which is evaluated in that
    form, free of the cancellation between p x' and sin x: zero-effective-
    range models saturate the conditions identically, negative ranges
    satisfy them strictly, and positive ranges violate them.  A margin below
    ``-tol`` is a violation (p, channel, margin).  The ``tangent_audit``
    check's deviation is the modulus of the worst violation's margin (0
    with none), its extra the violation count; its detail holds
    ``violations``, the phi channel's first, each in grid order, and
    ``checked``, the count of margins read.  A 2D model is NotApplicable.
    """
    if traj.model.dimension != 3:
        raise NotApplicable(
            "tangent-vector audit applies to 3D models (2D has the area bound instead)"
        )
    p = traj.p
    violations = []
    worst = 0.0
    for channel, ch, x in zip(("phi", "theta"), traj.model.channels, (traj.phi, traj.theta)):
        margins = -2.0 * ch.r * p * np.sin(0.5 * x) ** 2
        bad = margins < -tol
        below = margins[bad]
        worst = min(worst, float(below.min(initial=0.0)))
        violations += zip(p[bad].tolist(), [channel] * below.size, below.tolist())
    return Check(
        "tangent_audit", abs(worst), tol, {"violations": len(violations)},
        {"checked": 2 * p.size, "violations": violations},
    )


def quadrant_exit_audit(traj: Trajectory) -> Check:
    """Locate quadrant-boundary crossings and label each exit edge.

    Quadrant edges are the lines where either phase is a multiple of pi.  A
    channel's phase meets one only where cot(delta) = 0, at the single
    momentum ``ere.channel_pole_momentum``, and the crossing counts when
    that momentum lies strictly between the first and last grid points.  A
    phase rising there (``ere.tangents`` > 0) exits through the right edge
    (phi) or the upper edge (theta); a falling one exits left/bottom, which
    causality forbids.  Only the grid's ends enter, so any grid is exact.

    The ``quadrant_exit_audit`` check's deviation is the count of forbidden
    exits, against a fixed tolerance of 1, and its extra the count of
    crossings.  Its detail holds ``crossings``, in order of momentum, each
    {"p" (the exact crossing momentum), "channel", "edge", "allowed"}.
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
    forbidden = sum(not c["allowed"] for c in crossings)
    return Check(
        "quadrant_exit_audit", float(forbidden), 1.0, {"crossings": len(crossings)},
        {"crossings": crossings},
    )


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

    The roots of ``poles_numeric`` at r = 2 a lambda, formed as 2 (lambda a)
    as ``ere`` forms every range, where 2r/a - 1 is 4 lambda - 1.  Three
    regimes: lambda > 1/4 gives a mirrored resonance pair +/- p_R - i p_I
    with p_R = sqrt(4 lambda - 1)/(2|a|lambda), p_I =
    1/(2|a|lambda); lambda = 1/4 a double virtual-state pole at -i/(2|a|lambda);
    lambda < 1/4 two virtual states -i p_+/- with
    p_+/- = (1 +/- sqrt(1-4 lambda))/(2|a|lambda), p_- computed free of
    cancellation as 2/(|a|(1 + sqrt(1-4 lambda))).  Lambda = 1/4 means 0.25
    exactly.  Where 4 lambda overflows, the 1 is below its rounding, and
    sqrt(4 lambda - 1) is formed as 2 sqrt(lambda).  Where r = 2 a lambda
    overflows (so lambda > 1/4), the pair is formed with lambda divided in
    last: p_R = (sqrt(4 lambda - 1)/(2|a|))/lambda, p_I = (1/(2|a|))/lambda.
    A p_I that underflows to 0 there, which would put the pair on the real
    axis, raises a ValueError by name, as do non-finite inputs or poles.
    """
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    if a >= 0.0:
        raise ValueError("closed-form poles apply to the causal row (a<0)")
    r = 2.0 * (lam * a)
    q = 4.0 * lam - 1.0
    root = math.sqrt(abs(q)) if math.isfinite(q) else 2.0 * math.sqrt(lam)
    if math.isinf(r) and math.isfinite(a) and math.isfinite(lam):
        p_r, p_i = (0.5 * root / -a) / lam, (0.5 / a) / lam
        if p_i == 0.0:
            raise ValueError(
                f"the poles' imaginary part underflows to 0 for a = {a!r}, lambda = {lam!r}"
            )
        poles = ((complex(p_r, p_i), 1), (complex(-p_r, p_i), 1))
        return _finite_pole_set(poles, "resonance_pair", a, "lambda", lam)
    return _pole_set(a, r, q, root, "lambda", lam)


def poles_numeric(a: float, r: float) -> PoleSet:
    """Denominator roots of S = (1 - i a(p) p)/(1 + i a(p) p) for one channel.

    Clearing the momentum-dependent scattering length gives the monic
    quadratic p^2 - (2i/r) p - 2/(a r) = 0 with roots (i +/- sqrt(q))/r,
    q = 2r/a - 1 (``_pole_set``), resonance poles in order of real part and
    virtual ones of imaginary part.  Where 2r/a overflows, the 1 is below
    its rounding, and sqrt(|q|) is formed as sqrt(2) sqrt(|r|)/sqrt(|a|).
    The degenerate r = 0 channel has the single pole p = i/a, flagged as
    outside the causal-model discussion.  Non-finite inputs or poles raise
    a ValueError.
    """
    if a == 0.0:
        raise ValueError("a = 0 has no pole (free channel)")
    if r == 0.0:
        pole = complex(0.0, 1.0 / a)
        return _finite_pole_set(
            ((pole, 1),), "single_pole", a, "r", r, scope="outside causal-model scope"
        )
    q = 2.0 * (r / a) - 1.0
    if math.isfinite(q):
        root = math.sqrt(abs(q))
    else:
        root = math.sqrt(2.0) * (math.sqrt(abs(r)) / math.sqrt(abs(a)))
    ps = _pole_set(a, r, q, root, "r", r)
    return replace(ps, poles=tuple(sorted(ps.poles, key=lambda pm: (pm[0].real, pm[0].imag))))


def _pole_set(a, r, q, root, name, value) -> PoleSet:
    """The roots (i +/- sqrt(q))/r of p^2 - (2i/r) p - 2/(a r), with the pure
    number q = 2r/a - 1 and root = sqrt(|q|); the unit of length enters only
    in the final divisions by r or a.

    q > 0: a resonance pair +/- root/|r| + i/r; q = 0 exactly: the double
    pole i/r; q < 0: the virtual poles i(1 + root)/r and, free of
    cancellation, 2i/(a(1 + root)), formed as i(2/(1 + root))/a where
    a(1 + root) overflows.  x - 1 is exact for x in [1/2, 2], so a q that
    is not 0 is at least 2^-53 in size, and q < 0 puts both roots on the
    imaginary axis exactly.  A pole that is not finite, 1/r where r
    underflowed to 0 among them, raises a ValueError naming a and ``name``.
    """
    if r == 0.0:
        poles, case = (), None
    elif q > 0.0:
        p_r, p_i = root / abs(r), 1.0 / r
        poles, case = ((complex(p_r, p_i), 1), (complex(-p_r, p_i), 1)), "resonance_pair"
    elif q == 0.0:
        poles, case = ((complex(0.0, 1.0 / r), 2),), "double_virtual"
    else:
        den = a * (1.0 + root)
        small = 2.0 / den if math.isfinite(den) else (2.0 / (1.0 + root)) / a
        poles = ((complex(0.0, (1.0 + root) / r), 1), (complex(0.0, small), 1))
        case = "two_virtual"
    return _finite_pole_set(poles, case, a, name, value)


def _finite_pole_set(poles, case, a, name, value, scope=None) -> PoleSet:
    """The PoleSet of one channel, unless it has no pole, or an input or a
    pole is not finite."""
    if not (poles and all(map(cmath.isfinite, (a, value, *(p for p, _m in poles))))):
        raise ValueError(f"no finite poles for a = {a!r}, {name} = {value!r}")
    return PoleSet(poles, case, {"a": a, "lambda_or_r": value}, scope)


def verify_poles(traj: Trajectory, tol: float = DEFAULT_TOLERANCES["pole_match"]) -> list:
    """The pole checks of a causal family model.  ``pole_match_<channel>``:
    the closed-form poles against the sum 2i/r and product -2/(a r) of the
    roots of p^2 - (2i/r) p - 2/(a r), relative; ``pole_lower_half``: the
    largest imaginary part of a pole, against 0.  A model outside the causal
    family (3D, a < 0 and r = 2 a lambda in both channels) is NotApplicable."""
    model = traj.model
    causal = model.dimension == 3 and model.family and ere.ranges_follow(model, model.family.lam)
    if not (causal and all(ch.a < 0 for ch in model.channels)):
        raise NotApplicable(
            "pole checks need the causal family: a 3D model with r = 2 a lambda "
            "and a < 0 in both channels (e.g. T3 row 6)"
        )
    checks = []
    worst_im = -math.inf
    for label, ch in zip(("singlet", "triplet"), model.channels):
        closed = poles_closed_form(ch.a, model.family.lam)
        poles = flatten_poles(closed)
        dev = max(abs(sum(poles) * ch.r / 2j - 1), abs(math.prod(poles) * ch.a * ch.r / -2 - 1))
        checks.append(Check(f"pole_match_{label}", dev, tol, {"case": closed.classification}))
        worst_im = max(worst_im, max(p.imag for p, _m in closed.poles))
    checks.append(Check("pole_lower_half", worst_im, 0.0))
    return checks


def verify_lower_half(poleset: PoleSet) -> bool:
    """True iff every pole lies strictly in the lower half momentum plane."""
    return all(pole.imag < 0.0 for pole, _mult in poleset.poles)


def flatten_poles(poleset: PoleSet) -> list:
    """The poles, each repeated by its multiplicity, sorted by (real, imag)."""
    return sorted(
        (pole for pole, mult in poleset.poles for _ in range(mult)),
        key=lambda z: (z.real, z.imag),
    )
