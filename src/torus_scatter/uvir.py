"""Momentum-inversion (UV/IR) symmetries and their verification.

Each symmetric family row pairs a momentum inversion ``p -> 1/(lambda |a0 a1| p)``
with an affine relabeling of the torus coordinates, e.g. ``phi -> -pi - theta``,
and a transformation class for the out-state density matrix.  The scattering
operator is ``S = exp(i phi) P_s + exp(i theta) P_t`` in total spin, and each
class fixes a sign per sector, (s_s, s_t): the density matrix at the image
momentum equals the in-state evolved by ``exp(i s_s phi) P_s + exp(i s_t theta) P_t``.

* ``rho``      (+, +): the density matrix itself is invariant;
* ``rho_bar``  (-, -): it maps to the conjugated-evolution matrix
  ``S* |in><in| S^T`` (all phase shifts change sign);
* mixed classes: one sector keeps its phase and the other changes sign;
  "minus" names the singlet (SWAP = -1) sector, "plus" the triplet.

The verifiers read the phases at each ``p`` from a sampled ``Trajectory``,
take them at its image ``p'`` from an ``InversionImage``, which evaluates
them once however many checks read it, and bound the deviation of the
mapped relation.  All comparisons of angles are mod 2pi.
An untagged model is ``config.NotApplicable`` to every verifier.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import ere, spin
from .config import DEFAULT_TOLERANCES, Check, NotApplicable
from .torus import Trajectory, wrap_angle

__all__ = [
    "InversionImage",
    "RhoClass",
    "SymmetryMap",
    "expected_map",
    "inverted_momentum",
    "inversion_fixed_point",
    "model_inverted_momentum",
    "make_paired_grid",
    "verify_phase_map",
    "verify_density_map",
    "verify_ep_invariance",
]


class RhoClass(enum.Enum):
    """Transformation class of the out-state density matrix under inversion."""

    RHO = "rho"
    RHO_BAR = "rho_bar"
    RHO_MINUS_RHOBAR_PLUS = "rho_minus + rhobar_plus"
    RHO_PLUS_RHOBAR_MINUS = "rho_plus + rhobar_minus"


#: Sector signs (s_s, s_t) of each class: rho(p') is the in-state evolved by
#: exp(i s_s phi) P_s + exp(i s_t theta) P_t at p.
_SECTOR_SIGNS = {
    RhoClass.RHO: (+1, +1),
    RhoClass.RHO_BAR: (-1, -1),
    RhoClass.RHO_MINUS_RHOBAR_PLUS: (+1, -1),
    RhoClass.RHO_PLUS_RHOBAR_MINUS: (-1, +1),
}


@dataclass(frozen=True)
class SymmetryMap:
    """Affine involution of the torus coordinates attached to a family row.

    The image phases are ``sign * source + shift`` where the source may be
    the other channel's phase (channel swap).  Applying the map twice gives
    the identity mod 2pi.
    """

    phi_source: str  # "phi" or "theta"
    phi_sign: int
    phi_shift: float
    theta_source: str
    theta_sign: int
    theta_shift: float
    rho_class: RhoClass

    def apply(self, phi, theta):
        src = {"phi": phi, "theta": theta}
        new_phi = self.phi_sign * np.asarray(src[self.phi_source]) + self.phi_shift
        new_theta = self.theta_sign * np.asarray(src[self.theta_source]) + self.theta_shift
        return new_phi[()], new_theta[()]


_PI = math.pi

# Map triples per family row.  T2 and T3 share the same maps row by row; they
# differ only in how the effective ranges are written (see ere module).
_RANGE_ROW_MAPS = {
    1: SymmetryMap("phi", +1, 0.0, "theta", +1, 0.0, RhoClass.RHO),
    2: SymmetryMap("phi", +1, 0.0, "theta", -1, 0.0, RhoClass.RHO_MINUS_RHOBAR_PLUS),
    3: SymmetryMap("phi", -1, 0.0, "theta", +1, 0.0, RhoClass.RHO_PLUS_RHOBAR_MINUS),
    4: SymmetryMap("phi", -1, 0.0, "theta", -1, 0.0, RhoClass.RHO_BAR),
    5: SymmetryMap("theta", +1, 0.0, "phi", +1, 0.0, RhoClass.RHO_BAR),
    6: SymmetryMap("theta", -1, 0.0, "phi", -1, 0.0, RhoClass.RHO),
}

_MAPS: dict[tuple[str, int], SymmetryMap] = {
    # Zero-range rows: the shift depends on the sign pair (a0, a1).
    ("T1", 1): SymmetryMap("theta", +1, -_PI, "phi", +1, +_PI, RhoClass.RHO_BAR),
    ("T1", 2): SymmetryMap("theta", +1, +_PI, "phi", +1, -_PI, RhoClass.RHO_BAR),
    ("T1", 3): SymmetryMap("theta", -1, +_PI, "phi", -1, +_PI, RhoClass.RHO),
    ("T1", 4): SymmetryMap("theta", -1, -_PI, "phi", -1, -_PI, RhoClass.RHO),
    # 2D log-periodic models: channel swap with sign flip, density invariant.
    ("2D", 1): SymmetryMap("theta", -1, 0.0, "phi", -1, 0.0, RhoClass.RHO),
}
for _row, _map in _RANGE_ROW_MAPS.items():
    _MAPS[("T2", _row)] = _map
    _MAPS[("T3", _row)] = _map


def _row_map(model: ere.TwoChannelModel) -> SymmetryMap:
    """The map of the model's family row; an untagged model is NotApplicable."""
    if model.family is None:
        raise NotApplicable("inversion checks need a family tag (table/row) in the config")
    return expected_map(model.family.table, model.family.row)


def expected_map(table: str, row: int) -> SymmetryMap:
    """The (phi, theta, rho) transformation triple of a family row."""
    try:
        return _MAPS[(table, int(row))]
    except KeyError:
        raise ValueError(f"no symmetry map for table {table!r} row {row!r}") from None


def _inversion_strength(lam: float, a0: float, a1: float) -> float:
    """eta = lambda |a0 a1| of the inversion p -> 1/(eta p); a ValueError
    where it is not finite and nonzero."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    if a0 == 0.0 or a1 == 0.0:
        raise ValueError("scattering lengths must be nonzero")
    eta = lam * abs(a0 * a1)
    if not (math.isfinite(eta) and eta != 0.0):
        raise ValueError(
            f"momentum inversion: lambda |a0 a1| = {eta!r} must be finite and nonzero"
        )
    return eta


def inverted_momentum(p, lam: float, a0: float, a1: float):
    """Image of p under the momentum inversion ``p -> 1/(lambda |a0 a1| p)``.

    An image that is not finite and nonzero, where lambda |a0 a1| or
    lambda |a0 a1| p overflows or underflows, raises a ValueError naming
    the product.
    """
    eta = _inversion_strength(lam, a0, a1)
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0):
        raise ValueError("threshold maps to infinity: momentum inversion requires p > 0")
    with np.errstate(over="ignore", divide="ignore"):
        eta_p = eta * p
        image = 1.0 / eta_p
    bad = ~(np.isfinite(image) & (image != 0.0))
    if bad.any():
        k = np.argmax(bad)
        raise ValueError(
            f"momentum inversion: lambda |a0 a1| p = {float(eta_p.flat[k])!r} at "
            f"p = {float(p.flat[k])!r}; its image 1/(lambda |a0 a1| p) must be finite and nonzero"
        )
    return image[()]


def inversion_fixed_point(lam: float, a0: float, a1: float) -> float:
    """The self-inverse momentum p* = 1/sqrt(lambda |a0 a1|)."""
    return 1.0 / math.sqrt(_inversion_strength(lam, a0, a1))


def model_inverted_momentum(model: ere.TwoChannelModel, p):
    """Image of p under the model's own family inversion."""
    _row_map(model)
    return inverted_momentum(p, model.family.lam, model.singlet.length, model.triplet.length)


def make_paired_grid(a0: float, a1: float, lam: float = 1.0, count: int = 101) -> np.ndarray:
    """Log grid closed under the momentum inversion, over three decades on
    either side of the fixed point p*.

    Points below p* are mirrored to 1/(eta p) above it, so every sample's
    inversion image is (up to roundoff) also a sample.  With an odd ``count``
    the fixed point itself is included.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    pstar = inversion_fixed_point(lam, a0, a1)
    half = count // 2
    lower = pstar * np.logspace(-3.0, 0.0, half, endpoint=False)
    upper = inverted_momentum(lower, lam, a0, a1)
    parts = [lower]
    if count % 2:
        parts.append(np.array([pstar]))
    parts.append(upper[::-1])
    return np.concatenate(parts)


class InversionImage:
    """A trajectory's phases at the inversion image of its grid, evaluated on
    first use, so that the inversion checks of one op share one evaluation.

    ``phases`` is (map, phi', theta'): the family row's map of the
    trajectory's model and the phases at the image p' of each grid momentum.
    """

    def __init__(self, traj: Trajectory):
        self.traj = traj

    @functools.cached_property
    def phases(self) -> tuple:
        model = self.traj.model
        sym = _row_map(model)
        return (sym, *ere.phases(model, model_inverted_momentum(model, self.traj.p)))


def _family_check(traj: Trajectory, name: str, dev: float, tol: float, **details) -> Check:
    """The record of an inversion check: the family row, and its table among the details."""
    family = traj.model.family
    extra = {"row": family.row, "details": {"table": family.table, **details}}
    return Check(name, dev, tol, extra)


def _angle_deviation(actual, expected) -> np.ndarray:
    """Absolute deviation between two angles, reduced mod 2pi."""
    return np.abs(wrap_angle(np.asarray(actual) - np.asarray(expected)))


def verify_phase_map(
    traj: Trajectory,
    tol: float = DEFAULT_TOLERANCES["phase_map"],
    image: InversionImage | None = None,
) -> Check:
    """Check that phases at inverted momenta follow the family row's map.

    ``image`` is the ``InversionImage`` of ``traj`` (a new one when None), as
    for every inversion check."""
    sym, phi_inv, theta_inv = (image or InversionImage(traj)).phases
    want_phi, want_theta = sym.apply(traj.phi, traj.theta)
    dev = max(
        float(np.max(_angle_deviation(phi_inv, want_phi))),
        float(np.max(_angle_deviation(theta_inv, want_theta))),
    )
    return _family_check(traj, "phase_map", dev, tol)


def _default_in_states(n: int = 10, seed: int = 0) -> np.ndarray:
    """n Haar-random product in-states; seed 0 is ``RunConfig``'s default."""
    rng = np.random.default_rng(seed)
    return spin.haar_product_states(n, rng)


def verify_density_map(
    traj: Trajectory,
    in_states: np.ndarray | None = None,
    tol: float = DEFAULT_TOLERANCES["density_map"],
    image: InversionImage | None = None,
) -> Check:
    """Check the density-matrix transformation class of the family row.

    With u = P_s psi and v = P_t psi, the out-state of S = exp(i phi) P_s +
    exp(i theta) P_t is ``u u^+ + v v^+ + exp(i (phi - theta)) u v^+ + h.c.``:
    the phases enter only through the singlet-triplet cross block, and only
    through phi - theta.  The class's sector signs (s_s, s_t) therefore state
    ``rho(p') - rho~(p) = d u v^+ + conj(d) v u^+`` with
    ``d = exp(i (phi' - theta')) - exp(i (s_s phi - s_t theta))``, and
    ``max_deviation`` is the largest modulus of an entry of that over all
    points and in-states, for every class alike.  For the mixed classes the details
    also record ``cross_block_phase_vs_plain_rho``, the range of
    wrap((phi' - theta') - (phi - theta)), when some in-state's u v^+ has an
    entry of at least 1e-12.

    ``in_states`` is a (k, 4) array of normalized states with k >= 1 (one
    1-D state of length 4 also works); anything else raises ValueError, as
    does a non-finite phase.  None draws ``_default_in_states()``, the
    in-states of ``verify`` on a config without ``seed``.
    """
    sym, phi_inv, theta_inv = (image or InversionImage(traj)).phases
    if in_states is None:
        in_states = _default_in_states()
    shape = np.shape(in_states)
    states = np.atleast_2d(np.asarray(in_states, dtype=complex))
    if states.ndim != 2 or states.shape[1] != 4:
        raise ValueError(f"in_states must have shape (k, 4), got {shape}")
    if states.shape[0] == 0:
        raise ValueError("no in-states")
    states = spin.normalized_state(states)
    phi, theta = traj.phi, traj.theta
    if not np.all(np.isfinite([phi, theta, phi_inv, theta_inv])):
        raise ValueError("scattering operator is not unitary")

    s_s, s_t = _SECTOR_SIGNS[sym.rho_class]
    d = np.exp(1j * (phi_inv - theta_inv)) - np.exp(1j * (s_s * phi - s_t * theta))
    # Row j of ``states @ P`` is P psi_j (the projectors are real and symmetric).
    u = states @ spin.SINGLET_PROJECTOR
    v = states @ spin.TRIPLET_PROJECTOR
    cross = u[:, :, None] * v.conj()[:, None, :]  # (k, 4, 4): u v^+ per in-state
    # Entry by entry, with a from u v^+ and b from v u^+,
    # |d a + conj(d) b|^2 = |d|^2 (|a|^2 + |b|^2) + 2 Re(d^2 a conj(b)):
    # one real (n, 3) @ (3, 16 k) product squares every entry at every point.
    a, b = cross.reshape(-1), cross.conj().swapaxes(-1, -2).reshape(-1)
    ab, d2 = a * b.conj(), d * d
    squares = np.stack([d.real**2 + d.imag**2, d2.real, d2.imag], axis=-1) @ np.stack(
        [a.real**2 + a.imag**2 + b.real**2 + b.imag**2, 2.0 * ab.real, -2.0 * ab.imag]
    )
    max_dev = math.sqrt(max(float(np.max(squares)), 0.0))

    details: dict = {"rho_class": sym.rho_class.value}
    if s_s != s_t and np.max(np.abs(cross)) >= 1e-12:
        details["cross_block_phase_vs_plain_rho"] = _finite_range(
            wrap_angle((phi_inv - theta_inv) - (phi - theta))
        )
    return _family_check(traj, "density_map", max_dev, tol, **details)


def _finite_range(values: np.ndarray) -> dict | None:
    """Min and max of the non-NaN values in C order; None if there are none.

    Ties go to the first of the equal values, as Python's ``min``/``max``
    break them, so -0.0 against 0.0 comes out as a point-by-point loop gives.
    """
    finite = values[~np.isnan(values)]
    if finite.size == 0:
        return None
    low = finite[np.argmax(finite == finite.min())]
    high = finite[np.argmax(finite == finite.max())]
    return {"min": float(low), "max": float(high)}


def verify_ep_invariance(
    traj: Trajectory,
    tol: float = DEFAULT_TOLERANCES["ep_invariance"],
    image: InversionImage | None = None,
) -> Check:
    """Check that the entanglement power is invariant under the row's inversion;
    a row that mixes the sectors is NotApplicable before any inversion."""
    rho_class = _row_map(traj.model).rho_class
    if rho_class not in (RhoClass.RHO, RhoClass.RHO_BAR):
        raise NotApplicable(
            "ep suite applies to families mapping onto rho or rho-bar as a whole; "
            f"this row mixes sectors ({rho_class.value})"
        )
    _sym, phi_inv, theta_inv = (image or InversionImage(traj)).phases
    ep_here = spin.entanglement_power_closed(traj.phi, traj.theta)
    ep_image = spin.entanglement_power_closed(phi_inv, theta_inv)
    dev = float(np.max(np.abs(ep_here - ep_image)))
    return _family_check(traj, "ep_invariance", dev, tol)
