"""Momentum-inversion (UV/IR) symmetries and their verification.

Each symmetric family row pairs a momentum inversion ``p -> 1/(lambda |a0 a1| p)``
with an affine relabeling of the torus coordinates, e.g. ``phi -> -pi - theta``,
and a transformation class for the out-state density matrix:

* ``rho``      : the density matrix itself is invariant;
* ``rho_bar``  : it maps to the conjugated-evolution matrix
  ``S* |in><in| S^T`` (all phase shifts change sign);
* mixed classes: the singlet-projected block follows one of the above and the
  triplet-projected block the other.  Only the block-diagonal statements are
  asserted; the cross (singlet-triplet) block phase is recorded as data.

The verifiers sample a model over a positive momentum grid, evaluate the
phases at each ``p`` and at its image ``p'``, and bound the deviation of the
mapped relation.  All comparisons of angles are taken mod 2pi.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import ere, spin
from .config import DEFAULT_TOLERANCES
from .torus import wrap_angle

__all__ = [
    "RhoClass",
    "SymmetryMap",
    "Check",
    "expected_map",
    "inverted_momentum",
    "inversion_fixed_point",
    "model_inversion_strength",
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
    # Singlet block from plain rho, triplet block from the conjugated matrix.
    RHO_MINUS_RHOBAR_PLUS = "rho_minus + rhobar_plus"
    # Singlet block from the conjugated matrix, triplet block from plain rho.
    RHO_PLUS_RHOBAR_MINUS = "rho_plus + rhobar_minus"


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


def expected_map(table: str, row: int) -> SymmetryMap:
    """The (phi, theta, rho) transformation triple of a family row."""
    try:
        return _MAPS[(table, int(row))]
    except KeyError:
        raise ValueError(f"no symmetry map for table {table!r} row {row!r}") from None


def inverted_momentum(p, lam: float, a0: float, a1: float):
    """Image of p under the momentum inversion ``p -> 1/(lambda |a0 a1| p)``."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    if a0 == 0.0 or a1 == 0.0:
        raise ValueError("scattering lengths must be nonzero")
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0):
        raise ValueError("threshold maps to infinity: momentum inversion requires p > 0")
    return (1.0 / (lam * abs(a0 * a1) * p))[()]


def inversion_fixed_point(lam: float, a0: float, a1: float) -> float:
    """The self-inverse momentum p* = 1/sqrt(lambda |a0 a1|)."""
    if lam <= 0.0 or a0 == 0.0 or a1 == 0.0:
        raise ValueError("need lambda > 0 and nonzero lengths")
    return 1.0 / math.sqrt(lam * abs(a0 * a1))


def model_inversion_strength(model: ere.TwoChannelModel) -> float:
    """eta = lambda |a0 a1| of the model's family inversion."""
    if model.family is None:
        raise ValueError("model carries no family tag")
    a0 = model.singlet.length
    a1 = model.triplet.length
    if not (math.isfinite(a0) and math.isfinite(a1)):
        raise ValueError("momentum inversion undefined at unitarity")
    return model.family.lam * abs(a0 * a1)


def model_inverted_momentum(model: ere.TwoChannelModel, p):
    """Image of p under the model's own family inversion."""
    model_inversion_strength(model)  # rejects untagged and unitarity models
    return inverted_momentum(p, model.family.lam, model.singlet.length, model.triplet.length)


def make_paired_grid(
    a0: float, a1: float, lam: float = 1.0, count: int = 101, decades: float = 3.0
) -> np.ndarray:
    """Log grid closed under the momentum inversion.

    Points below the fixed point p* are mirrored to 1/(eta p) above it, so
    every sample's inversion image is (up to roundoff) also a sample.  With an
    odd ``count`` the fixed point itself is included.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    eta = lam * abs(a0 * a1)
    pstar = inversion_fixed_point(lam, a0, a1)
    half = count // 2
    lower = pstar * np.logspace(-decades, 0.0, half, endpoint=False)
    upper = 1.0 / (eta * lower)
    parts = [lower]
    if count % 2:
        parts.append(np.array([pstar]))
    parts.append(upper[::-1])
    return np.concatenate(parts)


@dataclass(frozen=True)
class Check:
    """Outcome of one verification check; ``extra`` joins its JSON as is."""

    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "max_deviation": float(self.max_deviation),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            **self.extra,
        }


def _require_family(model: ere.TwoChannelModel) -> SymmetryMap:
    if model.family is None:
        raise ValueError("verification requires a model with a family tag")
    return expected_map(model.family.table, model.family.row)


def _momentum_grid(p_grid) -> np.ndarray:
    """The grid as a float array; a missing or empty grid is rejected."""
    if p_grid is None:
        raise ValueError("p_grid is required")
    p = np.asarray(p_grid, dtype=float)
    if p.size == 0:
        raise ValueError("empty momentum grid")
    return p


def _angle_deviation(actual, expected) -> np.ndarray:
    """Absolute deviation between two angles, reduced mod 2pi."""
    return np.abs(wrap_angle(np.asarray(actual) - np.asarray(expected)))


def verify_phase_map(
    model: ere.TwoChannelModel, p_grid, tol: float = DEFAULT_TOLERANCES["phase_map"]
) -> Check:
    """Check that phases at inverted momenta follow the family row's map."""
    sym = _require_family(model)
    p = _momentum_grid(p_grid)
    phi, theta = ere.phases(model, p)
    p_inv = model_inverted_momentum(model, p)
    phi_inv, theta_inv = ere.phases(model, p_inv)
    want_phi, want_theta = sym.apply(phi, theta)
    dev = max(
        float(np.max(_angle_deviation(phi_inv, want_phi))),
        float(np.max(_angle_deviation(theta_inv, want_theta))),
    )
    return Check(
        "phase_map", dev, tol, dev < tol,
        {"row": model.family.row, "details": {"table": model.family.table}},
    )


def _default_in_states(n: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return spin.haar_product_states(n, rng)


def verify_density_map(
    model: ere.TwoChannelModel,
    in_states: np.ndarray | None = None,
    p_grid=None,
    tol: float = DEFAULT_TOLERANCES["density_map"],
) -> Check:
    """Check the density-matrix transformation class of the family row.

    For classes RHO / RHO_BAR the full 4x4 matrices are compared.  For the
    mixed classes the singlet- and triplet-projected blocks are compared to
    their stated sources, and the cross-block phase relation is recorded in
    the report details (not asserted).

    ``in_states`` is a (k, 4) array of normalized states with k >= 1 (one
    1-D state of length 4 also works); anything else raises ValueError.  The
    whole grid is evaluated at once: the scattering operators at p and at its
    image are built as (n, 4, 4) stacks, each operator is checked for
    unitarity (``spin.is_unitary``) and each in-state for normalization (ValueError
    otherwise), and only the in-states are looped over, building just the
    density matrices that the class compares.  The projector sandwiches are
    two 2-D products over the whole stack (``_sandwich``).  The projector
    entries are 0, +-1/2 and 1, so every product is exact and each entry sums
    at most two nonzero terms: the bits do not depend on how BLAS orders the
    sums, and the report is the one a point-by-point evaluation gives.
    """
    sym = _require_family(model)
    if in_states is None:
        in_states = _default_in_states(10)
    shape = np.shape(in_states)
    in_states = np.atleast_2d(np.asarray(in_states, dtype=complex))
    if in_states.ndim != 2 or in_states.shape[1] != 4:
        raise ValueError(f"in_states must have shape (k, 4), got {shape}")
    if in_states.shape[0] == 0:
        raise ValueError("no in-states")
    states = [spin.normalized_state(psi) for psi in in_states]
    p = _momentum_grid(p_grid)
    phi, theta = (np.atleast_1d(x) for x in ere.phases(model, p))
    p_inv = model_inverted_momentum(model, p)
    phi_inv, theta_inv = (np.atleast_1d(x) for x in ere.phases(model, p_inv))

    s_here = spin.build_s_operator(phi, theta)
    s_image = spin.build_s_operator(phi_inv, theta_inv)
    if not (spin.is_unitary(s_here) and spin.is_unitary(s_image)):
        raise ValueError("scattering operator is not unitary")
    s_bar = s_here.conj()

    p_s, p_t = spin.SINGLET_PROJECTOR, spin.TRIPLET_PROJECTOR
    mixed = sym.rho_class not in (RhoClass.RHO, RhoClass.RHO_BAR)
    max_dev = 0.0
    # cross_phases[k, j]: point k, in-state j; NaN where the phase is undefined.
    cross_phases = np.full((p.size, len(states)), np.nan)
    for j, psi in enumerate(states):
        rho_image = _outer_rows(s_image @ psi)
        if sym.rho_class is RhoClass.RHO:
            dev = _max_abs(rho_image - _outer_rows(s_here @ psi))
        elif sym.rho_class is RhoClass.RHO_BAR:
            dev = _max_abs(rho_image - _outer_rows(s_bar @ psi))
        else:
            rho_plain = _outer_rows(s_here @ psi)
            rho_bar = _outer_rows(s_bar @ psi)
            if sym.rho_class is RhoClass.RHO_MINUS_RHOBAR_PLUS:
                singlet_src, triplet_src = rho_plain, rho_bar
            else:
                singlet_src, triplet_src = rho_bar, rho_plain
            dev = max(
                _max_abs(_sandwich(p_s, rho_image - singlet_src, p_s)),
                _max_abs(_sandwich(p_t, rho_image - triplet_src, p_t)),
            )
            cross_phases[:, j] = _cross_block_phase(rho_image, rho_plain, p_s, p_t)
        max_dev = max(max_dev, dev)
    details: dict = {"rho_class": sym.rho_class.value, "table": model.family.table}
    if mixed:
        summary = _finite_range(cross_phases)
        if summary is not None:
            details["cross_block_phase_vs_plain_rho"] = summary
    return Check(
        "density_map", max_dev, tol, max_dev < tol,
        {"row": model.family.row, "details": details},
    )


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def _outer_rows(vectors: np.ndarray) -> np.ndarray:
    """Row-wise ``np.outer(v, v.conj())``: the stack of pure-state density matrices."""
    return vectors[:, :, None] * vectors.conj()[:, None, :]


def _sandwich(left: np.ndarray, stack: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ stack[k] @ right`` for every k, as two (4n, 4) @ (4, 4) products.

    The left product comes first, as in ``left @ stack @ right``: it is taken
    on the transposed blocks, ``(left X)^T = X^T left^T``.  A stacked matmul
    would make one small BLAS call per block instead.
    """
    n = stack.shape[0]
    left_x_t = (stack.transpose(0, 2, 1).reshape(4 * n, 4) @ left.T).reshape(n, 4, 4)
    return (left_x_t.transpose(0, 2, 1).reshape(4 * n, 4) @ right).reshape(n, 4, 4)


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


def _cross_block_phase(rho_image, rho_plain, p_s, p_t) -> np.ndarray:
    """Phase of the image's singlet-triplet block relative to the plain one.

    Per point, the ratio is taken at the plain block's largest entry (the
    first one on ties); the phase is NaN where that entry is below 1e-12.
    """
    n = rho_plain.shape[0]
    cross_image = _sandwich(p_s, rho_image, p_t).reshape(n, 16)
    cross_plain = _sandwich(p_s, rho_plain, p_t).reshape(n, 16)
    idx = np.argmax(np.abs(cross_plain), axis=1)[:, None]
    plain = np.take_along_axis(cross_plain, idx, axis=1)[:, 0]
    image = np.take_along_axis(cross_image, idx, axis=1)[:, 0]
    phase = np.full(n, np.nan)
    defined = ~(np.abs(plain) < 1e-12)
    phase[defined] = np.angle(image[defined] / plain[defined])
    return phase


def verify_ep_invariance(
    model: ere.TwoChannelModel, p_grid, tol: float = DEFAULT_TOLERANCES["ep_invariance"]
) -> Check:
    """Check that the entanglement power is invariant under the inversion."""
    sym = _require_family(model)
    del sym  # the family tag is required; EP invariance holds for every row
    p = _momentum_grid(p_grid)
    phi, theta = ere.phases(model, p)
    p_inv = model_inverted_momentum(model, p)
    phi_inv, theta_inv = ere.phases(model, p_inv)
    ep_here = spin.entanglement_power_closed(phi, theta)
    ep_image = spin.entanglement_power_closed(phi_inv, theta_inv)
    dev = float(np.max(np.abs(np.asarray(ep_here) - np.asarray(ep_image))))
    return Check(
        "ep_invariance", dev, tol, dev < tol,
        {"row": model.family.row, "details": {"table": model.family.table}},
    )
