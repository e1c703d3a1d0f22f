"""Effective-range-expansion (ERE) models and their phase shifts.

A two-channel model carries a singlet and a triplet s-wave channel, either in
3D (scattering length ``a``, effective range ``r``, no shape parameters) or in
2D (scattering length ``a2 > 0``, effective area ``sigma2``).  Phase shifts
are returned as the doubled angles ``phi = 2*delta_0`` and
``theta = 2*delta_1`` that coordinatize the flat torus.

Each channel states its ERE once, as a pair (S, C) of functions of p with
exp(i delta) proportional to C + i S, so cot(delta) = C/S (``pair`` of
``Channel3D`` and ``Channel2D``).  Dimension enters only there; every phase
quantity comes from the pair and its momentum derivatives:

* ``phases``: 2 delta = 2 atan2(S, C), continuous in p;
* ``tangents``: 2 (S'C - SC')/(S^2 + C^2);
* ``second_derivatives``: 2 [(S''C - SC'') - 2 t (SS' + CC')]/(S^2 + C^2),
  with t = (S'C - SC')/(S^2 + C^2);
* ``s_element``: (C + iS)/(C - iS).

All four refuse p < 0; the derivatives of a 2D phase also refuse p = 0, where
the log in its pair diverges.  On a grid, ``torus.sample_trajectory`` gives
all three from one evaluation of each pair, with the same arithmetic.

Momentum-inversion-symmetric families are built by ``make_symmetric_model``:

* table "T1": zero-range models, symmetric under ``p -> 1/(|a0 a1| p)``,
  rows 1-4 distinguished by the signs of (a0, a1);
* table "T2": range-corrected models, symmetric under
  ``p -> 1/(lambda |a0 a1| p)``, ranges ``-/+ 2 eta / a`` with
  ``eta = lambda |a0 a1|``; rows 1-4 cross-correlate (r0 from a1's magnitude),
  rows 5-6 self-correlate;
* table "T3": the causal subfamily, ranges written ``-/+ 2 a lambda`` with
  explicit sign constraints so that both ranges are <= 0;
* table "2D": log-periodic 2D models, symmetric under ``p -> 1/(a0 a1 p)``.

Units: hbar = M = 1; lengths in an arbitrary unit L, momenta in 1/L; only the
dimensionless products a*p, r*p and lambda enter any formula or tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Channel3D",
    "Channel2D",
    "FamilyTag",
    "TwoChannelModel",
    "phases",
    "tangents",
    "second_derivatives",
    "s_element",
    "make_symmetric_model",
    "make_2d_model",
    "channel_pole_momentum",
    "quarter_lambda_branch",
    "ranges_follow",
    "T1_ROWS",
    "T2_ROWS",
    "T3_ROWS",
]


@dataclass(frozen=True)
class Channel3D:
    """A 3D s-wave channel: p*cot(delta) = -1/a + (r/2) p^2, no shape terms.

    Its ERE pair is S = -a p, C = 1 - a r p^2/2.  ``unitarity=True``
    represents the a -> +/-infinity limit symbolically, with the pair (1, 0)
    (delta = pi/2 at every momentum); it requires r = 0.
    """

    a: float
    r: float = 0.0
    unitarity: bool = False

    def __post_init__(self) -> None:
        if self.unitarity:
            if self.r != 0.0:
                raise ValueError("unitarity channel requires r = 0")
            object.__setattr__(self, "a", math.inf)
        else:
            if not math.isfinite(self.a):
                raise ValueError(
                    "infinite scattering length must use the unitarity flag"
                )
            if not math.isfinite(self.r):
                raise ValueError("effective range must be finite")

    @classmethod
    def at_unitarity(cls) -> "Channel3D":
        return cls(a=math.inf, r=0.0, unitarity=True)

    @property
    def length(self) -> float:
        return self.a

    def pair(self, p: np.ndarray, order: int) -> list:
        """[(S, C), (S', C'), (S'', C'')] at momenta p, to derivative ``order``."""
        if self.unitarity:
            return [(1.0, np.zeros_like(p))] + [(0.0, 0.0)] * order
        a, r = self.a, self.r
        pairs = [(-a * p, 1.0 - 0.5 * a * r * p * p)]
        if order:
            pairs += [(-a, -a * r * p), (0.0, -a * r)][:order]
        return pairs


@dataclass(frozen=True)
class Channel2D:
    """A 2D s-wave channel with length a2 and effective area sigma2.

    Its ERE pair is S = 1, C = -(2/pi) log(a2 p), so cot(delta) =
    -(1/pi) log(a2^2 p^2) and the phase rises from 0 at threshold to 2 pi.
    The sign of C is this code's convention, not yet checked against the
    paper's.  Only sigma2 = 0 (the scattering-length approximation) is
    accepted: the pair has no sigma2 term.
    """

    a2: float
    sigma2: float = 0.0

    def __post_init__(self) -> None:
        if not (self.a2 > 0.0 and math.isfinite(self.a2)):
            raise ValueError("2D scattering length a2 must be positive and finite")
        if self.sigma2 != 0.0:
            raise ValueError(
                f"2D channels take sigma2 = 0 only (scattering-length approximation); "
                f"got sigma2={self.sigma2!r}"
            )

    @property
    def length(self) -> float:
        return self.a2

    def pair(self, p: np.ndarray, order: int) -> list:
        """[(S, C), (S', C'), (S'', C'')] at momenta p, to derivative ``order``;
        a derivative at p = 0 raises ValueError."""
        with np.errstate(divide="ignore"):
            pairs = [(1.0, (-2.0 / np.pi) * np.log(self.a2 * p))]
        if order:
            if np.any(p == 0):
                raise ValueError("2D phase derivatives require p > 0")
            dc = (-2.0 / np.pi) / p
            pairs.append((0.0, dc))
            if order > 1:
                pairs.append((0.0, -dc / p))
        return pairs


@dataclass(frozen=True)
class FamilyTag:
    """Membership of a model in a momentum-inversion-symmetric family."""

    table: str  # "T1", "T2", "T3" or "2D"
    row: int
    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.table not in ("T1", "T2", "T3", "2D"):
            raise ValueError(f"unknown table {self.table!r}")
        if self.lam <= 0.0:
            raise ValueError("lambda must be positive")
        rows = {"T1": T1_ROWS, "T2": T2_ROWS, "T3": T3_ROWS, "2D": (1,)}[self.table]
        if self.row not in rows:
            raise ValueError(f"table {self.table} has no row {self.row}")


#: A range matches its family's value to this fraction of it (no absolute floor).
RANGE_MATCH_TOL = 1e-12

T1_ROWS = (1, 2, 3, 4)
T2_ROWS = (1, 2, 3, 4, 5, 6)
T3_ROWS = (1, 2, 3, 4, 5, 6)

# Sign constraints of the zero-range rows: row -> (sign a0, sign a1).
_T1_SIGNS = {1: (+1, -1), 2: (-1, +1), 3: (-1, -1), 4: (+1, +1)}

# Range-corrected rows: r0, r1 in units of eta = lambda |a0 a1|, written as
# (sign, denominator channel): r = sign * 2 * eta / a_denom.
_T2_RANGE = {
    1: ((-1, 0), (-1, 1)),
    2: ((-1, 0), (+1, 1)),
    3: ((+1, 0), (-1, 1)),
    4: ((+1, 0), (+1, 1)),
    5: ((-1, 1), (-1, 0)),
    6: ((+1, 1), (+1, 0)),
}

# Causal rows: r = sign * 2 * a_src * lambda, valid only when a_src has the
# listed sign (which makes every range <= 0).  Entries: (sign, src, a_src>0?).
_T3_RANGE = {
    1: ((-1, 1, True), (-1, 0, True)),
    2: ((+1, 1, False), (-1, 0, True)),
    3: ((-1, 1, True), (+1, 0, False)),
    4: ((+1, 1, False), (+1, 0, False)),
    5: ((-1, 0, True), (-1, 1, True)),
    6: ((+1, 0, False), (+1, 1, False)),
}


@dataclass(frozen=True)
class TwoChannelModel:
    """Two independent s-wave channels plus optional family membership."""

    dimension: int
    singlet: Channel3D | Channel2D
    triplet: Channel3D | Channel2D
    family: FamilyTag | None = field(default=None)

    def __post_init__(self) -> None:
        if self.dimension not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        want = Channel3D if self.dimension == 3 else Channel2D
        for name, ch in (("singlet", self.singlet), ("triplet", self.triplet)):
            if not isinstance(ch, want):
                raise ValueError(f"{name} channel must be {want.__name__}")
        if self.family is not None:
            self._check_family()

    def _check_family(self) -> None:
        tag = self.family
        if self.dimension == 2:
            if tag.table != "2D":
                raise ValueError("2D models must use the 2D family table")
            return
        if tag.table == "2D":
            raise ValueError("3D models cannot use the 2D family table")
        a0, a1 = self.singlet.a, self.triplet.a
        r0_want, r1_want = _family_ranges(tag.table, tag.row, a0, a1, tag.lam)
        for got, want in ((self.singlet.r, r0_want), (self.triplet.r, r1_want)):
            if not _range_matches(got, want):
                raise ValueError(
                    f"channel ranges ({self.singlet.r}, {self.triplet.r}) do not "
                    f"match {tag.table} row {tag.row} correlation "
                    f"({r0_want}, {r1_want})"
                )

    @property
    def channels(self) -> tuple:
        return (self.singlet, self.triplet)


def _range_matches(got: float, want: float) -> bool:
    """True when ``got`` is ``want`` to ``RANGE_MATCH_TOL`` relative to ``want``."""
    return abs(got - want) <= RANGE_MATCH_TOL * abs(want)


def _family_ranges(
    table: str, row: int, a0: float, a1: float, lam: float
) -> tuple[float, float]:
    """Effective ranges dictated by a family row (sign constraints checked)."""
    if table == "T1":
        s0, s1 = _T1_SIGNS[row]
        for label, a, s in (("a0", a0, s0), ("a1", a1, s1)):
            cond = "<0" if s < 0 else ">0"
            if a * s <= 0:
                raise ValueError(f"T1 row {row} requires ({label}{cond}); got {label}={a}")
        return 0.0, 0.0
    if table == "T2":
        eta = lam * abs(a0 * a1)
        (sg0, d0), (sg1, d1) = _T2_RANGE[row]
        dens = (a0, a1)
        return sg0 * 2.0 * eta / dens[d0], sg1 * 2.0 * eta / dens[d1]
    if table == "T3":
        sources = (a0, a1)
        out = []
        for sg, src, positive in _T3_RANGE[row]:
            a_src = sources[src]
            label = f"a{src}"
            if positive and a_src <= 0:
                raise ValueError(f"T3 row {row} requires ({label}>0); got {label}={a_src}")
            if not positive and a_src >= 0:
                raise ValueError(f"T3 row {row} requires ({label}<0); got {label}={a_src}")
            out.append(sg * 2.0 * a_src * lam)
        return tuple(out)
    raise ValueError(f"unknown table {table!r}")


def make_symmetric_model(
    table: str, row: int, a0: float, a1: float, lam: float = 1.0
) -> TwoChannelModel:
    """Build a 3D model from a momentum-inversion-symmetry table row.

    ``lam`` is the inversion parameter lambda (> 0); it is ignored for table
    T1, whose inversion is the lambda-free ``p -> 1/(|a0 a1| p)``.  Sign
    constraints of the chosen row are enforced and violations rejected with
    the row's parenthetical condition.
    """
    if table == "T1":
        lam = 1.0
    tag = FamilyTag(table=table, row=row, lam=lam)
    if a0 == 0.0 or a1 == 0.0:
        raise ValueError("scattering lengths must be nonzero")
    r0, r1 = _family_ranges(table, row, a0, a1, lam)
    return TwoChannelModel(
        dimension=3,
        singlet=Channel3D(a=a0, r=r0),
        triplet=Channel3D(a=a1, r=r1),
        family=tag,
    )


def make_2d_model(
    a2_0: float, a2_1: float, sigma2_0: float = 0.0, sigma2_1: float = 0.0
) -> TwoChannelModel:
    """Build a 2D model, tagged with the 2D inversion family ``p -> 1/(a0 a1 p)``."""
    return TwoChannelModel(
        dimension=2,
        singlet=Channel2D(a2=a2_0, sigma2=sigma2_0),
        triplet=Channel2D(a2=a2_1, sigma2=sigma2_1),
        family=FamilyTag(table="2D", row=1, lam=1.0),
    )


# ---------------------------------------------------------------------------
# Phase shifts and their momentum derivatives, from each channel's ERE pair
# ---------------------------------------------------------------------------


def _derivative(model: TwoChannelModel, p, order: int) -> tuple:
    """The ``order``-th momentum derivative (0, 1 or 2) of (phi, theta)."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise ValueError("momentum must be >= 0")
    return tuple(_from_pair(ch.pair(p, order))[order] for ch in model.channels)


def _from_pair(pairs: list) -> list:
    """2 atan2(S, C) and its derivatives from [(S, C), (S', C'), ...], to the
    order of ``pairs``: 2 t with t = (S'C - SC')/(S^2 + C^2), then
    2 [(S''C - SC'') - 2 t (SS' + CC')]/(S^2 + C^2).

    S^2 + C^2 and its companions may overflow for huge a p; the slope then
    takes its limit 0, as 1/(a p^2) does, and the second derivative may be a
    quiet NaN (0 times an overflowed SS'), which ``geometry.eom_residual`` refuses.
    """
    s, c = pairs[0]
    out = [2.0 * np.arctan2(s, c)]
    if len(pairs) > 1:
        with np.errstate(over="ignore"):
            s1, c1 = pairs[1]
            q = s * s + c * c
            t = (s1 * c - s * c1) / q
            out.append(2.0 * t)
        if len(pairs) > 2:
            s2, c2 = pairs[2]
            with np.errstate(over="ignore", invalid="ignore"):
                out.append(2.0 * (((s2 * c - s * c2) - 2.0 * t * (s * s1 + c * c1)) / q))
    return [x[()] for x in out]


def phases(model: TwoChannelModel, p):
    """(phi, theta) = 2 atan2(S, C) per channel at momentum p.

    The branch is continuous in p and 0 at threshold: a 3D phase runs into
    (-2pi, 2pi) (through -/+ pi where C = 0), a 2D phase increases through
    (0, 2pi), and a unitarity phase is pi.
    """
    return _derivative(model, p, 0)


def tangents(model: TwoChannelModel, p):
    """(dphi/dp, dtheta/dp) = 2 t per channel, t = (S'C - SC')/(S^2 + C^2)."""
    return _derivative(model, p, 1)


def second_derivatives(model: TwoChannelModel, p):
    """(d2phi/dp2, d2theta/dp2) = 2 [(S''C - SC'') - 2 t (SS' + CC')]/(S^2 + C^2)."""
    return _derivative(model, p, 2)


def s_element(model: TwoChannelModel, channel: int, p):
    """Unit-modulus S-matrix element (C + iS)/(C - iS) = exp(2 i delta) of one channel.

    It is taken as exp(i * 2 atan2(S, C)), which stays finite where C is
    infinite (a 2D channel at threshold, where the element is 1).
    """
    if channel not in (0, 1):
        raise ValueError("channel must be 0 (singlet) or 1 (triplet)")
    return np.exp(1j * phases(model, p)[channel])


def channel_pole_momentum(ch: Channel3D | Channel2D) -> float | None:
    """The one momentum p > 0 where the channel's phase is a multiple of pi.

    It is the zero of the pair's C: sqrt(2/(a r)) for a 3D channel with
    a r > 0, 1/a2 for a 2D channel, and None for every other 3D channel
    (unitarity included), whose phase stays strictly between two multiples
    of pi.
    """
    if isinstance(ch, Channel2D):
        return 1.0 / ch.a2
    if not ch.unitarity and ch.a * ch.r > 0.0:
        return math.sqrt(2.0 / (ch.a * ch.r))
    return None


def ranges_follow(model: TwoChannelModel, sign: int) -> bool:
    """True when r = sign * 2 a lambda (family tag's lambda) in every channel,
    relative to |2 a lambda|; unitarity channels never follow."""
    return all(
        not ch.unitarity and _range_matches(ch.r, sign * 2.0 * ch.a * model.family.lam)
        for ch in model.channels
    )


def quarter_lambda_branch(model: TwoChannelModel) -> str | None:
    """Classify a lambda = 1/4 range-correlated (row 5/6) model.

    Returns "solvable" when both channels satisfy r = +2 a lambda (the branch
    generated by row 6 with equal signs or row 5 with mixed signs), or
    "unsolvable" for the complementary branch r = -2 a lambda, where no
    single-combination geometric potential exists (``ranges_follow``).
    Returns None when the model is not a lambda = 0.25 row-5/6 member.
    """
    tag = model.family
    if tag is None or tag.table not in ("T2", "T3") or tag.row not in (5, 6) or tag.lam != 0.25:
        return None
    if ranges_follow(model, +1):
        return "solvable"
    return "unsolvable" if ranges_follow(model, -1) else None
