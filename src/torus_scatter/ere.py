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
* ``tangents``: 2 t with t = (S'C - SC')/(S^2 + C^2);
* the second derivative 2 [(S''C - SC'') - 2 t (SS' + CC')]/(S^2 + C^2).

``derivatives`` gives all three from one ``pair`` call per channel, under one
floating-point policy; ``phases``, ``tangents`` and ``torus.sample_trajectory``
read it.  It refuses p < 0, and a 2D tangent p = 0, where the log diverges.

Momentum-inversion-symmetric families are built by ``make_symmetric_model``:

* table "T1": zero-range models, symmetric under ``p -> 1/(|a0 a1| p)``,
  rows 1-4 distinguished by the signs of (a0, a1);
* table "T2": range-corrected models, symmetric under
  ``p -> 1/(lambda |a0 a1| p)``, ranges ``-/+ 2 lambda |a0 a1| / a``, formed
  as ``2 (lambda |a|)`` of the other channel's length with the sign of
  ``-/+ a``; rows 1-4 cross-correlate (r0 from a1's magnitude), rows 5-6
  self-correlate;
* table "T3": the causal subfamily, each row the part of its T2 row where
  both ranges are <= 0, so each length's sign is fixed by the row;
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
    "derivatives",
    "phases",
    "tangents",
    "make_symmetric_model",
    "make_2d_model",
    "channel_pole_momentum",
    "ranges_follow",
    "T1_ROWS",
    "T2_ROWS",
    "T3_ROWS",
]


def _scaled_lengths(x: float, y: float) -> tuple:
    """(k, x / 2^k, y / 2^k) for the power of two 2^k at the geometric mean
    of the nonzero ones of |x|, |y|, raised where the larger would otherwise
    overflow and capped at 2^1023, the largest that is finite.  The scaling
    is exact and x y / 2^2k is of order one, so products of the scaled
    lengths and of momenta times 2^k are the given unit's bits wherever the
    given unit's products are normal floats, and the same bits at every
    unit wherever they are normal in this one."""
    ex, ey = math.frexp(x or y)[1], math.frexp(y or x)[1]
    k = min(max((ex + ey) // 2, max(ex, ey) - 1024), 1023)
    return k, math.ldexp(x, -k), math.ldexp(y, -k)


def _check_derivatives(p, pairs: list) -> None:
    """Raise ValueError naming the grid where a derivative in ``pairs``, C'
    or C'' (a length and its square; an array over p, or one number), is not
    finite, or where C'' is 0 at a p > 0.  C' may underflow to 0: 3D
    -a r p does so only where its term in the tangent, a r p^2 of the
    leading one, is below 2^-51, and 2D -2/(pi p) never does."""
    # Elementwise ufuncs and one reduce, not ndarray.all, np.size and
    # np.count_nonzero: their Python layers cost more than the check on the
    # one to hundreds of momenta it is given.
    bad = ~np.isfinite(pairs[1][1])
    if len(pairs) > 2:
        dc = pairs[2][1]
        bad = bad | ~np.isfinite(dc) | ((dc == 0.0) & (p > 0.0))
    if np.logical_or.reduce(bad, axis=None):
        raise ValueError(
            f"phase derivatives: C' or C'' is not finite and nonzero on p in "
            f"[{float(p.min())!r}, {float(p.max())!r}] at this unit of length"
        )


@dataclass(frozen=True)
class Channel3D:
    """A 3D s-wave channel: p*cot(delta) = -1/a + (r/2) p^2, no shape terms.

    Its ERE pair is S = -a p, C = 1 - a r p^2/2.  Both a and r must be finite.
    """

    a: float
    r: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.a):
            raise ValueError("scattering length must be finite")
        if not math.isfinite(self.r):
            raise ValueError("effective range must be finite")
        k, a_u, r_u = _scaled_lengths(self.a, self.r)
        object.__setattr__(self, "_unit", (2.0**k, a_u, r_u))

    @property
    def length(self) -> float:
        return self.a

    def pair(self, p: np.ndarray, order: int) -> list:
        """[(S, C), (S', C'), (S'', C'')] at momenta p, to derivative ``order``,
        under the errstate of ``derivatives``.  S and C are pure numbers from
        the ``_scaled_lengths`` unit (p of order sqrt(|a r|) p) and must not
        both be non-finite; C' and C'' are scaled back by the unit and, unless
        a r = 0, must be finite with C'' nonzero (``_check_derivatives``)."""
        unit, a_u, r_u = self._unit
        p_u = p * unit
        s, c = -a_u * p_u, 1.0 - 0.5 * a_u * r_u * p_u * p_u
        if np.logical_or.reduce(~(np.isfinite(s) | np.isfinite(c)), axis=None):
            raise ValueError(f"phases: S and C are both not finite on p in [{float(p.min())!r}, "
                             f"{float(p.max())!r}] at this unit of length")
        pairs = [(s, c)]
        if order:
            ar = -a_u * r_u
            pairs += [(-self.a, ar * p_u * unit), (0.0, ar * unit * unit)][:order]
            if ar:
                _check_derivatives(p, pairs)
        return pairs

    def magnitudes(self, p: float) -> list:
        """[(name, coefficient, value at p)] of the pair's dimensionless
        products as ``pair`` forms them; a coefficient is nonzero iff its lengths are."""
        unit, a_u, r_u = self._unit
        p_u = p * unit
        return [("a p", self.a, self.a * p), ("r p", self.r, self.r * p),
                ("a r p^2", self.a and self.r, a_u * r_u * p_u * p_u)]


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
        """[(S, C), (S', C'), (S'', C'')] at momenta p, to derivative ``order``,
        under the errstate of ``derivatives``; a derivative at p = 0, or one not
        finite and nonzero (``_check_derivatives``), raises ValueError."""
        pairs = [(1.0, (-2.0 / np.pi) * np.log(self.a2 * p))]
        if order:
            if np.logical_or.reduce(p == 0, axis=None):  # not np.any: see derivatives
                raise ValueError("2D phase derivatives require p > 0")
            dc = (-2.0 / np.pi) / p
            pairs.append((0.0, dc))
            if order > 1:
                pairs.append((0.0, -dc / p))
            _check_derivatives(p, pairs)
        return pairs

    def magnitudes(self, p: float) -> list:
        """The pair's one dimensionless product, as ``Channel3D.magnitudes``."""
        return [("a2 p", self.a2, self.a2 * p)]


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

# Sign constraints of the zero-range rows: row -> (sign a0, sign a1).
_T1_SIGNS = {1: (+1, -1), 2: (-1, +1), 3: (-1, -1), 4: (+1, +1)}

# Range-corrected rows, T2 and T3: (r0, r1), each as (sign, d), r = sign * 2
# lambda |a0 a1| / a_d.  T3 keeps the part of the row where both ranges are
# <= 0, that is sgn(a_d) = -sign.
_RANGE_ROWS = {
    1: ((-1, 0), (-1, 1)),
    2: ((-1, 0), (+1, 1)),
    3: ((+1, 0), (-1, 1)),
    4: ((+1, 0), (+1, 1)),
    5: ((-1, 1), (-1, 0)),
    6: ((+1, 1), (+1, 0)),
}

T1_ROWS = tuple(_T1_SIGNS)
T2_ROWS = T3_ROWS = tuple(_RANGE_ROWS)


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
    """True when ``got`` is a finite ``want`` to ``RANGE_MATCH_TOL`` relative to ``want``."""
    return math.isfinite(want) and abs(got - want) <= RANGE_MATCH_TOL * abs(want)


def _family_ranges(
    table: str, row: int, a0: float, a1: float, lam: float
) -> tuple[float, float]:
    """Effective ranges dictated by a family row (nonzero lengths and sign
    constraints checked).  A T2 or T3 range is 2 (lambda |a_src|), a_src the
    other channel's length, with the sign of sign * a_d: 2 lambda |a0 a1| / a_d
    rounded once, as ``ranges_follow`` forms 2 a lambda."""
    if a0 == 0.0 or a1 == 0.0:
        raise ValueError("scattering lengths must be nonzero")
    lengths = (a0, a1)
    if table == "T1":
        signs, ranges = dict(enumerate(_T1_SIGNS[row])), (0.0, 0.0)
    elif table in ("T2", "T3"):
        entries = _RANGE_ROWS[row]
        signs = {d: -sign for sign, d in entries} if table == "T3" else {}
        ranges = tuple(math.copysign(2.0 * (lam * abs(lengths[1 - d])), sign * lengths[d])
                       for sign, d in entries)
    else:
        raise ValueError(f"unknown table {table!r}")
    for k in sorted(signs):
        if lengths[k] * signs[k] <= 0:
            cond = "<0" if signs[k] < 0 else ">0"
            raise ValueError(f"{table} row {row} requires (a{k}{cond}); got a{k}={lengths[k]}")
    return ranges


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


def derivatives(model: TwoChannelModel, p, order: int) -> tuple:
    """Per channel, [phase, its first ``order`` momentum derivatives] at
    momenta p >= 0 (``order`` <= 2), from one ``pair`` call each, in the one
    errstate block of the phase arithmetic.  What the events it ignores could
    let through wrong is refused by name (``Channel3D.pair``,
    ``Channel2D.pair``) or is a limit or quiet NaN that ``_from_pair`` states."""
    p = np.asarray(p, dtype=float)
    # The ufunc reduce np.any makes, without its Python layers, which cost
    # tens of microseconds a call after the caches are cold.
    if np.logical_or.reduce(p < 0, axis=None):
        raise ValueError("momentum must be >= 0")
    # One block per call: entering one costs as much as a few hundred points' arithmetic.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return tuple(_from_pair(ch.pair(p, order)) for ch in model.channels)


def _from_pair(pairs: list) -> list:
    """2 atan2(S, C) and its derivatives from [(S, C), (S', C'), ...], to the
    order of ``pairs``: 2 t with t = (S'C - SC')/(S^2 + C^2), then
    2 [(S''C - SC'') - 2 t (SS' + CC')]/(S^2 + C^2).

    S^2 + C^2 and its companions may overflow for huge a p (``derivatives``
    ignores it); the slope then takes its limit 0, as 1/(a p^2) does, or is a
    quiet NaN where S'C and SC' both overflow, and the second derivative may
    be a quiet NaN (0 times an overflowed SS').  ``geometry.eom_residual`` and
    the ``traj`` command refuse a NaN they would use.
    """
    s, c = pairs[0]
    out = [2.0 * np.arctan2(s, c)]
    if len(pairs) > 1:
        s1, c1 = pairs[1]
        q = s * s + c * c
        t = (s1 * c - s * c1) / q
        out.append(2.0 * t)
        if len(pairs) > 2:
            s2, c2 = pairs[2]
            out.append(2.0 * (((s2 * c - s * c2) - 2.0 * t * (s * s1 + c * c1)) / q))
    return [x[()] for x in out]


def phases(model: TwoChannelModel, p):
    """(phi, theta) = 2 atan2(S, C) per channel at momentum p.

    The branch is continuous in p and 0 at threshold: a 3D phase runs into
    (-2pi, 2pi) (through -/+ pi where C = 0), and a 2D phase increases through
    (0, 2pi).
    """
    return tuple(d[0] for d in derivatives(model, p, 0))


def tangents(model: TwoChannelModel, p):
    """(dphi/dp, dtheta/dp) = 2 t per channel, t = (S'C - SC')/(S^2 + C^2)."""
    return tuple(d[1] for d in derivatives(model, p, 1))


def channel_pole_momentum(ch: Channel3D | Channel2D) -> float | None:
    """The one momentum p > 0 where the channel's phase is a multiple of pi.

    It is the zero of the pair's C: sqrt(2/(a r)) for a 3D channel with
    a r > 0, 1/a2 for a 2D channel, and None for every other 3D channel,
    whose phase stays strictly between two multiples of pi.
    """
    if isinstance(ch, Channel2D):
        return 1.0 / ch.a2
    if ch.a * ch.r > 0.0:
        return math.sqrt(2.0 / (ch.a * ch.r))
    return None


def ranges_follow(model: TwoChannelModel, lam: float) -> bool:
    """True when r = 2 a lambda in both channels of a 3D model, to
    ``RANGE_MATCH_TOL`` relative to 2 a lambda, which must be finite."""
    return all(_range_matches(ch.r, 2.0 * (lam * ch.a)) for ch in model.channels)
