"""Run configuration: a JSON-serializable description of one model + grid.

A :class:`RunConfig` pins down everything a verification or trajectory run
needs — dimension, channel scattering lengths, an optional symmetry-family
tag (table, row, lambda) that fixes both effective ranges, the momentum
grid, the lapse normalization c1, per-check tolerances, and an RNG seed —
so runs are reproducible byte for byte.

Construction validates every value and raises :class:`ConfigError` naming
the key: integers (``dimension``, ``seed``, ``family.row``, ``p_grid.count``)
may be integral floats but not booleans or strings; ``a0``, ``a1``, ``c1``,
``family.lambda`` and the grid bounds must be finite numbers; ``family``
and ``tolerances`` must be JSON objects, and each tolerance a positive
number.  ``build_model`` also names the key of a channel whose dimensionless
products (its ERE pair's ``magnitudes``) are not finite and nonzero on the grid.

Every verification check reports one :class:`Check`, which passes iff its
``max_deviation`` is below its ``tolerance``; the tolerance of each named
check comes from ``RunConfig.tolerance``, that is from the config's
``tolerances`` or ``DEFAULT_TOLERANCES``.  A check that does not apply to
a model raises :class:`NotApplicable`.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import ere

__all__ = [
    "PGrid", "RunConfig", "ConfigError", "MAX_GRID_COUNT", "DEFAULT_TOLERANCES", "Check",
    "NotApplicable",
]

#: Largest accepted ``p_grid.count``: it bounds the tens of float64 arrays of
#: that length that ``traj`` and ``verify`` allocate.
MAX_GRID_COUNT = 10**7


class ConfigError(ValueError):
    """A run configuration that cannot be built into a model/grid."""


def _number(key: str, value) -> float:
    """``value`` as a float; booleans, strings and other non-numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number; got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key} is out of range; got {value!r}") from None


def _finite(key: str, value) -> float:
    number = _number(key, value)
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite; got {number!r}")
    return number


def _integer(key: str, value) -> int:
    """``value`` as an int; an integral float is accepted, a boolean is not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer; got {value!r}")
    return value


def _checked_keys(data, where: str, missing: str, known, required) -> dict:
    """``data``, a JSON object with every key of ``required`` and no key
    outside ``known``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    for name in required:
        if name not in data:
            raise ConfigError(f"{missing} {name!r}")
    return data


def _field_keys(cls) -> tuple:
    """(every field name, the names of the fields without a default) of dataclass ``cls``."""
    return [f.name for f in fields(cls)], [
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    ]


@dataclass(frozen=True)
class PGrid:
    """Momentum grid: count points from min to max, log or linear spacing."""

    min: float
    max: float
    count: int = 101
    spacing: str = "log"

    def __post_init__(self) -> None:
        for key, convert in (("min", _finite), ("max", _finite), ("count", _integer)):
            object.__setattr__(self, key, convert(f"p_grid.{key}", getattr(self, key)))
        if not (0.0 < self.min < self.max):
            raise ConfigError(f"grid needs 0 < min < max; got [{self.min}, {self.max}]")
        if not (2 <= self.count <= MAX_GRID_COUNT):
            raise ConfigError(
                f"grid needs 2 to {MAX_GRID_COUNT} points; got {self.count}"
            )
        if self.spacing not in ("log", "linear"):
            raise ConfigError(f"spacing must be 'log' or 'linear'; got {self.spacing!r}")

    def build(self) -> np.ndarray:
        """The grid, bit for bit ``np.geomspace(min, max, count)`` (log) or
        ``np.linspace(min, max, count)`` (linear)."""
        if self.spacing == "log":
            # geomspace's own steps: 10 ** linspace of the log10 ends, then
            # the exact ends; without its Python layers, a cost of tens of
            # microseconds per grid of hundreds of points.
            exponents = _linspace(np.log10(self.min), np.log10(self.max), self.count)
            grid = np.power(10.0, exponents)
            grid[0], grid[-1] = self.min, self.max
            return grid
        return _linspace(self.min, self.max, self.count)

    def to_json(self) -> dict:
        return {"min": self.min, "max": self.max, "count": self.count, "spacing": self.spacing}

    @classmethod
    def from_json(cls, data: dict) -> "PGrid":
        return cls(**_checked_keys(data, "p_grid", "p_grid missing key", *_field_keys(cls)))


def _linspace(start: float, stop: float, num: int) -> np.ndarray:
    """``np.linspace(start, stop, num)`` of finite floats with a finite
    ``stop - start``, bit for bit, for num >= 1: its own ufunc steps, without
    the Python layers that cost several microseconds per call on small arrays.
    Where the step underflows to 0, linspace divides before it multiplies,
    and so does this."""
    y = np.arange(num, dtype=float)
    delta = stop - start
    if num == 1:
        y *= delta
    elif delta / (num - 1) == 0.0:
        y /= num - 1
        y *= delta
    else:
        y *= delta / (num - 1)
    y += start
    if num > 1:
        y[-1] = stop
    return y


#: Default tolerance of each check; the functions behind the checks use it too.
DEFAULT_TOLERANCES = {
    "phase_map": 1e-10,
    "density_map": 1e-10,
    "ep_invariance": 1e-12,
    "eom_residual": 1e-8,
    "tangent_audit": 1e-9,
    "pole_match": 1e-12,
}


@dataclass(frozen=True)
class Check:
    """Outcome of one verification check: it passes iff ``max_deviation`` is
    below ``tolerance``.  ``extra`` joins its JSON as is; ``detail`` holds
    the measurement behind it and stays out of the JSON."""

    name: str
    max_deviation: float
    tolerance: float
    extra: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return bool(self.max_deviation < self.tolerance)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "max_deviation": float(self.max_deviation),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
            **self.extra,
        }


class NotApplicable(ValueError):
    """A check that does not apply to the model it was given; the message says why."""


@dataclass(frozen=True)
class RunConfig:
    """Complete, serializable description of one analysis run."""

    dimension: int
    a0: float
    a1: float
    family: dict | None = None  # {"table": str, "row": int, "lambda": float}
    p_grid: PGrid = field(default_factory=lambda: PGrid(0.01, 100.0))
    c1: float = 1.0
    tolerances: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        for key, convert in (
            ("dimension", _integer), ("a0", _finite), ("a1", _finite), ("c1", _finite),
            ("seed", _integer),
        ):
            object.__setattr__(self, key, convert(key, getattr(self, key)))
        if self.dimension not in (2, 3):
            raise ConfigError(f"dimension must be 2 or 3; got {self.dimension}")
        if self.c1 == 0.0:
            raise ConfigError("c1 must be nonzero")
        if self.family is not None:
            _checked_keys(
                self.family, "family", "family tag missing key", ("table", "row", "lambda"),
                ("table", "row"),
            )
            _integer("family.row", self.family["row"])
            _finite("family.lambda", self.family.get("lambda", 1.0))
        _checked_keys(self.tolerances, "tolerances", "", DEFAULT_TOLERANCES, ())
        object.__setattr__(self, "tolerances", dict(self.tolerances))
        for name, value in self.tolerances.items():
            if not _number(f"tolerance {name!r}", value) > 0:
                raise ConfigError(f"tolerance {name!r} must be positive; got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer; got {self.seed!r}")

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    # -- model construction ------------------------------------------------

    def build_model(self) -> ere.TwoChannelModel:
        """The configured model, refused if one of a channel's ``magnitudes``
        overflows, or underflows to 0 from a nonzero coefficient, at a grid
        end, and so somewhere on the monotonic grid: the phases and their
        derivatives would be limits or NaN."""
        model = self._model()
        ends = (self.p_grid.min, self.p_grid.max)
        for key, ch in zip(("a0", "a1"), model.channels):
            for p in ends:
                for name, coefficient, value in ch.magnitudes(p):
                    if not math.isfinite(value) or (value == 0.0 and coefficient != 0.0):
                        raise ConfigError(
                            f"{key}: {name} must be finite and nonzero over p_grid "
                            f"[{ends[0]!r}, {ends[1]!r}]; got {value!r} at p = {p!r}"
                        )
        return model

    def _model(self) -> ere.TwoChannelModel:
        try:
            if self.dimension == 2:
                if self.family is not None:
                    raise ConfigError("2D models carry no family tag: omit 'family'")
                return ere.make_2d_model(self.a0, self.a1)
            if self.family is None:
                singlet = ere.Channel3D(a=self.a0, r=0.0)
                triplet = ere.Channel3D(a=self.a1, r=0.0)
                return ere.TwoChannelModel(dimension=3, singlet=singlet, triplet=triplet)
            table = self.family["table"]
            row = int(self.family["row"])
            lam = float(self.family.get("lambda", 1.0))
            return ere.make_symmetric_model(table, row, self.a0, self.a1, lam=lam)
        except ConfigError:
            raise
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(str(exc)) from exc

    def build_grid(self) -> np.ndarray:
        return self.p_grid.build()

    # -- JSON round-trip ---------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "dimension": self.dimension,
            "a0": self.a0,
            "a1": self.a1,
            "family": dict(self.family) if self.family is not None else None,
            "p_grid": self.p_grid.to_json(),
            "c1": self.c1,
            "tolerances": dict(self.tolerances),
            "seed": self.seed,
        }
        return out

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        """The config of a JSON object; an absent or null ``p_grid`` and every
        other absent key take the dataclass default."""
        kwargs = dict(
            _checked_keys(data, "config", "config missing required key", *_field_keys(cls))
        )
        grid_data = kwargs.pop("p_grid", None)
        if grid_data is not None:
            kwargs["p_grid"] = PGrid.from_json(grid_data)
        try:
            return cls(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        return cls.from_json(data)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
