"""Run configuration: a JSON-serializable description of one model + grid.

A :class:`RunConfig` pins down everything a verification or trajectory run
needs — dimension, channel scattering lengths, an optional symmetry-family
tag (table, row, lambda) that fixes both effective ranges, the momentum
grid, the lapse normalization c1, per-check tolerances, and an RNG seed —
so runs are reproducible byte for byte.

Construction validates every value and raises :class:`ConfigError` naming
the key: integers (``dimension``, ``seed``, ``family.row``, ``p_grid.count``)
may be integral floats but not booleans or strings; ``a0``, ``a1``, ``c1``,
``family.lambda`` and the grid bounds must be finite numbers, and
tolerances positive numbers.  ``build_model`` also names the key of a
channel whose dimensionless magnitudes are not finite and nonzero on the grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import ere

__all__ = ["PGrid", "RunConfig", "ConfigError", "MAX_GRID_COUNT", "DEFAULT_TOLERANCES"]

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
        if self.spacing == "log":
            return np.geomspace(self.min, self.max, self.count)
        return np.linspace(self.min, self.max, self.count)

    def to_json(self) -> dict:
        return {"min": self.min, "max": self.max, "count": self.count, "spacing": self.spacing}


def _magnitudes(ch: ere.Channel3D | ere.Channel2D, p: float) -> list:
    """[(name, coefficient, value at p)] of the dimensionless products in a
    channel's ERE pair, formed as its arithmetic forms them: a p, r p and
    a r p^2 in 3D, a2 p in 2D."""
    if isinstance(ch, ere.Channel2D):
        return [("a2 p", ch.a2, ch.a2 * p)]
    return [("a p", ch.a, ch.a * p), ("r p", ch.r, ch.r * p),
            ("a r p^2", ch.a * ch.r, ch.a * ch.r * p * p)]


#: Default tolerance of each check; the functions behind the checks use it too.
DEFAULT_TOLERANCES = {
    "phase_map": 1e-10,
    "density_map": 1e-10,
    "ep_invariance": 1e-12,
    "eom_residual": 1e-8,
    "overdetermination": 1e-6,
    "tangent_audit": 1e-9,
    "pole_match": 1e-12,
}


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
            missing = {"table", "row"} - set(self.family)
            if missing:
                raise ConfigError(f"family tag missing keys: {sorted(missing)}")
            unknown = set(self.family) - {"table", "row", "lambda"}
            if unknown:
                raise ConfigError(f"family tag has unknown keys: {sorted(unknown)}")
            _integer("family.row", self.family["row"])
            _finite("family.lambda", self.family.get("lambda", 1.0))
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance name {name!r}")
            if not _number(f"tolerance {name!r}", value) > 0:
                raise ConfigError(f"tolerance {name!r} must be positive; got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer; got {self.seed!r}")

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    # -- model construction ------------------------------------------------

    def build_model(self) -> ere.TwoChannelModel:
        """The configured model, refused if a magnitude (``_magnitudes``)
        overflows, or underflows to 0 from a nonzero coefficient, at a grid
        end, and so somewhere on the monotonic grid: the phases and their
        derivatives would be limits or NaN."""
        model = self._model()
        ends = (self.p_grid.min, self.p_grid.max)
        for key, ch in zip(("a0", "a1"), model.channels):
            for p in ends:
                for name, coefficient, value in _magnitudes(ch, p):
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
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - {
            "dimension", "a0", "a1", "family", "p_grid", "c1", "tolerances", "seed",
        }
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("dimension", "a0", "a1"):
            if key not in data:
                raise ConfigError(f"config missing required key {key!r}")
        grid_data = data.get("p_grid")
        if grid_data is None:
            grid = PGrid(0.01, 100.0)
        elif isinstance(grid_data, dict):
            unknown = set(grid_data) - {"min", "max", "count", "spacing"}
            if unknown:
                raise ConfigError(f"unknown p_grid keys: {sorted(unknown)}")
            try:
                grid = PGrid(
                    min=grid_data["min"],
                    max=grid_data["max"],
                    count=grid_data.get("count", 101),
                    spacing=grid_data.get("spacing", "log"),
                )
            except KeyError as exc:
                raise ConfigError(f"p_grid missing key {exc.args[0]!r}") from exc
        else:
            raise ConfigError("p_grid must be a JSON object")
        try:
            return cls(
                dimension=data["dimension"],
                a0=data["a0"],
                a1=data["a1"],
                family=data.get("family"),
                p_grid=grid,
                c1=data.get("c1", 1.0),
                tolerances=dict(data.get("tolerances", {})),
                seed=data.get("seed", 0),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        return cls.from_json(data)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
