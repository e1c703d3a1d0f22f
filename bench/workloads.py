"""Seeded inputs and timed operations of the three benchmark workloads.

Each workload turns ``--seed`` into a short cycle of ``Spec`` records, one
per config class, and writes each spec's run configuration as a JSON file:
the program sees only those files.  One round runs every spec once; a run
repeats whole rounds, so every class is timed equally often and the share
of failed operations is the same in every run.

Config classes within a workload are sized so that their operations cost
about the same (see README.md), so neither latency percentile falls
between two classes of operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("traj-export", "verify-sweep", "affine-reconstruct")

#: Grid sizes: trajectory rows per traj op, verified points per verify op
#: (per class: a mixed-class point costs 1.5 times the others), and
#: reference points / integrated samples per affine op.  ``TINY`` is the self-test's scale.
FULL = {
    "traj": 24000,
    "verify": {"T1": 600, "T3-6": 600, "T2-mixed": 400, "T2-6-acausal": 600},
    "affine_ref": 1600,
    "affine_samples": 1200,
}
TINY = {
    "traj": 1500,
    "verify": {"T1": 81, "T3-6": 81, "T2-mixed": 81, "T2-6-acausal": 81},
    "affine_ref": 1000,
    "affine_samples": 700,
}

#: The known fault counted as failed: ``traj`` fills V/kappa on a model with
#: no closed-form potential (the CLI falls back to the zero-range potential).
NO_CLOSED_FORM_FILLED = "no-closed-form-filled"

#: Exit audit / tangent audit outcomes follow from the sign of the ranges:
#: a positive range breaks the zero-range Wigner bound and, with its ERE
#: pole inside the grid, drives the phase down through -pi (a left/bottom
#: exit).  Lengths are drawn so every such pole lies inside the grid.
_P_MIN, _P_MAX = 1e-2, 1e2


@dataclass
class Spec:
    """One config class of a workload: its inputs and what it must produce."""

    label: str
    dimension: int
    a0: float
    a1: float
    table: str | None = None
    row: int | None = None
    lam: float = 1.0
    p_min: float = _P_MIN
    p_max: float = _P_MAX
    count: int = 101
    known_fault: str | None = None
    expect: dict = field(default_factory=dict)
    path: str = ""

    def config(self) -> dict:
        out = {
            "dimension": self.dimension,
            "a0": self.a0,
            "a1": self.a1,
            "p_grid": {"min": self.p_min, "max": self.p_max, "count": self.count,
                       "spacing": "log"},
            "seed": 0,
        }
        if self.table is not None:
            out["family"] = {"table": self.table, "row": self.row, "lambda": self.lam}
        return out

    @property
    def closed_form(self) -> str | None:
        """Which of the paper's closed-form potentials this model has."""
        if self.dimension == 2:
            return "2d"
        r0, r1 = self.ranges
        if r0 == 0.0 and r1 == 0.0:
            return "zero-range"
        if self.table in ("T2", "T3") and self.row in (5, 6) and self.lam == 0.25 and all(
            abs(r - 2.0 * a * self.lam) <= 1e-12 * max(1.0, abs(r))
            for a, r in ((self.a0, r0), (self.a1, r1))
        ):
            return "lam14"
        return None

    @property
    def ranges(self) -> tuple[float, float]:
        """Effective ranges of the family row, from the paper's tables."""
        if self.dimension == 2 or self.table in (None, "T1"):
            return 0.0, 0.0
        a0, a1, lam = self.a0, self.a1, self.lam
        if self.table == "T3" and self.row == 6:
            return 2.0 * a0 * lam, 2.0 * a1 * lam
        eta = lam * abs(a0 * a1)
        t2 = {2: (-2.0 * eta / a0, 2.0 * eta / a1),
              3: (2.0 * eta / a0, -2.0 * eta / a1),
              6: (2.0 * eta / a1, 2.0 * eta / a0)}
        return t2[self.row]


def _lu(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _lengths(rng: random.Random) -> tuple[float, float]:
    """Two well-separated positive lengths: a0 in [0.5, 2], a1 in [3, 10]."""
    return _lu(rng, 0.5, 2.0), _lu(rng, 3.0, 10.0)


_T1_SIGNS = {1: (1, -1), 2: (-1, 1), 3: (-1, -1), 4: (1, 1)}


def traj_specs(seed: int, sizes: dict) -> list[Spec]:
    rng = random.Random(seed)
    n = sizes["traj"]
    a0, a1 = _lengths(rng)
    b0, b1 = _lengths(rng)
    c0, c1 = _lengths(rng)
    return [
        Spec("T1-4", 3, a0, a1, "T1", 4, count=n),
        Spec("T3-6", 3, -b0, -b1, "T3", 6, lam=0.25, count=n),
        Spec("2D", 2, c0, c1, count=n),
        # Fixed inputs, independent of the seed: this op fails every time.
        Spec("T2-6", 3, 1.0, 5.0, "T2", 6, lam=0.1, count=n,
             known_fault=NO_CLOSED_FORM_FILLED),
    ]


def verify_specs(seed: int, sizes: dict) -> list[Spec]:
    """T1 (row drawn), T3 row 6 at lambda = 1/4, the two mixed-density T2
    rows with causal signs, and an acausal positive-range T2 row 6.

    No 2D config: ``verify`` fails its own 2D trajectory-equation check when
    a grid point falls close to the inversion fixed point, which happens on
    some seeds only (see CHANGES.md).
    """
    rng = random.Random(seed)
    n = sizes["verify"]
    t1_row = rng.choice((1, 2, 3, 4))
    s0, s1 = _T1_SIGNS[t1_row]
    m0, m1 = _lengths(rng)
    b0, b1 = _lengths(rng)
    # Causal signs for the mixed rows: every range comes out negative.
    c0, c1 = _lengths(rng)
    d0, d1 = _lengths(rng)
    e0, e1 = _lengths(rng)
    base = ["phase_map", "density_map"]
    wigner = ["tangent_audit", "quadrant_exit_audit"]
    poles = ["pole_match_singlet", "pole_match_triplet", "pole_lower_half"]
    return [
        Spec("T1", 3, s0 * m0, s1 * m1, "T1", t1_row, count=n["T1"],
             expect=_all_pass(base + ["eom_residual"] + wigner + ["ep_invariance"])),
        Spec("T3-6", 3, -b0, -b1, "T3", 6, lam=0.25, count=n["T3-6"],
             expect=_all_pass(base + ["eom_residual"] + wigner + poles + ["ep_invariance"])),
        Spec("T2-2", 3, c0, -c1, "T2", 2, lam=rng.uniform(0.1, 0.5), count=n["T2-mixed"],
             expect=_all_pass(base + wigner)),
        Spec("T2-3", 3, -d0, d1, "T2", 3, lam=rng.uniform(0.1, 0.5), count=n["T2-mixed"],
             expect=_all_pass(base + wigner)),
        # Positive ranges: the Wigner-type audits fail and exit 1 is right.
        Spec("T2-6-acausal", 3, e0, e1, "T2", 6, lam=rng.uniform(0.05, 0.2),
             count=n["T2-6-acausal"],
             expect={"exit": 1, "checks": {**dict.fromkeys(base + ["ep_invariance"], True),
                                           **dict.fromkeys(wigner, False)}}),
    ]


def _all_pass(names: list[str]) -> dict:
    return {"exit": 0, "checks": dict.fromkeys(names, True)}


def affine_specs(seed: int, sizes: dict) -> list[Spec]:
    """The three closed-form families, each on a p-interval of one lapse sign.

    3D lapses keep their sign on the whole positive axis; the 2D lapse
    c1 (phi' - theta') vanishes at the inversion fixed point 1/sqrt(a0 a1),
    so the 2D interval stays below it.
    """
    rng = random.Random(seed)
    n = sizes["affine_ref"]
    a0, a1 = _lengths(rng)
    b0, b1 = _lengths(rng)
    c0, c1 = _lengths(rng)
    sa, sb, sc = (1.0 / math.sqrt(x * y) for x, y in ((a0, a1), (b0, b1), (c0, c1)))
    return [
        Spec("T1-4", 3, a0, a1, "T1", 4, p_min=0.2 * sa, p_max=20.0 * sa, count=n),
        Spec("T3-6", 3, -b0, -b1, "T3", 6, lam=0.25, p_min=0.2 * sb, p_max=20.0 * sb,
             count=n),
        Spec("2D", 2, c0, c1, p_min=sc * 10**-2.5, p_max=sc * 10**-0.5, count=n),
    ]


SPEC_BUILDERS = {
    "traj-export": traj_specs,
    "verify-sweep": verify_specs,
    "affine-reconstruct": affine_specs,
}

#: Parts of the machine-speed probe (speed.py) for each workload: the kinds
#: of work its ops spend their time in.  traj-export formats CSV and builds
#: per-sample objects in the interpreter; affine-reconstruct spends 92% of
#: its time in polyline distances over arrays larger than the caches;
#: verify-sweep's 30 small NumPy calls per grid point mix interpreter and
#: NumPy work, and all three parts tracked it best in two trials.
PROBE_PARTS = {
    "traj-export": ("loop",),
    "verify-sweep": ("loop", "small", "array"),
    "affine-reconstruct": ("array",),
}

#: Modules a workload imports before its first op; set-up time covers these.
SETUP_MODULES = {
    "traj-export": ["torus_scatter.cli"],
    "verify-sweep": ["torus_scatter.cli"],
    "affine-reconstruct": ["torus_scatter.config", "torus_scatter.ere",
                           "torus_scatter.geometry", "scipy.integrate"],
}


def make_specs(workload: str, seed: int, workdir: Path, sizes: dict = FULL) -> list[Spec]:
    """Build the workload's specs and write their config files into ``workdir``."""
    specs = SPEC_BUILDERS[workload](seed, sizes)
    for k, spec in enumerate(specs):
        spec.path = str(workdir / f"cfg{k}-{spec.label}.json")
        with open(spec.path, "w", encoding="utf-8") as fh:
            json.dump(spec.config(), fh, indent=2, sort_keys=True)
    return specs


# ---------------------------------------------------------------------------
# Operations.  ``run`` is the timed call; ``collect`` reads its output after
# the clock stops and returns (digest, points, bytes_out, payload).
# ---------------------------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TrajOp:
    def __init__(self, spec: Spec, out_path: str):
        self.spec, self.out = spec, out_path

    def run(self):
        from torus_scatter import cli

        return cli.main(["traj", "--config", self.spec.path, "--out", self.out])

    def collect(self, rc):
        data = Path(self.out).read_bytes()
        return _sha(repr(rc).encode() + data), self.spec.count, len(data), (rc, data)


class VerifyOp:
    def __init__(self, spec: Spec, out_path: str):
        self.spec, self.out = spec, out_path

    def run(self):
        from torus_scatter import cli

        return cli.main(["verify", "--config", self.spec.path, "--suite", "all",
                         "--out", self.out])

    def collect(self, rc):
        data = Path(self.out).read_bytes()
        return _sha(repr(rc).encode() + data), self.spec.count, len(data), (rc, data)


class AffineOp:
    """The affine-reconstruction pipeline of acceptance criterion 6."""

    def __init__(self, spec: Spec, n_samples: int):
        self.spec, self.n_samples = spec, n_samples

    def run(self):
        import numpy as np

        from torus_scatter import ere, geometry
        from torus_scatter.config import RunConfig

        cfg = RunConfig.load(self.spec.path)
        model = cfg.build_model()
        if model.dimension == 2:
            pot = geometry.potential_2d(cfg.a0, cfg.a1, c1=cfg.c1)
        elif self.spec.closed_form == "lam14":
            pot = geometry.potential_lam14(cfg.a0, cfg.a1, c1=cfg.c1)
        else:
            pot = geometry.potential_3d(cfg.a0, cfg.a1, c1=cfg.c1)
        grid = cfg.build_grid()
        p0, p1 = float(grid[0]), float(grid[-1])
        phi_ref, theta_ref = ere.phases(model, grid)
        dphi, dtheta = ere.tangents(model, p0)
        n0, _ = geometry.construction_lapse(model, pot, p0)
        span = geometry.affine_parameter_span(model, pot, p0, p1)
        init = (float(phi_ref[0]), float(theta_ref[0]), float(dphi / n0), float(dtheta / n0))
        curve = geometry.integrate_affine(pot, init, span, n_samples=self.n_samples)
        ref_points = np.column_stack([phi_ref, theta_ref])
        d_fwd = geometry.point_to_polyline_distance(curve.points, ref_points)
        d_bwd = geometry.point_to_polyline_distance(ref_points, curve.points)
        e0 = geometry.first_integral(pot, *init)
        energy = geometry.first_integral(pot, curve.phi, curve.theta, curve.dphi, curve.dtheta)
        return {
            "span": float(span),
            "curve": curve,
            "hausdorff": max(float(d_fwd.max()), float(d_bwd.max())),
            "drift": float(np.max(np.abs(energy - e0))),
        }

    def collect(self, result):
        c = result["curve"]
        h = hashlib.sha256()
        for arr in (c.tau, c.phi, c.theta, c.dphi, c.dtheta):
            h.update(arr.tobytes())
        h.update(repr((result["span"], result["hausdorff"], result["drift"],
                       c.truncated)).encode())
        return h.hexdigest(), int(c.tau.size), 0, result


def make_op(workload: str, spec: Spec, out_path: str, sizes: dict = FULL):
    if workload == "traj-export":
        return TrajOp(spec, out_path)
    if workload == "verify-sweep":
        return VerifyOp(spec, out_path)
    return AffineOp(spec, sizes["affine_samples"])
