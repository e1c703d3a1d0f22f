"""Run the package's user-facing paths with ``import scipy`` blocked.

scipy is a test dependency only.  This script makes every import of scipy
or a scipy submodule raise ImportError, and records it, then runs:

* the affine reconstruction of acceptance 6 (``integrate_affine`` from the
  exact span, two-way polyline distance, first-integral drift) on T1 row 4,
  T3 row 6 at lambda = 1/4 and a 2D model;
* ``traj``, ``ep`` and ``verify --suite all`` on the same three configs.

It exits 0 only if every step succeeds and nothing tried to import scipy,
guarded imports included.  Run from the repository root:

    PYTHONPATH=src python tests/without_scipy.py
"""

from __future__ import annotations

import importlib.abc
import json
import sys
import tempfile
from pathlib import Path

ATTEMPTS: list = []


class _NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "scipy" or name.startswith("scipy."):
            ATTEMPTS.append(name)
            raise ImportError(f"import of {name} is blocked")
        return None


sys.meta_path.insert(0, _NoScipy())

import numpy as np  # noqa: E402

from torus_scatter import cli, ere, geometry  # noqa: E402
from torus_scatter.config import RunConfig  # noqa: E402

CONFIGS = {
    "T1-4": {"dimension": 3, "a0": 0.6, "a1": 8.3, "family": {"table": "T1", "row": 4},
             "p_grid": {"min": 0.09, "max": 9.0, "count": 1600, "spacing": "log"}},
    "T3-6": {"dimension": 3, "a0": -1.44, "a1": -4.08,
             "family": {"table": "T3", "row": 6, "lambda": 0.25},
             "p_grid": {"min": 0.08, "max": 8.0, "count": 1600, "spacing": "log"}},
    "2D": {"dimension": 2, "a0": 1.0, "a1": 5.15,
           "p_grid": {"min": 1.4e-3, "max": 0.14, "count": 1600, "spacing": "log"}},
}


def affine_reconstruction(cfg: RunConfig) -> None:
    """Acceptance 6's pipeline on one config; raises AssertionError if it fails."""
    model = cfg.build_model()
    pot = geometry.closed_form_potential(model, cfg.c1)
    grid = cfg.build_grid()
    phi, theta = ere.phases(model, grid)
    dphi, dtheta = ere.tangents(model, grid[0])
    n0, _ = geometry.construction_lapse(model, pot, grid[0])
    init = (phi[0], theta[0], float(dphi / n0), float(dtheta / n0))
    span = geometry.affine_parameter_span(model, pot, grid[0], grid[-1])
    curve = geometry.integrate_affine(pot, init, span, n_samples=1200)
    assert not curve.truncated, curve.diagnostic
    ref = np.column_stack([phi, theta])
    hausdorff = max(
        geometry.point_to_polyline_distance(curve.points, ref).max(),
        geometry.point_to_polyline_distance(ref, curve.points).max(),
    )
    energy = geometry.first_integral(pot, curve.phi, curve.theta, curve.dphi, curve.dtheta)
    drift = np.max(np.abs(energy - geometry.first_integral(pot, *init)))
    assert hausdorff < 1e-5 and drift < 1e-8, (hausdorff, drift)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for label, data in CONFIGS.items():
            path = Path(tmp) / f"{label}.json"
            path.write_text(json.dumps(data))
            affine_reconstruction(RunConfig.load(str(path)))
            for command in (["traj"], ["ep"], ["verify", "--suite", "all"]):
                out = str(Path(tmp) / "out")
                status = cli.main([*command, "--config", str(path), "--out", out])
                assert status == 0, (label, command, status)
    assert not ATTEMPTS, f"scipy imports attempted: {ATTEMPTS}"
    print(f"ran without scipy: affine reconstruction, traj, ep and verify on {', '.join(CONFIGS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
