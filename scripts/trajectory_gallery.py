#!/usr/bin/env python3
"""Generate phase-torus trajectory tables for a gallery of models.

Writes one CSV per model (same format as ``torus-scatter traj``) plus a
summary table to stdout: quadrant itinerary, boundary crossings, and the
worst equation-of-motion residual when a closed-form potential applies.
"""

import argparse
import pathlib

import numpy as np

from torus_scatter import causality, cli, config, geometry, torus

GALLERY = [
    ("zero_range_1_5", config.RunConfig(3, 1.0, 5.0, family={"table": "T1", "row": 4})),
    ("zero_range_mixed", config.RunConfig(3, -1.0, 5.0)),
    (
        "range_corrected_T2r5",
        config.RunConfig(3, -15.0, -1.0, family={"table": "T2", "row": 5, "lambda": 0.01}),
    ),
    (
        "causal_quarter_T3r6",
        config.RunConfig(3, -1.0, -5.0, family={"table": "T3", "row": 6, "lambda": 0.25}),
    ),
    (
        "acausal_T2r6",
        config.RunConfig(3, 1.0, 5.0, family={"table": "T2", "row": 6, "lambda": 0.1}),
    ),
    ("planar_1_e", config.RunConfig(2, 1.0, float(np.e))),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="gallery", help="output directory")
    parser.add_argument("--count", type=int, default=801, help="grid points per model")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'model':24s} {'quadrants':>9s} {'crossings':>9s} {'eom residual':>14s}")
    for name, base in GALLERY:
        cfg = config.RunConfig(
            base.dimension,
            base.a0,
            base.a1,
            family=base.family,
            p_grid=config.PGrid(0.01, 100.0, count=args.count),
        )
        path = out_dir / f"{name}.csv"
        cfg_path = out_dir / f"{name}.json"
        cfg.dump(cfg_path)
        rc = cli.main(["traj", "--config", str(cfg_path), "--out", str(path)])
        if rc != 0:
            raise SystemExit(f"traj failed for {name}")

        model = cfg.build_model()
        traj = torus.sample_trajectory(model, cfg.build_grid())
        exits = causality.quadrant_exit_audit(traj)
        n_quadrants = len(set(traj.positions().tolist()) - {"boundary"})

        residual = "n/a"
        pot = geometry.closed_form_potential(model)
        if pot is not None:
            residual = f"{geometry.eom_residual(traj, pot).max_norm:.2e}"

        print(f"{name:24s} {n_quadrants:9d} {len(exits.crossings):9d} {residual:>14s}")
        print(f"  -> {path}")


if __name__ == "__main__":
    main()
