#!/usr/bin/env python3
"""Audit causality of phase-shift tangent vectors across model families.

For each model the script samples a torus trajectory on a log grid,
checks the tangent-vector bound channel by channel, and classifies the
quadrant boundary crossings.  Causal families must show zero violations
and exit cells only through the top or right edge.
"""

import argparse

import numpy as np

from torus_scatter import causality, ere, torus

MODELS = [
    ("zero range (1, 5)", ere.TwoChannelModel(3, ere.Channel3D(1.0), ere.Channel3D(5.0))),
    ("zero range (1, -5)", ere.TwoChannelModel(3, ere.Channel3D(1.0), ere.Channel3D(-5.0))),
    ("causal T3 row 6", ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.1)),
    ("causal T3 row 6 (1/4)", ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.25)),
    ("positive range T2 row 6", ere.make_symmetric_model("T2", 6, 1.0, 5.0, lam=0.1)),
    ("positive range T2 row 5", ere.make_symmetric_model("T2", 5, -15.0, -1.0, lam=0.01)),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=2000, help="grid points")
    parser.add_argument("--p-min", type=float, default=1e-2)
    parser.add_argument("--p-max", type=float, default=1e2)
    args = parser.parse_args()

    grid = np.geomspace(args.p_min, args.p_max, args.count)
    print(
        f"{'model':26s} {'checked':>8s} {'violations':>11s} "
        f"{'crossings':>10s} {'forbidden edges':>16s}"
    )
    for name, model in MODELS:
        traj = torus.sample_trajectory(model, grid)
        tangent = causality.tangent_vector_audit(traj)
        exits = causality.quadrant_exit_audit(traj)
        crossings = exits.detail["crossings"]
        forbidden = sorted({c["edge"] for c in crossings if not c["allowed"]}) or ["-"]
        print(
            f"{name:26s} {tangent.detail['checked']:8d} {tangent.extra['violations']:11d} "
            f"{len(crossings):10d} {','.join(forbidden):>16s}"
        )


if __name__ == "__main__":
    main()
