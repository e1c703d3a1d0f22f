#!/usr/bin/env python3
"""Trace the amplitude poles of a causal self-correlated model as the
correlation strength varies.

For strength below 1/4 the two poles sit on the negative imaginary axis;
at 1/4 they collide into a double pole; above 1/4 they split into a
resonance pair symmetric about the axis.  The table prints both poles and
cross-checks the closed forms against the numeric quadratic roots.
"""

import argparse

import numpy as np

from torus_scatter import causality


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=float, default=-1.0, help="scattering length (< 0)")
    parser.add_argument("--lam-min", type=float, default=0.05)
    parser.add_argument("--lam-max", type=float, default=1.0)
    parser.add_argument("--steps", type=int, default=20)
    args = parser.parse_args()

    print(f"{'lambda':>10s} {'case':>16s} {'pole 1':>24s} {'pole 2':>24s} {'dev':>9s}")
    for lam in np.linspace(args.lam_min, args.lam_max, args.steps):
        lam = float(lam)
        closed = causality.poles_closed_form(args.a, lam)
        numeric = causality.poles_numeric(args.a, 2.0 * (lam * args.a))
        c_flat = causality.flatten_poles(closed)
        n_flat = causality.flatten_poles(numeric)
        dev = max(abs(c - n) for c, n in zip(c_flat, n_flat))
        cols = [f"{p.real:+.4f}{p.imag:+.4f}j" for p in c_flat]
        print(
            f"{lam:10.4f} {closed.classification:>16s} "
            f"{cols[0]:>24s} {cols[1]:>24s} {dev:9.1e}"
        )
        if not causality.verify_lower_half(closed):
            raise SystemExit(f"pole escaped the lower half plane at lambda={lam}")
    print("all poles confined to the lower half plane")


if __name__ == "__main__":
    main()
