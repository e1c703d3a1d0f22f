"""Two-channel low-energy scattering as geometry on a flat phase torus.

The package models s-wave scattering of two spin-1/2 particles with a
singlet phase shift delta_0 and a triplet phase shift delta_1.  The pair of
S-matrix phases (phi, theta) = (2 delta_0, 2 delta_1) traces a momentum-
parametrized trajectory on a flat square torus; effective-range expansions,
UV/IR symmetry maps that relate models at inverted momenta, spin-
entanglement power, causality (Wigner) bounds, S-matrix pole structure, and
the trajectory-as-geodesic construction (potential + lapse) all live here.

Modules
-------
``spin``       singlet/triplet projectors, Haar in-states, entanglement power
``ere``        effective-range phase shifts (3D and 2D), channels, families
``torus``      sampled trajectories, quadrants, angle wrapping
``uvir``       momentum-inversion symmetry maps and their verification
``geometry``   potentials, lapse, trajectory equations, exact affine motion
``causality``  Wigner bounds, tangent/exit audits, S-matrix poles
``config``     JSON-serializable run configuration, default check tolerances
``cli``        the ``torus-scatter`` command-line tool (not imported by the
               package, so ``python -m torus_scatter.cli`` runs it cleanly)

Names are reached through their module (``from torus_scatter import ere``,
then ``ere.phases``); the package re-exports none of them.
"""

from . import causality, config, ere, geometry, spin, torus, uvir

__version__ = "0.1.0"

__all__ = ["__version__", "causality", "config", "ere", "geometry", "spin", "torus", "uvir"]
