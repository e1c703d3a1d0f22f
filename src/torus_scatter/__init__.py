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
``spin``       two-qubit S operator, density matrices, entanglement power
``ere``        effective-range phase shifts (3D and 2D), channels, families
``torus``      sampled trajectories, quadrants, angle wrapping
``uvir``       momentum-inversion symmetry maps and their verification
``geometry``   potentials, lapse, trajectory equations, affine integration
``causality``  Wigner bounds, tangent/exit audits, S-matrix poles
``config``     JSON-serializable run configuration, default check tolerances
``cli``        the ``torus-scatter`` command-line tool (not imported by the
               package, so ``python -m torus_scatter.cli`` runs it cleanly)
"""

from . import causality, config, ere, geometry, spin, torus, uvir
from .causality import (
    PoleSet,
    effective_area_bound_2d,
    poles_closed_form,
    poles_numeric,
    quadrant_exit_audit,
    tangent_vector_audit,
    threshold_range_bound_3d,
    verify_lower_half,
    wigner_derivative_bound,
)
from .config import PGrid, RunConfig
from .ere import (
    Channel2D,
    Channel3D,
    FamilyTag,
    TwoChannelModel,
    make_2d_model,
    make_symmetric_model,
    phases,
    quarter_lambda_branch,
    tangents,
)
from .geometry import (
    GeometricPotential,
    eom_residual,
    first_integral,
    integrate_affine,
    lapse,
    overdetermination_2d,
    potential_2d,
    potential_3d,
    potential_lam14,
)
from .spin import (
    build_s_operator,
    build_swap,
    entanglement_power_closed,
    entanglement_power_mc,
    out_density_matrix,
)
from .torus import Trajectory, sample_trajectory
from .uvir import (
    RhoClass,
    SymmetryMap,
    expected_map,
    inverted_momentum,
    make_paired_grid,
    verify_density_map,
    verify_ep_invariance,
    verify_phase_map,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # subpackages
    "causality", "config", "ere", "geometry", "spin", "torus", "uvir",
    # spin
    "build_s_operator", "build_swap", "out_density_matrix",
    "entanglement_power_closed", "entanglement_power_mc",
    # ere
    "Channel3D", "Channel2D", "FamilyTag", "TwoChannelModel",
    "make_symmetric_model", "make_2d_model", "phases", "tangents",
    "quarter_lambda_branch",
    # torus
    "Trajectory", "sample_trajectory",
    # uvir
    "RhoClass", "SymmetryMap", "expected_map", "inverted_momentum",
    "make_paired_grid", "verify_phase_map", "verify_density_map",
    "verify_ep_invariance",
    # geometry
    "GeometricPotential", "potential_3d", "potential_lam14", "potential_2d",
    "lapse", "eom_residual", "overdetermination_2d",
    "integrate_affine", "first_integral",
    # causality
    "PoleSet", "wigner_derivative_bound", "threshold_range_bound_3d",
    "effective_area_bound_2d", "tangent_vector_audit", "quadrant_exit_audit",
    "poles_closed_form", "poles_numeric", "verify_lower_half",
    # config
    "PGrid", "RunConfig",
]
