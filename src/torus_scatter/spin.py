"""Two-qubit spin algebra for two-channel s-wave scattering.

The scattering operator acts on the spin-1/2 x spin-1/2 Hilbert space and is
diagonal in total spin, ``S = exp(i*phi) P_singlet + exp(i*theta) P_triplet``,
where ``phi = 2*delta_0`` and ``theta = 2*delta_1`` are twice the s-wave
phase shifts.  The program reads two closed forms of it, the entanglement
power and the density map's singlet-triplet cross block
(``uvir.verify_density_map``), so this module holds only what they need, as
complex ndarrays in the basis (|uu>, |ud>, |du>, |dd>).  The operator itself
and its out-states are the tests' references (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SWAP",
    "SINGLET_PROJECTOR",
    "TRIPLET_PROJECTOR",
    "normalized_state",
    "entanglement_power_closed",
    "haar_product_states",
]

# Particle-exchange operator on the two-spin space, basis (uu, ud, du, dd).
SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

_ID4 = np.eye(4, dtype=complex)

# Total-spin projectors: P_triplet = (1 + SWAP)/2, P_singlet = (1 - SWAP)/2.
SINGLET_PROJECTOR = 0.5 * (_ID4 - SWAP)
TRIPLET_PROJECTOR = 0.5 * (_ID4 + SWAP)


def normalized_state(states) -> np.ndarray:
    """A (k, 4) stack of states in C^4 as given, raising ValueError unless
    every state has unit norm (to 1e-9)."""
    states = np.asarray(states, dtype=complex)
    norms = np.linalg.norm(states, axis=-1)
    off = ~(np.abs(norms - 1.0) <= 1e-9)
    if off.any():
        raise ValueError(f"in_state must be normalized, got |psi| = {norms[off][0]!r}")
    return states


def entanglement_power_closed(phi: float, theta: float) -> float:
    """Entanglement power of the scattering operator: ``sin^2(theta - phi) / 6``.

    This is the linear entropy of one outgoing spin averaged over independent
    uniformly random (Haar) product in-states.  It vanishes iff the two
    channels scatter with equal phases mod pi and peaks at 1/6 when they
    differ by pi/2 mod pi.
    """
    return np.sin(theta - phi) ** 2 / 6.0


def haar_product_states(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` product states |a> x |b> with |a>, |b> independent Haar qubits.

    Returns an (n, 4) complex array of normalized vectors.  Haar qubit states
    are obtained by normalizing standard complex Gaussian 2-vectors.
    """
    raw = rng.standard_normal((2, n, 2)) + 1j * rng.standard_normal((2, n, 2))
    raw /= np.linalg.norm(raw, axis=2, keepdims=True)
    a, b = raw[0], raw[1]
    # Kronecker product row by row: out[k] = a[k] (x) b[k].
    return np.einsum("ki,kj->kij", a, b).reshape(n, 4)
