"""Two-qubit spin algebra for two-channel s-wave scattering.

The scattering operator acts on the spin-1/2 x spin-1/2 Hilbert space and is
diagonal in the total-spin basis: the singlet sector picks up a phase
``exp(i*phi)`` and the triplet sector a phase ``exp(i*theta)``, where
``phi = 2*delta_0`` and ``theta = 2*delta_1`` are twice the s-wave phase
shifts.  In the computational (z) product basis the operator is a combination
of the identity and the particle-exchange (SWAP) operator,

    S = (exp(i*theta) + exp(i*phi))/2 * 1  +  (exp(i*theta) - exp(i*phi))/2 * SWAP.

Everything here works with plain 4x4 complex ndarrays in the basis
(|uu>, |ud>, |du>, |dd>).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PAULI",
    "SWAP",
    "SINGLET_PROJECTOR",
    "TRIPLET_PROJECTOR",
    "build_swap",
    "build_s_operator",
    "is_unitary",
    "normalized_state",
    "out_density_matrix",
    "entanglement_power_closed",
    "entanglement_power_mc",
    "haar_product_states",
    "linear_entropy_one_qubit",
]

# Pauli matrices (sigma_x, sigma_y, sigma_z).
PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

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


def build_swap() -> np.ndarray:
    """Construct the SWAP (particle exchange) operator as ``(1 + sigma.sigma)/2``.

    ``sigma.sigma`` is the sum over the three Pauli matrices of
    ``sigma_i (x) sigma_i``.  The result is Hermitian, unitary and involutive,
    with eigenvalues +1 (three triplet states) and -1 (the singlet).
    """
    sigma_dot_sigma = sum(np.kron(s, s) for s in PAULI)
    return 0.5 * (_ID4 + sigma_dot_sigma)

# Total-spin projectors: P_triplet = (1 + SWAP)/2, P_singlet = (1 - SWAP)/2.
SINGLET_PROJECTOR = 0.5 * (_ID4 - SWAP)
TRIPLET_PROJECTOR = 0.5 * (_ID4 + SWAP)


def build_s_operator(phi, theta) -> np.ndarray:
    """Return the 4x4 scattering operator for singlet/triplet phases (phi, theta).

    The operator equals ``exp(i*phi) P_singlet + exp(i*theta) P_triplet``; both
    forms (projector sum and identity/SWAP combination) agree identically.
    Array phases give the stack of operators, of shape ``phi.shape + (4, 4)``.
    """
    e_phi = np.exp(1j * np.asarray(phi))[..., None, None]
    e_theta = np.exp(1j * np.asarray(theta))[..., None, None]
    return 0.5 * (e_theta + e_phi) * _ID4 + 0.5 * (e_theta - e_phi) * SWAP


def is_unitary(op: np.ndarray, tol: float = 1e-10) -> bool:
    """Check ``op^dagger op = 1`` to absolute tolerance ``tol``.

    A stack of operators (shape ``(..., n, n)``) passes only if every operator
    does; a NaN entry fails.
    """
    op = np.asarray(op)
    dev = np.swapaxes(op.conj(), -1, -2) @ op - np.eye(op.shape[-1])
    return bool(np.max(np.abs(dev), initial=0.0) <= tol)


def normalized_state(in_state) -> np.ndarray:
    """``in_state`` as a vector in C^4, or a (k, 4) stack of them as given,
    raising ValueError unless every state has unit norm (to 1e-9)."""
    in_state = np.asarray(in_state, dtype=complex)
    if not (in_state.ndim == 2 and in_state.shape[1] == 4):
        in_state = in_state.reshape(4)
    norms = np.atleast_1d(np.linalg.norm(in_state, axis=-1))
    off = ~(np.abs(norms - 1.0) <= 1e-9)
    if off.any():
        raise ValueError(f"in_state must be normalized, got |psi| = {norms[off][0]!r}")
    return in_state


def out_density_matrix(
    s_op: np.ndarray, in_state: np.ndarray, conjugated: bool = False
) -> np.ndarray:
    """Outgoing spin density matrix ``S |in><in| S^dagger``.

    With ``conjugated=True`` return the conjugated-evolution matrix
    ``S* |in><in| S^T`` instead.  Because the operator is symmetric
    (``S^T = S``), the conjugated matrix is exactly the complex conjugate of
    the plain one, i.e. the same state evolved with phases (-phi, -theta).

    ``in_state`` must be a normalized vector in C^4.
    """
    in_state = normalized_state(in_state).reshape(4)
    if not is_unitary(s_op):
        raise ValueError("scattering operator is not unitary")
    s_use = s_op.conj() if conjugated else s_op
    out = s_use @ in_state
    return np.outer(out, out.conj())


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


def linear_entropy_one_qubit(states: np.ndarray) -> np.ndarray:
    """Linear entropy ``1 - tr(rho_A^2)`` of the first qubit for each pure state.

    ``states`` is an (n, 4) array of normalized two-qubit vectors.  For a pure
    two-qubit state with coefficient matrix M (2x2), ``tr(rho_A^2)`` equals
    ``tr((M M^dagger)^2)``.
    """
    m = states.reshape(-1, 2, 2)
    rho_a = np.einsum("kij,klj->kil", m, m.conj())
    purity = np.einsum("kij,kji->k", rho_a, rho_a).real
    return 1.0 - purity


def entanglement_power_mc(
    phi: float,
    theta: float,
    n_samples: int = 100_000,
    seed: int | None = 0,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the entanglement power with its standard error.

    Samples ``n_samples`` Haar product in-states, evolves them with the
    scattering operator, and averages the linear entropy of the first
    outgoing spin.  Returns ``(estimate, standard_error)``.  Deterministic
    for a fixed ``seed``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    states = haar_product_states(n_samples, np.random.default_rng(seed))
    s_op = build_s_operator(phi, theta)
    out = states @ s_op.T  # row k becomes S @ states[k]
    ent = linear_entropy_one_qubit(out)
    estimate = float(np.mean(ent))
    stderr = float(np.std(ent, ddof=1) / np.sqrt(n_samples))
    return estimate, stderr
