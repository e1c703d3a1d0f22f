"""Two-qubit S operator, output states, and entanglement power."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_scatter import spin

ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


def test_swap_construction_matches_matrix():
    np.testing.assert_array_equal(spin.build_swap(), spin.SWAP)
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
    np.testing.assert_array_equal(spin.SWAP, expected)


def test_projectors_resolve_identity():
    total = spin.SINGLET_PROJECTOR + spin.TRIPLET_PROJECTOR
    np.testing.assert_allclose(total, np.eye(4), atol=1e-15)
    # idempotent and orthogonal
    np.testing.assert_allclose(
        spin.SINGLET_PROJECTOR @ spin.SINGLET_PROJECTOR, spin.SINGLET_PROJECTOR, atol=1e-15
    )
    np.testing.assert_allclose(
        spin.SINGLET_PROJECTOR @ spin.TRIPLET_PROJECTOR, np.zeros((4, 4)), atol=1e-15
    )


def test_s_operator_spectral_form():
    phi, theta = 0.7, -1.3
    s = spin.build_s_operator(phi, theta)
    expected = (
        np.exp(1j * phi) * spin.SINGLET_PROJECTOR
        + np.exp(1j * theta) * spin.TRIPLET_PROJECTOR
    )
    np.testing.assert_allclose(s, expected, atol=1e-15)


def test_s_fixed_points():
    # identical phases: scalar operator
    s = spin.build_s_operator(0.4, 0.4)
    np.testing.assert_allclose(s, np.exp(0.4j) * np.eye(4), atol=1e-15)
    # (pi, 0): +SWAP by direct evaluation of the closed form
    np.testing.assert_allclose(spin.build_s_operator(math.pi, 0.0), spin.SWAP, atol=1e-15)
    # (0, pi): -SWAP
    np.testing.assert_allclose(spin.build_s_operator(0.0, math.pi), -spin.SWAP, atol=1e-15)


@given(phi=ANGLES, theta=ANGLES)
@settings(max_examples=200, deadline=None)
def test_s_operator_unitary_and_symmetric(phi, theta):
    s = spin.build_s_operator(phi, theta)
    assert spin.is_unitary(s, tol=1e-12)
    np.testing.assert_allclose(s, s.T, atol=1e-14)


@given(phi=ANGLES, theta=ANGLES)
@settings(max_examples=100, deadline=None)
def test_conjugated_output_equals_negated_angles(phi, theta):
    """The conjugated channel S* equals the channel at negated angles."""
    rng = np.random.default_rng(5)
    state = spin.haar_product_states(1, rng)[0]
    rho_bar = spin.out_density_matrix(spin.build_s_operator(phi, theta), state, conjugated=True)
    rho_neg = spin.out_density_matrix(spin.build_s_operator(-phi, -theta), state)
    np.testing.assert_allclose(rho_bar, rho_neg, atol=1e-14)


def test_out_density_matrix_validates_input():
    s = spin.build_s_operator(0.3, 0.9)
    with pytest.raises(ValueError, match="normaliz"):
        spin.out_density_matrix(s, np.array([1.0, 0, 0, 1.0]))
    with pytest.raises(ValueError, match="unitar"):
        spin.out_density_matrix(np.eye(4) * 2.0, np.array([1.0, 0, 0, 0]))


def test_normalized_state_takes_a_state_or_a_stack():
    states = spin.haar_product_states(3, np.random.default_rng(4))
    assert spin.normalized_state(states).shape == (3, 4)
    assert spin.normalized_state(states[1]).shape == (4,)
    states[2] = [1.5, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match=r"^in_state must be normalized, got \|psi\| = np.float64\(1.5"):
        spin.normalized_state(states)
    with pytest.raises(ValueError, match=r"^in_state must be normalized, got \|psi\| = np.float64\(1.5"):
        spin.normalized_state(states[2])


def test_entanglement_power_closed_form_values():
    assert spin.entanglement_power_closed(0.0, 0.0) == 0.0
    assert spin.entanglement_power_closed(0.3, 0.3 + math.pi / 2) == pytest.approx(
        1.0 / 6.0, abs=1e-15
    )
    # frozen oracle: (1/6) sin^2(0.8)
    assert spin.entanglement_power_closed(0.0, 0.8) == pytest.approx(
        0.08576662685844073, abs=1e-15
    )


@given(phi=ANGLES, theta=ANGLES, shift=ANGLES)
@settings(max_examples=200, deadline=None)
def test_entanglement_power_depends_on_difference(phi, theta, shift):
    a = spin.entanglement_power_closed(phi, theta)
    b = spin.entanglement_power_closed(phi + shift, theta + shift)
    assert a == pytest.approx(b, abs=1e-12)
    assert 0.0 <= a <= 1.0 / 6.0 + 1e-15


def test_haar_states_are_normalized_products(rng):
    states = spin.haar_product_states(50, rng)
    assert states.shape == (50, 4)
    np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)
    # product structure: 2x2 reshape has rank 1
    for vec in states[:10]:
        sv = np.linalg.svd(vec.reshape(2, 2), compute_uv=False)
        assert sv[1] == pytest.approx(0.0, abs=1e-12)


def test_product_states_have_zero_linear_entropy(rng):
    states = spin.haar_product_states(20, rng)
    ent = spin.linear_entropy_one_qubit(states)
    np.testing.assert_allclose(ent, 0.0, atol=1e-12)


def test_mc_estimate_matches_closed_form():
    phi, theta = 0.9, 2.1
    est, err = spin.entanglement_power_mc(phi, theta, n_samples=20000, seed=42)
    exact = spin.entanglement_power_closed(phi, theta)
    assert abs(est - exact) < 5 * err
    assert err < 2e-3


def test_mc_is_deterministic_for_fixed_seed():
    a = spin.entanglement_power_mc(0.3, 1.0, n_samples=2000, seed=9)
    b = spin.entanglement_power_mc(0.3, 1.0, n_samples=2000, seed=9)
    assert a == b


def test_mc_attains_closed_form_maximum():
    # The plain mean linear entropy over Haar x Haar product states reaches the
    # closed form's maximum 1/6 at theta - phi = pi/2: no calibration factor.
    est, err = spin.entanglement_power_mc(0.0, math.pi / 2, n_samples=20000, seed=5)
    assert abs(est - 1.0 / 6.0) < 5 * err
