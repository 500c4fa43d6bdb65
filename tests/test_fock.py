"""Tests for the truncated Fock-space layer.

Reference values come from closed forms evaluated with math/cmath and from
the explicit factorial constructions in oracles.py, never from the code
under test.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ecsim import fock
from ecsim.errors import TruncationWarning


def random_state(rng, cutoff):
    amp = rng.normal(size=(cutoff.dim_a, cutoff.dim_b)) + 1j * rng.normal(
        size=(cutoff.dim_a, cutoff.dim_b)
    )
    amp /= np.linalg.norm(amp)
    return fock.TwoModeState(amp, cutoff)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        fock.FockCutoff(0, 5)
    with pytest.raises(ValueError):
        fock.FockCutoff(5, -1)
    with pytest.raises(ValueError):
        fock.FockCutoff(2.5, 5)
    cut = fock.FockCutoff(4, 6)
    assert cut.dim_a == 5
    assert cut.dim_b == 7
    assert cut.dim == 35


def test_state_shape_validation_and_immutability():
    cut = fock.FockCutoff(2, 2)
    with pytest.raises(ValueError):
        fock.TwoModeState(np.zeros((3, 4)), cut)
    state = fock.vacuum(cut)
    with pytest.raises(ValueError):
        state.amplitudes[0, 0] = 2.0


def test_vacuum():
    cut = fock.FockCutoff(3, 5)
    state = fock.vacuum(cut)
    assert state.amplitudes[0, 0] == 1.0
    assert fock.norm(state) == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_coherent_column_matches_factorial_form():
    alpha = 0.1j
    col = fock.coherent_column(alpha, 40)
    # Closed form: entry n is e^{-|alpha|^2/2} alpha^n / sqrt(n!).
    expected = oracles.coherent_vector(alpha, 40)
    assert np.max(np.abs(col - expected)) < 1e-14
    # Frozen leading entries: e^{-0.005} and 0.1j e^{-0.005}.
    assert abs(col[0] - 0.9950124791926823) < 1e-14
    assert abs(col[1] - 0.09950124791926823j) < 1e-14
    # Norm deficit is far below the warning tolerance at this amplitude.
    assert abs(float(np.sum(np.abs(col) ** 2)) - 1.0) < 1e-13


def test_coherent_column_warns_on_heavy_tail():
    with pytest.warns(TruncationWarning):
        fock.coherent_column(3.0, 5)


def test_coherent_column_stays_finite_at_huge_amplitude():
    # e^{-|alpha|^2/2} underflows to 0 first, so the running product stays 0.
    with pytest.warns(TruncationWarning):
        col = fock.coherent_column(1e9, 40)
    assert np.all(np.isfinite(col))
    with pytest.warns(TruncationWarning):
        col = fock.coherent_column(30.0 * cmath.exp(0.7j), 40)
    assert np.all(np.isfinite(col))
    expected = oracles.coherent_vector(30.0 * cmath.exp(0.7j), 40)
    assert np.max(np.abs(col - expected) / np.abs(expected)) < 1e-13


def test_coherent_column_rejects_tiny_basis():
    with pytest.raises(ValueError):
        fock.coherent_column(0.5, 0)


def test_ladder_algebra():
    n_max = 12
    a = fock.annihilation_matrix(n_max).matrix
    adag = fock.creation_matrix(n_max).matrix
    number = fock.number_matrix(n_max).matrix
    assert np.max(np.abs(adag @ a - number)) < 1e-12
    commutator = a @ adag - adag @ a
    # Identity on every interior level; the truncation defect -n_max sits
    # in the corner entry only.
    assert np.max(np.abs(commutator[:-1, :-1] - np.eye(n_max))) < 1e-12
    assert abs(commutator[n_max, n_max] + n_max) < 1e-12


def test_mode_operator_rejects_non_square():
    with pytest.raises(ValueError):
        fock.ModeOperator(np.zeros((2, 3)))


def test_parity_matrix_signs():
    par = fock.parity_matrix(5).matrix
    assert np.array_equal(np.diag(par).real, np.array([1, -1, 1, -1, 1, -1]))


def test_displacement_column_matches_coherent_column():
    for gamma in (0.3, -1.2, 0.7 + 0.4j, 2.0, 1.5j):
        mat = fock.displacement_matrix(gamma, 40).matrix
        expected = fock.coherent_column(gamma, 40)
        assert np.max(np.abs(mat[:, 0] - expected)) < 1e-9


def test_displacement_vacuum_overlap_frozen():
    # <0|D(1)|0> = e^{-1/2}
    mat = fock.displacement_matrix(1.0, 40).matrix
    assert abs(mat[0, 0] - 0.6065306597126334) < 1e-12


def test_displacement_unitarity():
    for gamma in (0.5, 1.0 + 1.0j, 2.0, -1.7j):
        mat = fock.displacement_matrix(gamma, 40).matrix
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(41))) < 1e-12


def test_displacement_inverse_is_exact():
    # The truncated generator G is anti-Hermitian, so D(-g) = exp(-G) is the
    # adjoint of D(g) at every cutoff and undoes it up to rounding.
    rng = np.random.default_rng(11)
    cut = fock.FockCutoff(12, 12)
    state = random_state(rng, cut)
    g = 0.8 - 0.3j
    d_fwd = fock.displacement_matrix(g, 12)
    d_back = fock.displacement_matrix(-g, 12)
    roundtrip = fock.apply_to_mode(d_back, "a", fock.apply_to_mode(d_fwd, "a", state))
    assert np.max(np.abs(roundtrip.amplitudes - state.amplitudes)) < 1e-13


# Complex displacement amplitudes with |gamma| <= 3, drawn in polar form.
GAMMAS = st.builds(
    cmath.rect, st.floats(0.0, 3.0), st.floats(-math.pi, math.pi)
)


@settings(deadline=None, derandomize=True)
@given(gamma=GAMMAS, n_max=st.sampled_from([12, 40]))
def test_displacement_matches_expm_oracle(gamma, n_max):
    op = fock.displacement_matrix(gamma, n_max)
    reference = oracles.displacement(gamma, n_max)
    assert np.max(np.abs(op.matrix - reference)) <= 1e-13
    assert np.max(np.abs(op.matrix.conj().T @ op.matrix - np.eye(n_max + 1))) <= 1e-13


@settings(deadline=None, derandomize=True)
@given(gamma_a=GAMMAS, gamma_b=GAMMAS)
def test_displacement_on_asymmetric_state_matches_expm_oracle(gamma_a, gamma_b):
    # Cutoff 30,41: the two modes need matrices of different sizes.
    cut = fock.FockCutoff(30, 41)
    state = random_state(np.random.default_rng(17), cut)
    shifted = fock.apply_to_mode(
        fock.displacement_matrix(gamma_b, 41),
        "b",
        fock.apply_to_mode(fock.displacement_matrix(gamma_a, 30), "a", state),
    )
    reference = (
        oracles.displacement(gamma_a, 30)
        @ state.amplitudes
        @ oracles.displacement(gamma_b, 41).T
    )
    assert np.max(np.abs(shifted.amplitudes - reference)) <= 1e-13
    assert abs(fock.norm(shifted) - 1.0) <= 1e-13


def composition_defect(g1, g2, n_max, interior):
    lhs = (
        fock.displacement_matrix(g1, n_max).matrix
        @ fock.displacement_matrix(g2, n_max).matrix
    )
    phase = np.exp(1j * (g1 * np.conj(g2)).imag)
    rhs = phase * fock.displacement_matrix(g1 + g2, n_max).matrix
    block = slice(0, interior)
    return float(np.max(np.abs(lhs[block, block] - rhs[block, block])))


def test_displacement_composition_interior():
    """D(g1) D(g2) = e^{i Im(g1 conj(g2))} D(g1 + g2) away from the boundary.

    With the top 20 percent of levels excluded the identity holds to 1e-8
    for small arguments; larger displacements mix boundary levels further
    down, so they are checked on a deeper interior block where the identity
    is again clean.
    """
    n_max = 40
    for g1, g2 in ((0.2, 0.15j), (0.25 + 0.1j, -0.15 + 0.05j), (0.3, 0.2j)):
        assert composition_defect(g1, g2, n_max, interior=33) < 1e-8
    for g1, g2 in ((0.4, 0.3j), (0.5 + 0.2j, -0.3 + 0.1j)):
        assert composition_defect(g1, g2, n_max, interior=28) < 1e-11
    # Parallel generators commute exactly even on the truncated basis, so
    # the identity then holds over the full block.
    assert composition_defect(1.0, 0.5, n_max, interior=41) < 1e-13


def test_apply_to_mode_cross_mode_commutation():
    rng = np.random.default_rng(7)
    cut = fock.FockCutoff(9, 11)
    state = random_state(rng, cut)
    op_a = fock.displacement_matrix(0.4 + 0.2j, cut.n_max_a)
    op_b = fock.annihilation_matrix(cut.n_max_b)
    ab = fock.apply_to_mode(op_b, "b", fock.apply_to_mode(op_a, "a", state))
    ba = fock.apply_to_mode(op_a, "a", fock.apply_to_mode(op_b, "b", state))
    assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) < 1e-13


def test_apply_to_mode_validation():
    cut = fock.FockCutoff(4, 6)
    state = fock.vacuum(cut)
    with pytest.raises(ValueError):
        fock.apply_to_mode(fock.number_matrix(6), "a", state)
    with pytest.raises(ValueError):
        fock.apply_to_mode(fock.number_matrix(4), "b", state)
    with pytest.raises(ValueError):
        fock.apply_to_mode(fock.number_matrix(4), "c", state)


def test_expectation_number_and_parity_on_coherent():
    cut = fock.FockCutoff(40, 40)
    amp = np.zeros((41, 41), dtype=complex)
    amp[:, 0] = fock.coherent_column(0.3, 40)
    state = fock.TwoModeState(amp, cut)
    n_a = fock.expectation(state, op_a=fock.number_matrix(40))
    assert abs(n_a - 0.09) < 1e-12
    # <alpha| parity |alpha> = e^{-2 |alpha|^2} = e^{-0.18}
    par = fock.expectation(
        state, op_a=fock.parity_matrix(40), op_b=fock.parity_matrix(40)
    )
    assert abs(par - 0.835270211411272) < 1e-10
    assert abs(par.imag) < 1e-12


def test_hermitian_expectations_are_real():
    rng = np.random.default_rng(23)
    cut = fock.FockCutoff(10, 10)
    number = fock.number_matrix(10)
    parity = fock.parity_matrix(10)
    for _ in range(20):
        state = random_state(rng, cut)
        for op_a, op_b in ((number, None), (None, parity), (parity, number)):
            val = fock.expectation(state, op_a=op_a, op_b=op_b)
            assert abs(val.imag) < 1e-10


def test_inner_product_of_cross_branches_frozen():
    # <alpha, 0 | 0, alpha> = |<0|alpha>|^2 = e^{-|alpha|^2} at real alpha.
    cut = fock.FockCutoff(40, 40)
    col = fock.coherent_column(0.1, 40)
    vac = np.zeros(41, dtype=complex)
    vac[0] = 1.0
    left = fock.TwoModeState(np.outer(col, vac), cut)
    right = fock.TwoModeState(np.outer(vac, col), cut)
    assert abs(fock.inner(left, right) - 0.9900498337491681) < 1e-12
    with pytest.raises(ValueError):
        fock.inner(left, fock.vacuum(fock.FockCutoff(5, 5)))


def test_tail_mass_counts_corner_once():
    cut = fock.FockCutoff(2, 2)
    amp = np.zeros((3, 3), dtype=complex)
    amp[2, 0] = 0.3
    amp[0, 2] = 0.4
    amp[2, 2] = 0.5
    state = fock.TwoModeState(amp, cut)
    assert abs(fock.tail_mass(state) - 0.50) < 1e-15
    stacked = fock.top_level_mass(np.stack([amp, 2.0 * amp]))
    assert np.allclose(stacked, [0.50, 2.00], rtol=0.0, atol=1e-15)


def test_warn_if_truncated_threshold():
    cut = fock.FockCutoff(2, 2)
    amp = np.zeros((3, 3), dtype=complex)
    amp[0, 0] = 1.0
    amp[2, 2] = 1e-4
    mass = fock.tail_mass(fock.TwoModeState(amp, cut))
    assert abs(mass - 1e-8) < 1e-20
    with pytest.warns(TruncationWarning):
        fock.warn_if_truncated(mass, 1e-10, "test")
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        fock.warn_if_truncated(mass, 1e-4, "test")


def test_apply_annihilation_matches_matrix_route():
    rng = np.random.default_rng(5)
    cut = fock.FockCutoff(8, 6)
    state = random_state(rng, cut)
    for mode, n_max in (("a", 8), ("b", 6)):
        direct = fock.apply_annihilation(state, mode)
        via_matrix = fock.apply_to_mode(fock.annihilation_matrix(n_max), mode, state)
        assert np.max(np.abs(direct.amplitudes - via_matrix.amplitudes)) < 1e-14
    with pytest.raises(ValueError):
        fock.apply_annihilation(state, "x")


def test_apply_creation_grows_exactly():
    rng = np.random.default_rng(6)
    cut = fock.FockCutoff(6, 5)
    state = random_state(rng, cut)
    lifted = fock.apply_creation(state, "a")
    assert lifted.cutoff == fock.FockCutoff(7, 5)
    # a^dag on the state zero-padded by one mode-a level.
    reference = fock.creation_matrix(7).matrix @ np.pad(state.amplitudes, ((0, 1), (0, 0)))
    assert np.max(np.abs(lifted.amplitudes - reference)) < 1e-14
    # Adjointness: <a^dag u | a^dag u> = <u| a a^dag |u> = <u|(N+1)|u>.
    n_plus_one = fock.expectation(state, op_a=fock.number_matrix(6)).real + 1.0
    assert abs(fock.norm(lifted) ** 2 - n_plus_one) < 1e-12
    assert fock.apply_creation(state, "b").cutoff == fock.FockCutoff(6, 6)
    with pytest.raises(ValueError):
        fock.apply_creation(state, "x")
