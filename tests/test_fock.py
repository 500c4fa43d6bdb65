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


def vacuum_state(cutoff):
    """|0, 0> on the given truncated basis."""
    return fock.TwoModeState(np.pad([[1.0]], ((0, cutoff.n_max_a), (0, cutoff.n_max_b))), cutoff)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        fock.FockCutoff(0, 5)
    with pytest.raises(ValueError):
        fock.FockCutoff(5, -1)
    with pytest.raises(ValueError):
        fock.FockCutoff(2.5, 5)
    with pytest.raises(ValueError, match="n_max_a must be an integer >= 1, got True"):
        fock.FockCutoff(True, 5)
    with pytest.raises(ValueError, match="n_max_b must be an integer >= 1, got False"):
        fock.FockCutoff(5, False)
    # A numpy integer passes and is stored as a Python int; a numpy float does not.
    numpy_cut = fock.FockCutoff(np.int64(10), 10)
    assert numpy_cut == fock.FockCutoff(10, 10) and type(numpy_cut.n_max_a) is int
    with pytest.raises(ValueError, match="n_max_b must be an integer >= 1"):
        fock.FockCutoff(10, np.float64(10.0))
    with pytest.raises(ValueError, match="n_max_a must be at most 1000 per mode, got 1001"):
        fock.FockCutoff(np.int64(1001), 10)
    cut = fock.FockCutoff(4, 6)
    assert cut.dim_a == 5
    assert cut.dim_b == 7
    # The record holds the bound, so every Fock route is held to it.  Only
    # the constructor runs: the eigenbasis at such a cutoff is a dense
    # (n_max + 1)^2 eigenproblem.
    assert fock.FockCutoff(1000, 10).n_max_a == 1000
    for levels in ((1001, 1), (1, 1001), (10, 1001)):
        with pytest.raises(ValueError, match="at most 1000 per mode"):
            fock.FockCutoff(*levels)


def test_state_shape_validation_and_immutability():
    cut = fock.FockCutoff(2, 2)
    with pytest.raises(ValueError):
        fock.TwoModeState(np.zeros((3, 4)), cut)
    state = vacuum_state(cut)
    with pytest.raises(ValueError):
        state.amplitudes[0, 0] = 2.0


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
    # The cutoff check of FockCutoff: a bool or a float is refused with the
    # same message, and numpy's integers pass.
    for n_max in (True, 2.5):
        with pytest.raises(ValueError, match="n_max must be an integer >= 1"):
            fock.coherent_column(0.5, n_max)
    assert np.array_equal(fock.coherent_column(0.01, np.int64(3)), fock.coherent_column(0.01, 3))


def test_coherent_column_rejects_overflowing_amplitude():
    for alpha in (1e200, 1e155j):
        with pytest.raises(ValueError, match="finite"):
            fock.coherent_column(alpha, 10)


def test_ladder_algebra():
    n_max = 12
    u = random_state(np.random.default_rng(4), fock.FockCutoff(n_max, 3)).amplitudes
    number_u = np.arange(n_max + 1)[:, None] * u
    # a^dag a = N on every retained level, with a the dense ladder matrix.
    assert np.max(np.abs(oracles.create(oracles.ladder_down(n_max) @ u, 0)[:-1] - number_u)) < 1e-12
    # a a^dag = N + 1 with no corner defect, because creation grows the basis.
    assert np.max(np.abs((oracles.ladder_down(n_max + 1) @ oracles.create(u, 0))[:-1] - number_u - u)) < 1e-12


def test_mode_operator_rejects_non_square():
    with pytest.raises(ValueError):
        fock.ModeOperator(np.zeros((2, 3)))


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


def test_displacement_rejects_overflowing_angle():
    # |gamma| times the largest quadrature eigenvalue overflows a double.
    for gamma in (5e307, -5e307j, complex(math.nan, 0.0)):
        with pytest.raises(ValueError, match="overflows at n_max=40"):
            fock.displacement_matrix(gamma, 40)


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


# A meter row (c, d) = (cos(theta/2), e^{i delta} sin(theta/2)) with theta up
# to 0.999 pi, and signed arms -2 <= u <= 2, any of them possibly exactly zero.
METER_ROW = st.builds(
    lambda theta, delta: (math.cos(0.5 * theta), cmath.exp(1j * delta) * math.sin(0.5 * theta)),
    st.floats(0.0, 0.999 * math.pi),
    st.floats(0.0, 2.0 * math.pi),
)
ARMS = st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), min_size=1, max_size=4)


@settings(deadline=None, derandomize=True)
@given(
    arms=ARMS,
    row=METER_ROW,
    shape=st.sampled_from([(), (3,)]),
    m=st.sampled_from([1, 2, 5, 41]),
    n_max=st.sampled_from([12, 40]),
    seed=st.integers(0, 2**16),
)
def test_meter_matches_two_pass_expm_oracle(arms, row, shape, m, n_max, seed):
    """Each slot of one meter call over arms and a stack of factors is the
    two-pass k+ D(u) F + k- D(-u) F of expm displacements, holds c F bit for
    bit where u = 0, and equals the call at that slot alone bit for bit."""
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(*shape, n_max + 1, m)) + 1j * rng.normal(size=(*shape, n_max + 1, m))
    factors /= np.linalg.norm(factors, axis=-2, keepdims=True)
    out = fock.meter(arms, row, factors)
    assert out.shape == (len(arms), *factors.shape)
    c, d = row
    for i, u in enumerate(arms):
        for k in np.ndindex(*shape):
            slot, factor = out[(i, *k)], factors[k]
            if u == 0.0:
                assert np.array_equal(slot, complex(c) * factor)
            else:
                assert np.max(np.abs(slot - oracles.meter_two_pass(u, c, d, factor))) <= 1e-13
            assert np.array_equal(slot, fock.meter([u], row, factor)[0])


def test_meter_rejects_overflowing_arm():
    # One arm of a batch whose angle u max(lam) overflows fails the whole call.
    factor = np.eye(41, 2, dtype=np.complex128)
    for arms in ([0.5, 5e307], [0.5, -5e307], [math.inf], [math.nan]):
        with pytest.raises(ValueError, match="overflows at n_max=40"):
            fock.meter(arms, (1.0, 0.0), factor)


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
    assert abs(np.linalg.norm(shifted.amplitudes) - 1.0) <= 1e-13


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
    op_b = fock.ModeOperator(oracles.ladder_down(cut.n_max_b))
    ab = fock.apply_to_mode(op_b, "b", fock.apply_to_mode(op_a, "a", state))
    ba = fock.apply_to_mode(op_a, "a", fock.apply_to_mode(op_b, "b", state))
    assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) < 1e-13


def test_apply_to_mode_validation():
    cut = fock.FockCutoff(4, 6)
    state = vacuum_state(cut)
    with pytest.raises(ValueError):
        fock.apply_to_mode(fock.ModeOperator(oracles.ladder_down(6)), "a", state)
    with pytest.raises(ValueError):
        fock.apply_to_mode(fock.ModeOperator(oracles.ladder_down(4)), "b", state)
    with pytest.raises(ValueError):
        fock.apply_to_mode(fock.ModeOperator(oracles.ladder_down(4)), "c", state)


def test_tail_mass_counts_corner_once():
    amp = np.zeros((3, 3), dtype=complex)
    amp[2, 0] = 0.3
    amp[0, 2] = 0.4
    amp[2, 2] = 0.5
    assert abs(oracles.top_level_mass(amp) - 0.50) < 1e-15
    stacked = oracles.top_level_mass(np.stack([amp, 2.0 * amp]))
    assert np.allclose(stacked, [0.50, 2.00], rtol=0.0, atol=1e-15)


def test_warn_if_truncated_threshold():
    amp = np.zeros((3, 3), dtype=complex)
    amp[0, 0] = 1.0
    amp[2, 2] = 1e-4
    mass = float(oracles.top_level_mass(amp))
    assert abs(mass - 1e-8) < 1e-20
    with pytest.warns(TruncationWarning):
        fock.warn_if_truncated(mass, 1e-10, "test")
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        fock.warn_if_truncated(mass, 1e-4, "test")


def test_apply_creation_grows_exactly():
    rng = np.random.default_rng(6)
    amp = random_state(rng, fock.FockCutoff(6, 5)).amplitudes
    lifted = oracles.create(amp, 0)
    assert lifted.shape == (8, 6)
    # a^dag on the state zero-padded by one mode-a level.
    reference = oracles.ladder_down(7).conj().T @ np.pad(amp, ((0, 1), (0, 0)))
    assert np.max(np.abs(lifted - reference)) < 1e-14
    # Adjointness: <a^dag u | a^dag u> = <u| a a^dag |u> = <u|(N+1)|u>.
    n_plus_one = np.vdot(amp, np.arange(7)[:, None] * amp).real + 1.0
    assert abs(np.linalg.norm(lifted) ** 2 - n_plus_one) < 1e-12
    lifted_b = oracles.create(amp, 1)
    assert lifted_b.shape == (7, 7)
    assert np.max(np.abs(lifted_b - np.pad(amp, ((0, 0), (0, 1))) @ oracles.ladder_down(6))) < 1e-14
    with pytest.raises(IndexError):
        oracles.create(amp, 2)


def test_ladders_on_factor_stack_match_oracle():
    # A (K, dim, m) stack of single-mode factors, raised on its Fock axis -2.
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(3, 9, 4)) + 1j * rng.normal(size=(3, 9, 4))
    padded = np.pad(stack, ((0, 0), (0, 1), (0, 0)))
    up = np.einsum("ij,kjm->kim", oracles.ladder_down(9).conj().T, padded)
    lifted = oracles.create(stack, -2)
    assert lifted.shape == (3, 10, 4)
    assert np.max(np.abs(lifted - up)) < 1e-14
