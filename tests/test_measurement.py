"""Tests for probe-state construction, weak values, and post-selection.

The heavy check is equivalence against the explicit qubit x qubit x Fock
tensor construction in oracles.py, which never touches the per-meter
operator product used by the library.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from ecsim import fock, measurement
from ecsim.config import default_config
from ecsim.errors import DegeneratePostSelectionError, TruncationWarning
from ecsim.measurement import (
    CouplingParams,
    EcsParams,
    WeakValueParams,
    apply_displacement_branches,
    build_ecs,
    build_pointer_state,
    ecs_factors,
)
from ecsim.observables import qfi_analytic
from ecsim.params import _meter_rows

CUT40 = fock.FockCutoff(40, 40)
HALF_PI = 0.5 * math.pi


def baseline_wv():
    return WeakValueParams(0.8 * math.pi, HALF_PI, 0.8 * math.pi, HALF_PI)


def test_ecs_params_validation_and_reduction():
    with pytest.raises(ValueError):
        EcsParams(-0.1)
    with pytest.raises(ValueError):
        EcsParams(float("nan"))
    with pytest.raises(ValueError, match="finite square"):
        EcsParams(1e200)
    with pytest.raises(ValueError):
        EcsParams(0.1, mu=float("nan"))
    with pytest.raises(ValueError):
        EcsParams(0.1, varphi=float("inf"))
    p = EcsParams(0.4, mu=2.0 * math.pi + 0.3, varphi=-0.5)
    assert abs(p.mu - 0.3) < 1e-12
    assert abs(p.varphi - (2.0 * math.pi - 0.5)) < 1e-12
    assert abs(p.alpha - 0.4 * cmath.exp(0.3j)) < 1e-12


def test_ecs_normalization_closed_form():
    p = EcsParams(0.1)
    expected = 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-0.01)))
    assert abs(p.normalization - expected) < 1e-15


def test_weak_value_params_validation():
    with pytest.raises(ValueError):
        WeakValueParams(math.pi, 0.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        WeakValueParams(math.pi - 1e-10, 0.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        WeakValueParams(-0.1, 0.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        WeakValueParams(0.1, -0.1, 0.1, 0.0)
    with pytest.raises(ValueError):
        WeakValueParams(0.1, 0.0, 0.1, 7.0)
    # A non-finite azimuth on either meter.
    for delta in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="delta1 must lie"):
            WeakValueParams(0.5, delta, 0.5, 0.0)
        with pytest.raises(ValueError, match="delta2 must lie"):
            WeakValueParams(0.5, 0.0, 0.5, delta)
    WeakValueParams(math.pi - 1e-8, 0.0, 0.0, 2.0 * math.pi)


def test_coupling_params_validation():
    with pytest.raises(ValueError):
        CouplingParams(-0.5, 0.0)
    with pytest.raises(ValueError):
        CouplingParams(0.0, float("inf"))


def test_meter_rows_carry_the_frozen_weak_values():
    # Each meter row (c_i, d_i) has d_i = c_i w_i.  At the baseline angles
    # theta = 4 pi / 5, delta = pi / 2, w_x = i tan(2 pi / 5) =
    # 3.077683537175253 i and w_y = 3.077683537175253.
    (c_x, d_x), (c_y, d_y) = _meter_rows(baseline_wv())
    assert abs(d_x / c_x - 3.077683537175253j) < 1e-12
    assert abs(d_y / c_y - 3.077683537175253) < 1e-12
    (c_x, d_x), (c_y, d_y) = _meter_rows(WeakValueParams(HALF_PI, 0.0, HALF_PI, 0.0))
    assert abs(d_x / c_x - 1.0) < 1e-15
    assert abs(d_y / c_y + 1j) < 1e-15


def test_branch_weights_sum_to_four():
    """The reference branch weights sum to 4, and the products k_a+- k_b+- of
    the branch weights k+- = (c +- d) / 2 of the library's meter amplitudes
    (c, d) are (omega/4) times them."""
    rng = np.random.default_rng(41)
    for _ in range(25):
        wv = WeakValueParams(
            rng.uniform(0.0, 0.95 * math.pi),
            rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, 0.95 * math.pi),
            rng.uniform(0.0, 2.0 * math.pi),
        )
        branches = oracles.branch_terms(wv.theta1, wv.delta1, wv.theta2, wv.delta2)
        total = sum(weight for weight, _, _ in branches)
        assert abs(total - 4.0) < 1e-12
        signs = [(sa, sb) for _, sa, sb in branches]
        assert signs == [(1, 1), (-1, -1), (-1, 1), (1, -1)]
        (c_a, d_a), (c_b, d_b) = _meter_rows(wv)
        for weight, sign_a, sign_b in branches:
            product = 0.5 * (c_a + sign_a * d_a) * 0.5 * (c_b + sign_b * d_b)
            expected = 0.25 * oracles.meter_overlap(wv.theta1, wv.theta2) * weight
            assert abs(product - expected) <= 1e-14 * max(1.0, abs(expected))


# (r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2): two strong
# post-selections, P_s 8.2e-12 and 2.4e-8, where the branch weights k+ and
# k- nearly cancel, then the baseline meters at s = 1 and a generic point.
EXACT_POINTS = [
    (0.5, 0.3, 1.1, 0.999 * math.pi, HALF_PI, 0.999 * math.pi, HALF_PI, 1e-3, 1e-3),
    (0.8, 1.0, 2.0, 0.9999 * math.pi, 0.2, 0.3 * math.pi, 1.0, 1e-4, 0.5),
    (0.1, HALF_PI, HALF_PI, 0.8 * math.pi, HALF_PI, 0.8 * math.pi, HALF_PI, 1.0, 1.0),
    (1.2, 0.4, 0.7, 0.6 * math.pi, 1.3, 0.45 * math.pi, 2.5, 2.0, 0.7),
]


@pytest.mark.parametrize("point", EXACT_POINTS)
def test_success_probability_matches_untruncated_sum(point):
    """P_s of pointer_outcome keeps 14 digits of the 40-digit sum over the
    eight product coherent states, down to P_s 8.2e-12."""
    config = default_config(
        ecs=EcsParams(*point[:3]), wv=WeakValueParams(*point[3:7]), coupling=CouplingParams(*point[7:])
    )
    p_s = config.pointer_outcome().success_probability
    exact = oracles.exact_success_probability(*point)
    assert abs(p_s - exact) <= 1e-14 * exact


def test_build_ecs_zero_amplitude_is_vacuum():
    state = build_ecs(EcsParams(0.0), fock.FockCutoff(6, 6))
    assert abs(state.amplitudes[0, 0] - 1.0) < 1e-15
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-15


def test_build_ecs_norm_and_occupations():
    state = build_ecs(EcsParams(0.1, HALF_PI, HALF_PI), CUT40)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    expected_n = EcsParams(0.1).normalization ** 2 * 0.01
    assert abs(expected_n - 0.0025124998958343746) < 1e-16
    amp = state.amplitudes
    for n_amp in (np.arange(41)[:, None] * amp, amp * np.arange(41)):
        assert abs(np.vdot(amp, n_amp) - expected_n) < 1e-12


def test_build_ecs_matches_factorial_oracle():
    state = build_ecs(EcsParams(0.37, 1.1, 2.3), fock.FockCutoff(25, 25))
    expected = oracles.ecs_amplitudes(0.37, 1.1, 2.3, 25)
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-13


def test_build_ecs_warns_when_cutoff_too_small():
    with pytest.warns(TruncationWarning):
        build_ecs(EcsParams(3.0), fock.FockCutoff(6, 6))


def test_zero_coupling_collapses_to_probe():
    rng = np.random.default_rng(42)
    ecs = build_ecs(EcsParams(0.1, HALF_PI, HALF_PI), CUT40)
    for _ in range(10):
        wv = WeakValueParams(
            rng.uniform(0.0, 0.9 * math.pi),
            rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, 0.9 * math.pi),
            rng.uniform(0.0, 2.0 * math.pi),
        )
        outcome = build_pointer_state(ecs, wv, CouplingParams(0.0, 0.0))
        overlap = abs(np.vdot(ecs.amplitudes, outcome.state.amplitudes))
        assert abs(overlap - 1.0) < 1e-10
        expected_p = math.cos(wv.theta1 / 2.0) ** 2 * math.cos(wv.theta2 / 2.0) ** 2
        assert abs(outcome.success_probability - expected_p) < 1e-10


def test_success_probability_baseline_anchor():
    # At zero coupling and theta = 4 pi / 5 on both meters the success
    # probability is cos^4(2 pi / 5).
    ecs = build_ecs(EcsParams(0.1, HALF_PI, HALF_PI), CUT40)
    outcome = build_pointer_state(ecs, baseline_wv(), CouplingParams(0.0, 0.0))
    assert abs(outcome.success_probability - 0.00911862710939472) < 1e-12


def test_success_probability_saturates_at_quarter():
    # Distant branches become orthogonal, where P_s -> 1/4 independent of
    # the meter angles.
    ecs = build_ecs(EcsParams(0.1, HALF_PI, HALF_PI), CUT40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        far = build_pointer_state(ecs, baseline_wv(), CouplingParams(6.0, 6.0))
    assert abs(far.success_probability - 0.25) < 1e-3


def test_pointer_state_normalized_and_bounded():
    ecs = build_ecs(EcsParams(0.1, HALF_PI, HALF_PI), CUT40)
    for s in (0.0, 0.7, 2.0):
        outcome = build_pointer_state(ecs, baseline_wv(), CouplingParams(s, s))
        assert abs(np.linalg.norm(outcome.state.amplitudes) - 1.0) < 1e-12
        assert 0.0 <= outcome.success_probability <= 1.0 + 1e-9


def test_pointer_state_rebuild_is_byte_equal():
    ecs = build_ecs(EcsParams(0.1, HALF_PI, HALF_PI), CUT40)
    outcome = build_pointer_state(ecs, baseline_wv(), CouplingParams(0.8, 0.8))
    again = build_pointer_state(ecs, baseline_wv(), CouplingParams(0.8, 0.8))
    assert np.array_equal(outcome.state.amplitudes, again.state.amplitudes)


def test_post_selection_only_normalizes():
    """The outcome is the raw pointer state over sqrt(P_s), bit for bit: no
    phase convention, as no diagnostic depends on a global phase."""
    config = default_config(coupling=CouplingParams(0.8, 0.3))
    outcome = config.pointer_outcome()
    expected = config.raw_pointer_state().amplitudes / math.sqrt(outcome.success_probability)
    assert np.array_equal(outcome.state.amplitudes, expected)


def test_degenerate_post_selection_raises():
    ecs = build_ecs(EcsParams(0.1, HALF_PI, HALF_PI), CUT40)
    # Nearly orthogonal post-selection: P_s = cos^4((pi - 1e-8)/2) ~ 6e-34.
    wv = WeakValueParams(math.pi - 1e-8, HALF_PI, math.pi - 1e-8, HALF_PI)
    with pytest.raises(DegeneratePostSelectionError):
        build_pointer_state(ecs, wv, CouplingParams(0.0, 0.0))
    # The config's route post-selects by the same rule.
    with pytest.raises(DegeneratePostSelectionError):
        default_config(wv=wv).pointer_outcome()


def test_unnormalized_norm_squared_is_success_probability():
    ecs = build_ecs(EcsParams(0.1, HALF_PI, HALF_PI), CUT40)
    raw = apply_displacement_branches(ecs, baseline_wv(), CouplingParams(1.2, 0.4))
    outcome = build_pointer_state(ecs, baseline_wv(), CouplingParams(1.2, 0.4))
    assert abs(np.linalg.norm(raw.amplitudes) ** 2 - outcome.success_probability) < 1e-14


def test_brute_force_tensor_oracle_agreement():
    """Per-meter operator product vs the explicit two-meter tensor evolution,
    whose arms are scale * s_i: the library's arm is s_i / 2, so a coupling
    quoted with arm s_i (scale 1) is the library's 2 s_i."""
    rng = np.random.default_rng(314)
    n_max = 10
    cutoff = fock.FockCutoff(n_max, n_max)
    for _ in range(4):
        r = rng.uniform(0.0, 0.5)
        mu = rng.uniform(0.0, 2.0 * math.pi)
        varphi = rng.uniform(0.0, 2.0 * math.pi)
        theta1, theta2 = rng.uniform(0.0, 0.9 * math.pi, size=2)
        delta1, delta2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        s1, s2 = rng.uniform(0.0, 1.0, size=2)

        for factor, scale in ((1.0, 0.5), (2.0, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                ecs = build_ecs(EcsParams(r, mu, varphi), cutoff)
                outcome = build_pointer_state(
                    ecs,
                    WeakValueParams(theta1, delta1, theta2, delta2),
                    CouplingParams(factor * s1, factor * s2),
                )
            expected_amp, expected_p = oracles.brute_force_pointer(
                r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2, n_max, scale
            )
            assert abs(outcome.success_probability - expected_p) < 1e-12
            assert np.linalg.norm(outcome.state.amplitudes - expected_amp) < 1e-9


PHASES = st.floats(0.0, 2.0 * math.pi)
THETAS = st.floats(0.0, 0.9 * math.pi)
COUPLINGS = st.floats(0.0, 3.0)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    r=st.floats(0.0, 1.5),
    mu=PHASES,
    varphi=PHASES,
    angles=st.tuples(THETAS, PHASES, THETAS, PHASES),
    s1=COUPLINGS,
    s2=COUPLINGS,
    n_max=st.sampled_from([12, 40]),
)
def test_branches_on_ecs_match_tensor_oracle(r, mu, varphi, angles, s1, s2, n_max):
    """The factored kernel on the probe equals the explicit two-meter evolution."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        ecs = build_ecs(EcsParams(r, mu, varphi), fock.FockCutoff(n_max, n_max))
    raw = apply_displacement_branches(ecs, WeakValueParams(*angles), CouplingParams(s1, s2))
    expected = oracles.brute_force_raw_pointer(r, mu, varphi, *angles, s1, s2, n_max)
    assert np.max(np.abs(raw.amplitudes - expected)) <= 1e-13


def eight_product_reference(amp, wv, coupling, scale=0.5):
    """(omega/4) sum_k w_k D_a(+-u1) amp D_b(+-u2)^T, one branch at a time."""
    n_a, n_b = amp.shape[0] - 1, amp.shape[1] - 1
    total = np.zeros_like(amp)
    for weight, sign_a, sign_b in oracles.branch_terms(wv.theta1, wv.delta1, wv.theta2, wv.delta2):
        d_a = fock.displacement_matrix(sign_a * scale * coupling.s1, n_a).matrix
        d_b = fock.displacement_matrix(sign_b * scale * coupling.s2, n_b).matrix
        total += weight * (d_a @ amp @ d_b.T)
    return 0.25 * oracles.meter_overlap(wv.theta1, wv.theta2) * total


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    support=st.sampled_from(["dense", "row", "column", "row_and_column", "one_inside"]),
    dims=st.sampled_from([(12, 12), (40, 40), (13, 9)]),
    angles=st.tuples(THETAS, PHASES, THETAS, PHASES),
    s1=COUPLINGS,
    s2=COUPLINGS,
)
def test_branches_match_eight_product_reference(seed, support, dims, angles, s1, s2):
    """Every state enters the kernel as the factor pair (amplitudes, identity)
    and equals the branch sum, whatever its support: dense, row 0 or column 0
    alone (such as e0 (x) v), both, or both plus the interior cell (1, 1)."""
    rng = np.random.default_rng(seed)
    shape = (dims[0] + 1, dims[1] + 1)
    amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if support != "dense":
        keep = np.zeros(shape, dtype=bool)
        keep[0, :] = support in ("row", "row_and_column", "one_inside")
        keep[:, 0] |= support in ("column", "row_and_column", "one_inside")
        keep[1, 1] = support == "one_inside"
        amp = np.where(keep, amp, 0.0)
    amp /= np.linalg.norm(amp)
    state = fock.TwoModeState(amp)
    wv, coupling = WeakValueParams(*angles), CouplingParams(s1, s2)
    out = apply_displacement_branches(state, wv, coupling)
    expected = eight_product_reference(amp, wv, coupling)
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-13


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    r=st.floats(0.0, 1.5),
    mu=PHASES,
    varphis=st.lists(PHASES, min_size=1, max_size=7),
    angles=st.tuples(THETAS, PHASES, THETAS, PHASES),
    s1=COUPLINGS,
    s2=COUPLINGS,
    n_max=st.sampled_from([12, 40]),
)
def test_family_slices_match_dense_route(r, mu, varphis, angles, s1, s2, n_max):
    """Each member of one _pointer_factors call on a stack of probes, raw and
    post-selected, equals the per-phase route build_ecs ->
    apply_displacement_branches -> build_pointer_state, and each raw member
    equals the explicit two-meter evolution at its phase."""
    cutoff = fock.FockCutoff(n_max, n_max)
    wv, coupling = WeakValueParams(*angles), CouplingParams(s1, s2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        left = ecs_factors(EcsParams(r, mu), cutoff)[0]
        right = np.stack([ecs_factors(EcsParams(r, mu, v), cutoff)[1] for v in varphis])
        arm, mixed = measurement._pointer_factors(left, right, wv, coupling)
        assert mixed.shape == (len(varphis), n_max + 1, 2)
        raw = arm @ mixed.swapaxes(-1, -2)
        for k, varphi in enumerate(varphis):
            ecs = build_ecs(EcsParams(r, mu, varphi), cutoff)
            dense_raw = apply_displacement_branches(ecs, wv, coupling).amplitudes
            outcome = build_pointer_state(ecs, wv, coupling)
            assert np.max(np.abs(raw[k] - dense_raw)) <= 1e-13
            expected = oracles.brute_force_raw_pointer(r, mu, varphi, *angles, s1, s2, n_max)
            assert np.max(np.abs(raw[k] - expected)) <= 1e-13
            selected = measurement._post_select(raw[k])
            assert np.max(np.abs(selected.state.amplitudes - outcome.state.amplitudes)) <= 1e-13
            assert abs(selected.success_probability - outcome.success_probability) <= 1e-13


@settings(deadline=None, derandomize=True, max_examples=30)
@given(
    r=st.floats(0.0, 1.5),
    mu=PHASES,
    varphis=st.lists(PHASES, min_size=2, max_size=7),
    angles=st.tuples(THETAS, PHASES, THETAS, PHASES),
    s1=COUPLINGS,
    s2=COUPLINGS,
    n_max=st.sampled_from([12, 40]),
)
def test_one_point_factors_equal_their_slot_in_a_batch(r, mu, varphis, angles, s1, s2, n_max):
    """A finite-difference member and a one-point library call build
    bit-identical factors: each member of one _pointer_factors call on a
    stack of probes equals, with np.array_equal, the call on that member
    alone; and the one-point pointer grid behind pointer_outcome is exactly
    the product of the factors of its probe."""
    cutoff = fock.FockCutoff(n_max, n_max)
    wv, coupling = WeakValueParams(*angles), CouplingParams(s1, s2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        left = ecs_factors(EcsParams(r, mu), cutoff)[0]
        right = np.stack([ecs_factors(EcsParams(r, mu, v), cutoff)[1] for v in varphis])
        fac_a, fac_b = measurement._pointer_factors(left, right, wv, coupling)
        for k in range(len(varphis)):
            one_a, one_b = measurement._pointer_factors(left, right[k], wv, coupling)
            assert np.array_equal(one_a, fac_a)
            assert np.array_equal(one_b, fac_b[k])
        config = default_config(ecs=EcsParams(r, mu, varphis[0]), wv=wv, coupling=coupling)
        probe_l, probe_r = ecs_factors(config.ecs, cutoff)
        one_a, one_b = measurement._pointer_factors(probe_l, probe_r, wv, coupling)
        raw = config.raw_pointer_state(cutoff=cutoff).amplitudes
        assert np.array_equal(raw, one_a @ one_b.T)
        assert config.pointer_outcome(cutoff=cutoff).success_probability == float(np.vdot(raw, raw).real)


def dense_derivative_qfi(config, cutoff=CUT40):
    """QFI with the varphi derivative built as a dense grid, i beta N e0 (x) b^dag c_b
    with b^dag truncated, and pushed through the meter operators on its own."""
    ecs, wv, coupling = config.ecs, config.wv, config.coupling
    raw0 = apply_displacement_branches(config.ecs_state(cutoff=cutoff), wv, coupling).amplitudes
    beta = ecs.alpha * cmath.exp(1j * ecs.varphi)
    col_b = fock.coherent_column(beta, cutoff.n_max_b)
    lifted = np.zeros((cutoff.dim_a, cutoff.dim_b), dtype=complex)
    lifted[0, 1:] = np.sqrt(np.arange(1.0, cutoff.dim_b)) * col_b[:-1]
    dphi = fock.TwoModeState(1j * beta * ecs.normalization * lifted)
    draw = apply_displacement_branches(dphi, wv, coupling).amplitudes
    kappa = 1.0 / np.linalg.norm(raw0)
    psi, dpsi = kappa * raw0, kappa * draw
    return 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    r=st.floats(0.0, 1.5),
    mu=PHASES,
    varphi=PHASES,
    angles=st.tuples(THETAS, PHASES, THETAS, PHASES),
    s1=COUPLINGS,
    s2=COUPLINGS,
)
def test_qfi_analytic_matches_dense_derivative(r, mu, varphi, angles, s1, s2):
    """The closed-form QFI is the QFI of the dense derivative grid at cutoff
    40, where every drawn state has converged."""
    config = default_config(ecs=EcsParams(r, mu, varphi), wv=WeakValueParams(*angles), coupling=CouplingParams(s1, s2))
    q = qfi_analytic(config)
    expected = dense_derivative_qfi(config)
    assert abs(q - expected) <= 1e-12 * abs(expected) + 1e-15


STRONG_THETAS = st.floats(-6.0, -2.0).map(lambda e: math.pi - 10.0**e)
WEAK_COUPLINGS = st.floats(-4.0, 0.5).map(lambda e: 10.0**e)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    r=st.floats(0.0, 2.0),
    mu=PHASES,
    varphi=PHASES,
    angles=st.tuples(STRONG_THETAS, PHASES, STRONG_THETAS, PHASES),
    s1=WEAK_COUPLINGS,
    s2=WEAK_COUPLINGS,
)
def test_qfi_analytic_matches_dense_derivative_under_strong_post_selection(r, mu, varphi, angles, s1, s2):
    """Near theta = pi the meters' k+ and k- nearly cancel, and P_s falls
    towards the floor; the closed form keeps 12 digits there."""
    config = default_config(
        ecs=EcsParams(r, mu, varphi), wv=WeakValueParams(*angles), coupling=CouplingParams(s1, s2)
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            config.pointer_outcome()
        except DegeneratePostSelectionError:
            assume(False)
    assume(not caught)
    expected = dense_derivative_qfi(config)
    assert abs(qfi_analytic(config) - expected) <= 1e-12 * abs(expected)

