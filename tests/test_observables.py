"""Tests for squeezing, Wigner, correlation, and metrology diagnostics.

Closed forms for coherent-state inputs (Gaussian Wigner profile, product
moments, number variance) serve as independent oracles throughout.
"""

import cmath
import gc
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ecsim import fock, measurement, observables, sweep
from ecsim.config import RangeSpec, WeakMeasurementConfig, default_config
from ecsim.errors import DegeneratePostSelectionError, NumericalRangeError, TruncationWarning
from ecsim.measurement import (
    CouplingParams,
    EcsParams,
    WeakValueParams,
    build_ecs,
    build_pointer_state,
    ecs_factors,
)
from ecsim.coherent import qcrb
from ecsim.observables import (
    RANGE_TOL,
    WignerGrid,
    _richardson,
    hz_correlation,
    joint_wigner_grid,
    qfi_analytic,
    qfi_finite_difference,
    squeezing_report,
)

CUT40 = fock.FockCutoff(40, 40)
HALF_PI = 0.5 * math.pi


def random_normalized(rng, cutoff):
    amp = rng.normal(size=(cutoff.dim_a, cutoff.dim_b)) + 1j * rng.normal(
        size=(cutoff.dim_a, cutoff.dim_b)
    )
    amp /= np.linalg.norm(amp)
    return fock.TwoModeState(amp)


def vacuum_state(cutoff):
    """|0, 0> on the given truncated basis."""
    return fock.TwoModeState(np.pad([[1.0]], ((0, cutoff.n_max_a), (0, cutoff.n_max_b))))


def product_coherent(alpha, beta, cutoff=CUT40):
    amp = np.outer(
        fock.coherent_column(alpha, cutoff.n_max_a),
        fock.coherent_column(beta, cutoff.n_max_b),
    )
    return fock.TwoModeState(amp)


def product_coherent_squeezing(alpha, beta, theta_big):
    """Closed-form sum squeezing of |alpha>|beta> from first moments."""
    phase = cmath.exp(-1j * theta_big)
    numerator = (
        (phase * phase * alpha**2 * beta**2).real
        - 2.0 * ((phase * alpha * beta).real) ** 2
        + abs(alpha) ** 2 * abs(beta) ** 2
    )
    return 2.0 * numerator / (abs(alpha) ** 2 + abs(beta) ** 2 + 1.0)


def wigner_at(state, gamma, beta):
    """P_J at a complex (gamma, beta): the first cell of a two-point
    joint_wigner_grid of the state rotated by diag(e^{-i phi n}) on each
    mode, with gamma = e^{i phi_a} t_a, beta = e^{i phi_b} t_b, phi = arg mod
    pi and t real.  Each axis's second point is the next float after t, so
    the range check of the grid is, to rounding, the check at (gamma, beta).
    """
    arms, rotations = [], []
    for z, dim in ((gamma, state.cutoff.dim_a), (beta, state.cutoff.dim_b)):
        angle = cmath.phase(z)
        phi = angle % math.pi
        t = abs(z) if angle == phi else -abs(z)
        arms.append(RangeSpec(t, math.nextafter(t, math.inf), 2))
        rotations.append(np.exp(-1j * phi * np.arange(dim)))
    rotated = rotations[0][:, None] * state.amplitudes * rotations[1]
    grid = joint_wigner_grid(fock.TwoModeState(rotated), *arms)
    return float(grid.values[0, 0])


def test_squeezing_vacuum_is_zero():
    state = vacuum_state(fock.FockCutoff(5, 5))
    for theta_big in (0.0, HALF_PI, 1.0):
        report = squeezing_report(state, theta_big)
        assert abs(report.s2s_direct) < 1e-14
        assert abs(report.s2s_normal_ordered) < 1e-14


def test_squeezing_two_forms_agree_on_random_states():
    rng = np.random.default_rng(1234)
    cut = fock.FockCutoff(12, 12)
    for _ in range(30):
        state = random_normalized(rng, cut)
        theta_big = rng.uniform(0.0, 2.0 * math.pi)
        report = squeezing_report(state, theta_big)
        direct, normal = report.s2s_direct, report.s2s_normal_ordered
        assert abs(direct - normal) < 1e-9
        assert direct >= -1.0 - 1e-9


def test_squeezing_product_coherent_closed_form():
    alpha = 0.3 + 0.1j
    beta = 0.2 - 0.25j
    for theta_big in (0.0, HALF_PI, 2.1):
        expected = product_coherent_squeezing(alpha, beta, theta_big)
        state = product_coherent(alpha, beta)
        report = squeezing_report(state, theta_big)
        assert abs(report.s2s_direct - expected) < 1e-10
        assert abs(report.s2s_normal_ordered - expected) < 1e-10


def test_squeezing_probe_state_is_zero():
    state = build_ecs(EcsParams(0.1, HALF_PI, HALF_PI), CUT40)
    report = squeezing_report(state, HALF_PI)
    assert abs(report.s2s_direct) < 1e-9
    assert abs(report.s2s_normal_ordered) < 1e-9
    assert report.theta_big == HALF_PI


def test_squeezing_report_rejects_a_non_finite_angle():
    # As WeakMeasurementConfig does for its theta_big.
    state = vacuum_state(fock.FockCutoff(5, 5))
    for theta_big in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="theta_big must be finite"):
            squeezing_report(state, theta_big)


def test_wigner_vacuum_and_coherent_peaks():
    state = vacuum_state(fock.FockCutoff(20, 20))
    assert abs(wigner_at(state, 0.0, 0.0) - 1.0) < 1e-12
    shifted = product_coherent(0.1j, -0.3, fock.FockCutoff(20, 20))
    # Displacing back to the vacuum restores parity one.
    assert abs(wigner_at(shifted, 0.1j, -0.3) - 1.0) < 1e-10


def test_wigner_product_coherent_gaussian_profile():
    alpha, beta0 = 0.3, -0.2
    state = product_coherent(alpha, beta0)
    grid = joint_wigner_grid(state, RangeSpec(-1.0, 1.0, 9), RangeSpec(-1.0, 1.0, 9))
    for i, g in enumerate(grid.re_gamma_axis):
        for j, b in enumerate(grid.re_beta_axis):
            expected = math.exp(-2.0 * (g - alpha) ** 2) * math.exp(
                -2.0 * (b - beta0) ** 2
            )
            assert abs(grid.values[i, j] - expected) < 1e-6


def test_wigner_complex_point_gaussian():
    alpha, beta0 = 0.3, -0.2
    state = product_coherent(alpha, beta0)
    gamma = 0.1 + 0.2j
    beta = -0.4j
    expected = math.exp(-2.0 * abs(gamma - alpha) ** 2) * math.exp(
        -2.0 * abs(beta - beta0) ** 2
    )
    assert abs(wigner_at(state, gamma, beta) - expected) < 1e-9


def test_wigner_probe_origin_closed_form():
    # <P_a P_b> on the probe: N^2 (2 e^{-2 r^2} + 2 e^{-r^2}).
    r = 0.3
    state = build_ecs(EcsParams(r, HALF_PI, HALF_PI), CUT40)
    expected = (2.0 * math.exp(-2.0 * r * r) + 2.0 * math.exp(-r * r)) / (
        2.0 * (1.0 + math.exp(-r * r))
    )
    assert abs(expected - 0.9139311852712282) < 1e-14
    assert abs(wigner_at(state, 0.0, 0.0) - expected) < 1e-10


def test_wigner_bounds_on_random_states(monkeypatch):
    monkeypatch.setattr(observables, "RANGE_TOL", 2.0)
    rng = np.random.default_rng(777)
    cut = fock.FockCutoff(12, 12)
    for _ in range(10):
        state = random_normalized(rng, cut)
        for gamma, beta in ((0.0, 0.0), (0.5, -0.3), (0.2j, 0.4)):
            val = wigner_at(state, gamma, beta)
            assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9


def test_wigner_range_guard():
    state = product_coherent(0.0, 0.0, fock.FockCutoff(10, 10))
    with pytest.raises(NumericalRangeError):
        wigner_at(state, 6.0, 0.0)


def test_wigner_grid_matches_point_evaluation():
    """Each grid value and each point evaluation is the displaced parity of
    the oracle's own displacements."""
    state = build_ecs(EcsParams(0.1, HALF_PI, HALF_PI), CUT40)
    grid = joint_wigner_grid(state, RangeSpec(-0.5, 0.5, 3), RangeSpec(-0.5, 0.5, 3))
    for i, g in enumerate(grid.re_gamma_axis):
        d_a = oracles.displacement(-g, 40)
        for j, b in enumerate(grid.re_beta_axis):
            parity, _ = oracles.displaced_parity(state.amplitudes, d_a, oracles.displacement(-b, 40))
            assert abs(grid.values[i, j] - parity) < 1e-13
            assert abs(wigner_at(state, complex(g), complex(b)) - parity) < 1e-13


def test_wigner_grid_validation():
    state = vacuum_state(fock.FockCutoff(5, 5))
    with pytest.raises(ValueError):
        joint_wigner_grid(state, RangeSpec(0.0, 0.0, 1), RangeSpec(-1.0, 1.0, 3))
    with pytest.raises(ValueError):
        WignerGrid(np.zeros(3), np.zeros(3), np.zeros((2, 3)))
    far = (vacuum_state(fock.FockCutoff(10, 10)), RangeSpec(5.0, 6.0, 2), RangeSpec(0.0, 1.0, 2))
    with pytest.raises(NumericalRangeError, match=re.escape("(gamma=(5+0j), beta=0j)")):
        joint_wigner_grid(*far)


def test_hz_vacuum_and_product_coherent_vanish():
    assert abs(hz_correlation(vacuum_state(fock.FockCutoff(8, 8)))) < 1e-14
    state = product_coherent(0.4 + 0.2j, -0.3 + 0.5j)
    assert abs(hz_correlation(state)) < 1e-12


def test_hz_probe_anchor():
    for r in (0.1, 0.3, 0.5):
        state = build_ecs(EcsParams(r, HALF_PI, HALF_PI), CUT40)
        n4 = (1.0 / (2.0 * (1.0 + math.exp(-r * r)))) ** 2
        assert abs(hz_correlation(state) - n4 * r**4) < 1e-10


def test_hz_lower_bound_on_random_states():
    rng = np.random.default_rng(99)
    cut = fock.FockCutoff(10, 10)
    for _ in range(25):
        state = random_normalized(rng, cut)
        n_a = np.vdot(state.amplitudes, np.arange(11)[:, None] * state.amplitudes).real
        assert hz_correlation(state) >= -n_a - 1e-9


def test_qcrb_values_and_validation():
    assert abs(qcrb(4.0) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        qcrb(0.0)
    with pytest.raises(ValueError):
        qcrb(-1.0)
    with pytest.raises(ValueError):
        qcrb(float("nan"))


def test_qfi_coherent_family_number_variance():
    # Phase rotation of |alpha e^{i phi}> carries QFI 4 Var(n) = 4 |alpha|^2.
    def family(phi):
        amp = np.zeros((41, 41), dtype=complex)
        amp[0, :] = fock.coherent_column(0.5 * cmath.exp(1j * phi), 40)
        return amp

    q = oracles.qfi_from_family(family, 0.7)
    assert abs(q - 1.0) < 1e-6


def test_qfi_fock_family_is_zero():
    def family(phi):
        amp = np.zeros((11, 11), dtype=complex)
        amp[0, 3] = cmath.exp(3j * phi)
        return amp

    assert abs(oracles.qfi_from_family(family, 0.4)) < 1e-9


def baseline_config(r=0.1, s=0.0, **overrides):
    return default_config(
        ecs=EcsParams(r, HALF_PI, HALF_PI), coupling=CouplingParams(s, s), **overrides
    )


def test_qfi_finite_difference_matches_analytic():
    for r, s in ((0.1, 0.0), (0.3, 1.0), (0.5, 2.0)):
        config = baseline_config(r, s)
        q_fd = qfi_finite_difference(config)
        q_an = qfi_analytic(config)
        assert q_an >= -1e-9
        assert abs(q_fd - q_an) <= 1e-4 * max(abs(q_an), 1e-12)


def test_qfi_gauges_agree():
    # The parallel-component subtraction makes the value invariant under
    # any phi-dependent rescaling of the family, so both gauges coincide.
    config = baseline_config(0.3, 1.0)
    q_fixed = qfi_finite_difference(config)
    q_renorm = qfi_finite_difference(config.replace(qfi_gauge="renormalized"))
    assert abs(q_fixed - q_renorm) < 1e-6 * max(q_fixed, 1e-12)


def test_qfi_zero_amplitude_probe_carries_no_information():
    config = baseline_config(0.0, 1.0)
    assert abs(qfi_analytic(config)) < 1e-12
    assert abs(qfi_finite_difference(config)) < 1e-9


def test_qfi_zero_coupling_closed_meter_reduces_to_bare_probe():
    # With theta = 0 meters and no coupling the pointer family is the bare
    # probe family, so both QFI routes must agree with a direct
    # finite-difference on build_ecs.
    config = baseline_config(0.3, 0.0).replace(
        wv=WeakValueParams(0.0, 0.0, 0.0, 0.0)
    )

    def family(phi):
        return build_ecs(EcsParams(0.3, HALF_PI, phi), CUT40).amplitudes

    q_bare = oracles.qfi_from_family(family, HALF_PI)
    q_an = qfi_analytic(config)
    assert abs(q_an - q_bare) < 1e-6 * max(q_bare, 1e-12)


def test_qfi_step_validation_and_degenerate_guard():
    # Amplification rescues P_s at nonzero coupling, so the degenerate
    # regime needs s = 0, where P_s collapses to the meter overlap squared.
    near_pi = math.pi - 1e-8
    degenerate = baseline_config(0.3, 0.0).replace(
        wv=WeakValueParams(near_pi, HALF_PI, near_pi, HALF_PI)
    )
    with pytest.raises(DegeneratePostSelectionError):
        qfi_analytic(degenerate)
    # The message gives the smallest member's P_s, as every other route's does.
    with pytest.raises(DegeneratePostSelectionError, match=r"probability \d\.\d{3}e-\d+ below floor"):
        qfi_finite_difference(degenerate)


@pytest.mark.parametrize("qfi, gauge, warned", [
    pytest.param(lambda config, cutoff: qfi_analytic(config), "fixed-kappa", 0, id="analytic"),
    pytest.param(qfi_finite_difference, "fixed-kappa", 7, id="fd-fixed-kappa"),
    pytest.param(qfi_finite_difference, "renormalized", 7, id="fd-renormalized"),
])
def test_qfi_warns_once_per_truncated_pointer_state(qfi, gauge, warned):
    # At s = 6 and cutoff 10 the pointer state puts 0.31 of its mass on the
    # top level while the probe fits.  Each post-selected state warns once,
    # as pointer_outcome does: all seven finite-difference members in either
    # gauge.  The closed form has no Fock grid and never warns.
    config, cutoff = baseline_config(0.1, 6.0, qfi_gauge=gauge), fock.FockCutoff(10, 10)
    with pytest.warns(TruncationWarning):
        config.pointer_outcome(cutoff=cutoff)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        qfi(config, cutoff=cutoff)
    assert [w.category for w in caught] == [TruncationWarning] * warned


def test_finite_difference_qfi_builds_the_mode_a_column_once():
    # At a truncating cutoff the two coherent columns and the probe are built,
    # and warn, once each: the seven finite-difference members are turns of
    # the one probe, which keep every |R_n| and so its truncated mass.  Each
    # member's pointer tail warns on its own: 1 + 1 + 1 + 7 warnings.
    config = default_config(qfi_gauge="renormalized", ecs=EcsParams(2.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        qfi_finite_difference(config, cutoff=fock.FockCutoff(10, 10))
    assert [w.category for w in caught] == [TruncationWarning] * 10


@pytest.mark.parametrize("gauge", ["fixed-kappa", "renormalized"])
def test_finite_difference_member_warnings_give_the_dense_tail_masses(gauge):
    # The member tails come from Gram cells of the one metered probe matrix;
    # each warning's mass is the normalized top-level mass of that member's
    # dense pointer grid A X_k^T, X_k = K_b [e0, e^{i n delta_k} c_b].
    config, cutoff = baseline_config(0.1, 6.0, qfi_gauge=gauge), fock.FockCutoff(10, 10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        qfi_finite_difference(config, cutoff=cutoff)
    warned = [float(re.search(r"tail mass (\S+) exceeds", str(w.message)).group(1)) for w in caught]
    left, right = ecs_factors(config.ecs, cutoff)
    h = observables.DEFAULT_FD_STEP
    expected = []
    for delta in (0.0, h, -h, 0.5 * h, -0.5 * h, 0.25 * h, -0.25 * h):
        turned = right.copy()
        turned[:, 1] *= np.exp(1j * delta * np.arange(cutoff.dim_b))
        fac_a, fac_b = measurement._pointer_factors(left, turned, config.wv, config.coupling)
        raw = fac_a @ fac_b.T
        expected.append(oracles.top_level_mass(raw) / np.vdot(raw, raw).real)
    assert len(warned) == len(expected)
    for got, want in zip(warned, expected):
        assert abs(got - want) <= 5e-4 * want


@pytest.mark.parametrize("varphi", [0.3, 2.0, 4.1, 6.2])
def test_finite_difference_members_are_exact_turns_of_the_probe(monkeypatch, varphi):
    # The finite-difference QFI meters one probe matrix [e0, c_b, cos(n delta_k)
    # c_b, i sin(n delta_k) c_b], k = 1..3, with delta_k the step itself:
    # member +-k's column cos +- sin is R's c_b turned by e^{+-i n delta_k},
    # and columns 0 and 1 are R's bit for bit.
    config = default_config(ecs=EcsParams(0.8, HALF_PI, varphi), coupling=CouplingParams(1.0, 1.0))
    right = ecs_factors(config.ecs, CUT40)[1]
    h = observables.DEFAULT_FD_STEP
    seen = []

    def spy(left, probe, wv, coupling):
        seen.append(probe.copy())
        return measurement._pointer_factors(left, probe, wv, coupling)

    monkeypatch.setattr(observables, "_pointer_factors", spy)
    qfi_finite_difference(config)
    (probe,) = seen
    assert probe.shape == (CUT40.dim_b, 8)
    assert np.array_equal(probe[:, :2], right)
    col = right[:, 1]
    keep = np.abs(col) > 1e-200
    for k, delta in enumerate([h, 0.5 * h, 0.25 * h]):
        cos, sin = probe[:, 2 + 2 * k], probe[:, 3 + 2 * k]
        for sign in (1.0, -1.0):
            expected = np.exp(sign * 1j * delta * np.arange(CUT40.dim_b)) * col
            gap = np.abs(cos + sign * sin - expected)[keep] / np.abs(expected)[keep]
            assert gap.max() <= 2e-15


@pytest.mark.parametrize("gauge", ["fixed-kappa", "renormalized"])
def test_finite_difference_qfi_of_a_large_probe_needs_a_large_cutoff(gauge):
    # At cutoff 40 the r = 6 probe is truncated: the finite differences warn
    # and read 1024.38.  At cutoff 120 they agree with the closed form, which
    # needs no cutoff, and nothing warns.
    config = baseline_config(6.0, 1.0, qfi_gauge=gauge)
    with pytest.warns(TruncationWarning):
        assert f"{qfi_finite_difference(config):.2f}" == "1024.38"
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        q_fd = qfi_finite_difference(config, cutoff=fock.FockCutoff(120, 120))
    assert q_fd == pytest.approx(1434.445668871303, rel=1e-7)
    assert qfi_analytic(config) == 1434.445668871303


def test_tail_mass_of_factors_is_the_dense_top_level_mass():
    # A single factor against a stack and a stack against a stack (the
    # Wigner grid): each mass equals
    # oracles.top_level_mass of the dense product A @ X_k^T, corner cell once.
    rng = np.random.default_rng(29)

    def factors(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    single, members = factors(9, 2), factors(7, 6, 2)
    stack = factors(3, 9, 2)
    for fac_a, dense in (
        (single, single @ members.swapaxes(-1, -2)),
        (stack, stack[:, None] @ members.swapaxes(-1, -2)),
    ):
        masses = observables._tail_mass(fac_a, members, observables._gram(members, members))
        expected = oracles.top_level_mass(dense)
        assert masses.shape == expected.shape
        assert np.allclose(masses, expected, rtol=1e-13, atol=0.0)


def test_checked_richardson_contracts_and_rejects():
    # O(h^2) estimates at h = 1e-5, h/2, h/4 contract and pass.
    q, tripped = _richardson(*(1.0 + 1e6 * (1e-5 * k) ** 2 for k in (1.0, 0.5, 0.25)))
    assert abs(q - (1.0 + 1e6 * 2.5e-11)) < 1e-15
    assert tripped is False
    assert _richardson(1.001, 0.999, 1.001) == (0.999, True)
    q, tripped = _richardson(math.nan, math.nan, math.nan)
    assert math.isnan(q)
    assert tripped is False


def test_tripped_richardson_check_raises(monkeypatch):
    # A point whose finite differences fail the Richardson check is refused,
    # in either gauge, never returned as a number.
    monkeypatch.setattr(observables, "_richardson", lambda *q: (q[1], True))
    for gauge in ("fixed-kappa", "renormalized"):
        with pytest.raises(NumericalRangeError, match="cancellation-dominated"):
            qfi_finite_difference(baseline_config(0.3, 1.0, qfi_gauge=gauge))


# Property tests of the Gram route the sweeps take: every column of a sweep
# is compared with two references, the dense route (build_pointer_state and
# the TwoModeState observables) and the explicit qubit x qubit x Fock tensor
# construction of oracles.py.

PHASES = st.floats(0.0, 2.0 * math.pi)
THETAS = st.floats(0.0, 0.9 * math.pi)
COUPLINGS = st.floats(0.0, 3.0)
GRAM_TOL = 1e-13


def axis_range(lo, hi):
    """One or two points in [lo, hi]."""

    def build(drawn):
        a, b, two = drawn
        a, b = min(a, b), max(a, b)
        return RangeSpec(a, b, 2) if two and b - a > 1e-3 else RangeSpec(a, a, 1)

    return st.tuples(st.floats(lo, hi), st.floats(lo, hi), st.booleans()).map(build)


WIGNER_AXIS = st.tuples(st.floats(-3.0, 3.0), st.floats(0.1, 3.0), st.integers(2, 3)).map(
    lambda drawn: RangeSpec(drawn[0], drawn[0] + drawn[1], drawn[2])
)


def reference_states(config, s1, s2):
    """(state, P_s) at coupling (s1, s2) by the dense route and by the tensor oracle, at cutoff 40."""
    ecs, wv = config.ecs, config.wv
    dense = build_pointer_state(config.ecs_state(cutoff=CUT40), wv, CouplingParams(s1, s2))
    amp, p_s = oracles.brute_force_pointer(
        ecs.r, ecs.mu, ecs.varphi, wv.theta1, wv.delta1, wv.theta2, wv.delta2, s1, s2,
        CUT40.n_max_a,
    )
    return [(dense.state, dense.success_probability), (fock.TwoModeState(amp), p_s)]


def truncated_reference(config, s1, s2):
    """Whether the dense probe at cutoff 40, or its pointer state at (s1, s2),
    puts more than the tail tolerance on its top Fock level."""
    probe = config.ecs_state(cutoff=CUT40)
    outcome = build_pointer_state(probe, config.wv, CouplingParams(s1, s2))
    masses = oracles.top_level_mass(probe.amplitudes), oracles.top_level_mass(outcome.state.amplitudes)
    return max(masses) > fock.TAIL_TOL


def gram_config(r, mu, varphi, angles, **changes):
    return default_config(ecs=EcsParams(r, mu, varphi), wv=WeakValueParams(*angles), **changes)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    r=st.floats(0.0, 1.5),
    mu=PHASES,
    varphi=PHASES,
    angles=st.tuples(THETAS, PHASES, THETAS, PHASES),
    theta_big=PHASES,
    s1=axis_range(0.0, 3.0),
    s2=axis_range(0.0, 3.0),
    theta=axis_range(0.0, 0.9 * math.pi),
)
def test_gram_sweep_columns_match_dense_and_tensor_references(r, mu, varphi, angles, theta_big, s1, s2, theta):
    """P_s over (s, theta), both squeezing routes and E over (s1, s2) of the
    closed-form sweeps, against both references at cutoff 40, where every
    drawn state has converged."""
    config = gram_config(r, mu, varphi, angles, theta_big=theta_big)
    for s, th, p_s in sweep.cmd_probability(config, s1, theta).rows:
        at = config.replace(wv=WeakValueParams(th, angles[1], th, angles[3]))
        assert not truncated_reference(at, s, s)
        for _, expected in reference_states(at, s, s):
            assert abs(p_s - expected) <= GRAM_TOL
    squeezing = sweep.cmd_squeezing(config, s1, s2).rows
    hz = sweep.cmd_hz(config, s1, s2).rows
    assert [row[:2] for row in squeezing] == [row[:2] for row in hz]
    for (a, b, direct, normal), (_, _, e_val, flag) in zip(squeezing, hz):
        assert not truncated_reference(config, a, b)
        for state, _ in reference_states(config, a, b):
            report = squeezing_report(state, theta_big)
            assert abs(direct - report.s2s_direct) <= GRAM_TOL
            assert abs(normal - report.s2s_normal_ordered) <= GRAM_TOL
            assert abs(e_val - hz_correlation(state)) <= GRAM_TOL
        assert flag == int(e_val < 0.0)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    r=st.floats(0.0, 1.5),
    mu=PHASES,
    varphi=PHASES,
    angles=st.tuples(THETAS, PHASES, THETAS, PHASES),
    s1=COUPLINGS,
    s2=COUPLINGS,
    re_gamma=WIGNER_AXIS,
    re_beta=WIGNER_AXIS,
)
def test_gram_wigner_matches_dense_and_tensor_references(r, mu, varphi, angles, s1, s2, re_gamma, re_beta):
    """Every P_J value of the closed-form sweep against the untruncated
    oracle, and of joint_wigner_grid, with its range check at every point,
    against the displaced parity of both reference states at cutoff 40 with
    the oracle's own displacements.  The sweep has no Fock grid and no range
    check."""
    config = gram_config(r, mu, varphi, angles, coupling=CouplingParams(s1, s2))
    gammas, betas = re_gamma.values(), re_beta.values()
    rows = sweep.cmd_wigner(config, re_gamma, re_beta).rows
    point = (r, mu, varphi, *angles, s1, s2)
    for g, b, p_j in rows:
        assert abs(p_j - oracles.exact_moments(*point, gamma=g, beta=b, names=("parity",))["parity"].real) <= GRAM_TOL
    references = reference_states(config, s1, s2)
    d_a = [oracles.displacement(-g, 40) for g in gammas]
    d_b = [oracles.displacement(-b, 40) for b in betas]
    values, failing = np.zeros((len(gammas), len(betas))), []
    for i, g in enumerate(gammas):
        for j, b in enumerate(betas):
            (values[i, j], mass), (parity, tensor_mass) = (
                oracles.displaced_parity(state.amplitudes, d_a[i], d_b[j]) for state, _ in references
            )
            assert abs(values[i, j] - parity) <= GRAM_TOL
            assert (mass > RANGE_TOL) == (tensor_mass > RANGE_TOL)
            if mass > RANGE_TOL:
                failing.append((complex(g), complex(b)))
    if failing:
        first = re.escape(f"gamma={failing[0][0]}, beta={failing[0][1]})")
        with pytest.raises(NumericalRangeError, match=first):
            joint_wigner_grid(references[0][0], re_gamma, re_beta)
    else:
        grid = joint_wigner_grid(references[0][0], re_gamma, re_beta)
        assert np.max(np.abs(grid.values - values)) <= GRAM_TOL


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    r=st.floats(0.0, 1.5),
    mu=PHASES,
    varphi=PHASES,
    angles=st.tuples(THETAS, PHASES, THETAS, PHASES),
    s1=COUPLINGS,
    s2=COUPLINGS,
    gamma=st.complex_numbers(max_magnitude=2.0),
    beta=st.complex_numbers(max_magnitude=2.0),
    n_max=st.sampled_from([12, 40]),
)
def test_wigner_point_matches_oracle_at_complex_displacements(
    r, mu, varphi, angles, s1, s2, gamma, beta, n_max
):
    """P_J at a complex (gamma, beta), read by wigner_at as a real point of
    the rotated state: its value, and its range check, against the displaced
    parity of the tensor oracle's pointer state."""
    amp, _ = oracles.brute_force_pointer(r, mu, varphi, *angles, s1, s2, n_max)
    state = fock.TwoModeState(amp)
    parity, mass = oracles.displaced_parity(
        amp, oracles.displacement(-gamma, n_max), oracles.displacement(-beta, n_max)
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(observables, "RANGE_TOL", 2.0)
        assert abs(wigner_at(state, gamma, beta) - parity) <= GRAM_TOL
    if mass > RANGE_TOL:
        with pytest.raises(NumericalRangeError):
            wigner_at(state, gamma, beta)
    else:
        wigner_at(state, gamma, beta)


def test_gram_sweeps_keep_the_dense_accuracy_under_strong_post_selection():
    """At theta = 0.999 pi, P_s falls to 6e-12 at zero coupling, and the
    branches cancel almost completely.  Each column stays within rounding of
    the dense route, relative to P_s for P_s itself."""
    theta = 0.999 * math.pi
    config = default_config(
        ecs=EcsParams(0.5, 0.3, 1.1), wv=WeakValueParams(theta, 0.7, theta, 2.0)
    )
    grid = RangeSpec(0.0, 0.6, 4)
    squeezing = sweep.cmd_squeezing(config, grid, grid).rows
    hz = sweep.cmd_hz(config, grid, grid).rows
    for (s1, s2, direct, normal), (_, _, e_val, _) in zip(squeezing, hz):
        state = config.replace(coupling=CouplingParams(s1, s2)).pointer_outcome().state
        report = squeezing_report(state, config.theta_big)
        assert abs(direct - report.s2s_direct) <= GRAM_TOL
        assert abs(normal - report.s2s_normal_ordered) <= GRAM_TOL
        assert abs(e_val - hz_correlation(state)) <= GRAM_TOL
    for s, _, p_s in sweep.cmd_probability(config, grid, RangeSpec(theta, theta, 1)).rows:
        expected = config.replace(coupling=CouplingParams(s, s)).pointer_outcome().success_probability
        assert abs(p_s - expected) <= GRAM_TOL * expected


@settings(deadline=None, derandomize=True, max_examples=25)
@given(
    r=st.floats(0.0, 1.0),
    mu=PHASES,
    varphi=PHASES,
    angles=st.tuples(THETAS, PHASES, THETAS, PHASES),
    s1=st.floats(0.0, 1.5),
    s2=st.floats(0.0, 1.5),
)
def test_qfi_matches_the_tensor_oracle_family(r, mu, varphi, angles, s1, s2):
    """qfi_analytic and both finite-difference gauges against the central
    difference of the tensor oracle's normalized pointer family, which is
    not phase-fixed."""
    config, cutoff = gram_config(r, mu, varphi, angles, coupling=CouplingParams(s1, s2)), fock.FockCutoff(12, 12)

    def family(phi):
        amp = oracles.brute_force_raw_pointer(r, mu, phi, *angles, s1, s2, 12)
        return amp / np.linalg.norm(amp)

    expected = oracles.qfi_from_family(family, config.ecs.varphi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        values = [
            qfi_analytic(config),
            qfi_finite_difference(config, cutoff=cutoff),
            qfi_finite_difference(config.replace(qfi_gauge="renormalized"), cutoff=cutoff),
        ]
    for q in values:
        assert abs(q - expected) <= 1e-7 * abs(expected) + 1e-12


@settings(deadline=None, derandomize=True, max_examples=10)
@given(
    r=axis_range(0.0, 1.0),
    s=axis_range(0.0, 1.5),
    mu=PHASES,
    varphi=PHASES,
    angles=st.tuples(THETAS, PHASES, THETAS, PHASES),
    gauge=st.sampled_from(["fixed-kappa", "renormalized"]),
)
def test_cmd_qcrb_rows_equal_the_one_point_library_calls(r, s, mu, varphi, angles, gauge):
    # The sweep prints the closed-form QFI under either gauge: the gauge picks
    # only the scaling of the library's finite-difference QFI.
    config = gram_config(0.5, mu, varphi, angles, qfi_gauge=gauge)
    for r_value, s_value, q, _ in sweep.cmd_qcrb(config, r, s).rows:
        at = config.replace(ecs=EcsParams(r_value, mu, varphi), coupling=CouplingParams(s_value, s_value))
        assert q == qfi_analytic(at)


def test_distinct_points_leave_no_displacement_memory_behind():
    # No per-amplitude data may outlive a call: a cache of the dense 41 x 41
    # displacements these 100 points use would keep about 10 MB.
    rng = np.random.default_rng(29)
    configs = [
        default_config(
            ecs=EcsParams(rng.uniform(0.05, 1.0), rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)),
            wv=WeakValueParams(
                rng.uniform(0.0, 0.9 * math.pi), rng.uniform(0.0, 2 * math.pi),
                rng.uniform(0.0, 0.9 * math.pi), rng.uniform(0.0, 2 * math.pi),
            ),
            coupling=CouplingParams(rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)),
        )
        for _ in range(100)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for config in configs:
                try:
                    config.pointer_outcome()
                    qfi_analytic(config)
                    qfi_finite_difference(config.replace(qfi_gauge="renormalized"))
                except (DegeneratePostSelectionError, NumericalRangeError):
                    pass
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2_000_000
