"""Tests of the closed-form coherent-state Grams that the sweeps run on.

The closed form is held to two independent references: the untruncated
40-digit oracle (oracles.exact_moments), and the library's dense Fock route
(pointer_outcome, then squeezing_report, hz_correlation and
joint_wigner_grid), which the sweeps no longer share any code with.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from golden_cases import cell_bound
from ecsim import coherent, fock, sweep
from ecsim.config import RangeSpec, default_config
from ecsim.fock import FockCutoff
from ecsim.measurement import CouplingParams, EcsParams, WeakValueParams, ecs_factors
from ecsim.observables import (
    hz_correlation,
    joint_wigner_grid,
    qfi_analytic,
    qfi_finite_difference,
    squeezing_report,
)
from ecsim.params import _meter_rows

TWO_PI = 2.0 * math.pi

# Worst relative error seen against the oracle on 360 such draws: 7.6e-16
# for P_s, and 6.8e-16 of max(1, |moment|) for the other moments.
ORACLE_TOL = 1e-14


def closed_form_moments(r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2, gamma, beta):
    """The moments of oracles.MOMENTS from coherent's Grams: P_s raw, the rest normalized."""
    row_a, row_b = _meter_rows(WeakValueParams(theta1, delta1, theta2, delta2))
    side_a, side_b = coherent.probe_sides(EcsParams(r, mu, varphi))
    keys = ("1", "n", "a", "aa")
    g_a, g_b = coherent.side_grams(row_a, s1, side_a, keys), coherent.side_grams(row_b, s2, side_b, keys)
    p_s = coherent.contract(g_a["1"], g_b["1"]).real
    moments = {name: coherent.contract(g_a[op_a], g_b[op_b]) / p_s
               for name, (op_a, op_b) in oracles.MOMENTS.items() if name not in ("P_s", "parity")}
    parity = coherent.contract(coherent.parity_grams(row_a, s1, side_a, [gamma])[0],
                               coherent.parity_grams(row_b, s2, side_b, [beta])[0])
    return dict(moments, P_s=p_s, parity=parity / p_s)


# theta_i either anywhere in [0.05, 0.95] pi, or pi - 10^-(2..6), the strong
# post-selection where the branches nearly cancel.
NEAR_PI = st.floats(2.0, 6.0).map(lambda e: math.pi - 10.0 ** -e)
THETA = st.one_of(st.floats(0.05 * math.pi, 0.95 * math.pi), NEAR_PI)
COUPLING = st.one_of(st.floats(0.0, 3.0), st.floats(-4.0, 0.5).map(lambda e: 10.0**e))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    r=st.floats(0.0, 2.0),
    phases=st.tuples(*[st.floats(0.0, TWO_PI)] * 4),
    thetas=st.tuples(THETA, THETA),
    s1=COUPLING,
    s2=COUPLING,
    gamma=st.floats(-2.0, 2.0),
    beta=st.floats(-2.0, 2.0),
)
def test_moments_match_the_untruncated_oracle(r, phases, thetas, s1, s2, gamma, beta):
    """P_s, <N_a>, <N_b>, <a b>, <a^2 b^2>, <N_a N_b> and the displaced joint
    parity, down to P_s = 1e-12."""
    mu, varphi, delta1, delta2 = phases
    point = (r, mu, varphi, thetas[0], delta1, thetas[1], delta2, s1, s2)
    exact = oracles.exact_moments(*point, gamma=gamma, beta=beta)
    assume(exact["P_s"].real >= 1e-12)
    closed = closed_form_moments(*point, gamma, beta)
    assert abs(closed["P_s"] - exact["P_s"].real) <= ORACLE_TOL * exact["P_s"].real
    for name, value in exact.items():
        if name != "P_s":
            assert abs(closed[name] - value) <= ORACLE_TOL * max(1.0, abs(value)), name


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    r=st.floats(0.0, 2.0),
    phases=st.tuples(*[st.floats(0.0, TWO_PI)] * 3),
    theta=THETA,
    s=COUPLING,
)
def test_phase_derivative_grams_match_the_dense_fock_grams(r, phases, theta, s):
    """side_grams' keys d and dd of mode b are the dense Grams X^dag (i K n R)
    and (K n R)^dag (K n R) of the probe's factor R at cutoff 60, X = K R,
    entry by entry, the vacuum column's exact zeros included."""
    mu, varphi, delta = phases
    ecs = EcsParams(r, mu, varphi)
    _, row = _meter_rows(WeakValueParams(0.0, 0.0, theta, delta))
    right = ecs_factors(ecs, FockCutoff(60, 60))[1]
    # R holds the probe's shared vacuum cell N (c_a[0] + c_b[0]); the side's
    # column is N|beta> alone, so take mode a's share back out.
    right[0, 1] -= ecs.normalization * fock.coherent_column(ecs.alpha, 60)[0]
    x, k_n_r = fock.meter([0.5 * s], row, np.stack([right, fock.levels(61)[0][:, None] * right]))[0]
    dense = {"d": (x.conj().T @ (1j * k_n_r)).ravel(), "dd": (k_n_r.conj().T @ k_n_r).ravel()}
    closed = coherent.side_grams(row, s, coherent.probe_sides(ecs)[1], ("d", "dd"))
    for key, vacuum in (("d", (0, 2)), ("dd", (0, 1, 2))):
        for got, want in zip(closed[key], dense[key].tolist()):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), key
        assert all(closed[key][i] == dense[key][i] == 0.0 for i in vacuum), key


@pytest.mark.parametrize("r", [0.1, 1.0, 3.0])
@pytest.mark.parametrize("s1", [0.5, 30.0])
def test_pointer_qfi_keeps_its_digits_at_huge_couplings(r, s1):
    # From s2 of about 10 on, mode b's meter branches no longer overlap and Q
    # stops moving.  The derivative Grams keep their digits there because
    # they are built from _slopes; the same Grams by the ladder shift rules
    # cancel, and Q reads -2.5e-5 for 0.0101 at r = 0.1, s1 = s2 = 1e150.
    config = default_config()
    ecs = EcsParams(r, config.ecs.mu, config.ecs.varphi)
    limit = coherent.pointer_qfi(ecs, config.wv, CouplingParams(s1, 30.0))
    for s2 in (1e4, 1e8, 1e150):
        assert abs(coherent.pointer_qfi(ecs, config.wv, CouplingParams(s1, s2)) - limit) <= 1e-14 * limit, s2


def dense_outcome(config, s1, s2):
    return config.replace(coupling=CouplingParams(s1, s2)).pointer_outcome()


def default_rows(command, config):
    spec = sweep._COMMANDS[command]
    return spec["runner"](config, *(spec["defaults"][axis] for axis in spec["axes"])).rows


@pytest.mark.parametrize("keys, builds", [
    (("1",), 3), (("1", "n", "dd"), 3), (("1", "d", "dd"), 4), (("1", "n", "a", "aa"), 4),
])
def test_hermitian_grams_take_their_lower_cell_from_the_upper(monkeypatch, keys, builds):
    # When every key is Hermitian (1, n, dd), G_10 is conj(G_01) and takes no
    # _basis call; any other key builds all four cells.  Either way each
    # Hermitian key's G_10 agrees with a full build to rounding.
    row, side = _meter_rows(WeakValueParams(0.7, 1.1, 2.3, 0.4))[1], coherent.probe_sides(EcsParams(0.9, 0.3, 2.2))[1]
    full = coherent.side_grams(row, 1.3, side, ("1", "n", "dd", "a"))
    calls = []
    real = coherent._basis
    monkeypatch.setattr(coherent, "_basis", lambda *args: calls.append(args) or real(*args))
    grams = coherent.side_grams(row, 1.3, side, keys)
    assert len(calls) == builds
    for key in set(keys) & {"1", "n", "dd"}:
        g_01, g_10 = grams[key][1:3]
        if builds == 3:
            assert g_10 == g_01.conjugate()
        assert abs(g_10 - full[key][2]) <= 1e-15 * max(1.0, abs(g_10))


@pytest.mark.parametrize("command", ["probability", "squeezing", "hz"])
def test_default_grid_rows_match_the_dense_route(command):
    """Every default-grid row of the CLI command within the golden bound of
    the dense library value at its point, cutoff 40."""
    config = default_config()
    for row in default_rows(command, config):
        if command == "probability":
            s, theta, p_s = row
            at = config.replace(wv=WeakValueParams(theta, config.wv.delta1, theta, config.wv.delta2))
            expected = [dense_outcome(at, s, s).success_probability]
        else:
            state = dense_outcome(config, *row[:2]).state
            report = squeezing_report(state, config.theta_big)
            expected = [report.s2s_direct, report.s2s_normal_ordered] if command == "squeezing" else [hz_correlation(state)]
        for got, want in zip(row[2:], expected):
            assert abs(got - want) <= cell_bound(want)


def test_default_wigner_grid_matches_the_dense_route():
    """`wigner --s1 1 --s2 1`, cell by cell, against joint_wigner_grid."""
    config = default_config(coupling=CouplingParams(1.0, 1.0))
    spec = sweep._COMMANDS["wigner"]
    axes = [spec["defaults"][axis] for axis in spec["axes"]]
    rows = sweep.cmd_wigner(config, *axes).rows
    grid = joint_wigner_grid(config.pointer_outcome().state, *axes).values.ravel().tolist()
    assert len(rows) == len(grid) == 2601
    for (_, _, p_j), want in zip(rows, grid):
        assert abs(p_j - want) <= cell_bound(want)


# perfbench/workloads.py SCAN_BOX, the param_scan workload's parameter box.
PHASE = st.floats(0.0, TWO_PI)
SCAN_THETA = st.floats(0.0, 0.9 * math.pi)
SCAN_COUPLING = st.floats(0.0, 3.0)


@settings(deadline=None, derandomize=True, max_examples=30)
@given(
    r=st.floats(0.05, 1.0),
    mu=PHASE,
    varphi=PHASE,
    theta1=SCAN_THETA,
    delta1=PHASE,
    theta2=SCAN_THETA,
    delta2=PHASE,
    s1=SCAN_COUPLING,
    s2=SCAN_COUPLING,
    gamma=st.floats(-2.0, 2.0),
    beta=st.floats(-2.0, 2.0),
)
def test_closed_form_matches_the_dense_route_at_cutoff_60(r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2,
                                                          gamma, beta):
    """P_s, both squeezing routes, E and a Wigner value over param_scan's box,
    against the dense route at cutoff 60, within the golden bound."""
    config = default_config(
        ecs=EcsParams(r, mu, varphi), wv=WeakValueParams(theta1, delta1, theta2, delta2),
        coupling=CouplingParams(s1, s2),
    )
    outcome = config.pointer_outcome(cutoff=FockCutoff(60, 60))
    closed = closed_form_moments(r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2, gamma, beta)
    assert abs(closed["P_s"] - outcome.success_probability) <= cell_bound(outcome.success_probability)
    single = (RangeSpec(s1, s1, 1), RangeSpec(s2, s2, 1))
    report = squeezing_report(outcome.state, config.theta_big)
    (_, _, direct, normal), = sweep.cmd_squeezing(config, *single).rows
    (_, _, e_val, _), = sweep.cmd_hz(config, *single).rows
    expected = (report.s2s_direct, report.s2s_normal_ordered, hz_correlation(outcome.state))
    for got, want in zip((direct, normal, e_val), expected):
        assert abs(got - want) <= cell_bound(want)
    axes = (RangeSpec(gamma, gamma + 0.5, 2), RangeSpec(beta, beta + 0.5, 2))
    dense = joint_wigner_grid(outcome.state, *axes).values.ravel().tolist()
    for (_, _, p_j), want in zip(sweep.cmd_wigner(config, *axes).rows, dense):
        assert abs(p_j - want) <= cell_bound(want)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    r=st.floats(0.05, 1.0),
    mu=PHASE,
    varphi=PHASE,
    theta1=SCAN_THETA,
    delta1=PHASE,
    theta2=SCAN_THETA,
    delta2=PHASE,
    s1=SCAN_COUPLING,
    s2=SCAN_COUPLING,
)
def test_finite_difference_qfi_matches_the_closed_form_to_2e_10(r, mu, varphi, theta1, delta1, theta2, delta2, s1,
                                                                 s2):
    """Over param_scan's box, the finite-difference QFI in either gauge is
    within 2e-10 of the closed form, relative.  Differencing the members
    after the meter left up to 1.9e-9 of rounding at small Q."""
    config = default_config(
        ecs=EcsParams(r, mu, varphi), wv=WeakValueParams(theta1, delta1, theta2, delta2),
        coupling=CouplingParams(s1, s2),
    )
    q_analytic = qfi_analytic(config)
    for gauge in ("fixed-kappa", "renormalized"):
        q_fd = qfi_finite_difference(config.replace(qfi_gauge=gauge))
        assert abs(q_fd - q_analytic) <= 2e-10 * q_analytic
