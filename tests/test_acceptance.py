"""End-to-end acceptance checks.

Each check prints one `[cNN] PASS/FAIL` line with the measured numbers and
elapsed time, then asserts, so `pytest -v` gives one verdict line per
criterion and the captured detail line explains any failure.
"""

import math
import time
import warnings

import numpy as np

import oracles
from golden_cases import GOLDEN_CASES

from ecsim.cli import main
from ecsim.coherent import qcrb
from ecsim.config import RangeSpec, default_config
from ecsim.errors import TruncationWarning
from ecsim.fock import FockCutoff, TwoModeState, coherent_column
from ecsim.measurement import CouplingParams, EcsParams, WeakValueParams, build_ecs
from ecsim.observables import (
    hz_correlation,
    joint_wigner_grid,
    qfi_analytic,
    qfi_finite_difference,
    squeezing_report,
)
from ecsim.sweep import cmd_squeezing, cmd_wigner

HALF_PI = 0.5 * math.pi


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"[{cid}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"{cid} {detail}"


def test_c01_probe_zero_squeezing():
    t0 = time.perf_counter()
    state = build_ecs(EcsParams(r=0.1, mu=HALF_PI, varphi=HALF_PI), FockCutoff(40, 40))
    report = squeezing_report(state, HALF_PI)
    worst = max(abs(report.s2s_direct), abs(report.s2s_normal_ordered))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    _report("c01", ok, f"|S| = {worst:.3e} (tol 1e-9), elapsed {elapsed:.2f}s (budget 1s)")


def test_c02_two_form_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260201)
    cutoff = FockCutoff(12, 12)
    worst_random = 0.0
    for _ in range(100):
        amp = rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))
        amp /= np.linalg.norm(amp)
        state = TwoModeState(amp)
        theta_big = float(rng.uniform(0.0, 2.0 * math.pi))
        report = squeezing_report(state, theta_big)
        gap = abs(report.s2s_direct - report.s2s_normal_ordered)
        worst_random = max(worst_random, gap)
    sweep = cmd_squeezing(default_config(), RangeSpec(0.0, 3.0, 16), RangeSpec(0.0, 3.0, 16))
    worst_sweep = max(abs(row[2] - row[3]) for row in sweep.rows)
    elapsed = time.perf_counter() - t0
    ok = worst_random < 1e-9 and worst_sweep < 1e-9 and elapsed < 30.0
    _report(
        "c02",
        ok,
        f"random gap {worst_random:.3e}, sweep gap {worst_sweep:.3e} "
        f"(tol 1e-9), elapsed {elapsed:.2f}s (budget 30s)",
    )


def test_c03_wigner_bounds_and_gaussian():
    t0 = time.perf_counter()
    cutoff = FockCutoff(40, 40)
    alpha, beta0 = 0.3, -0.2
    amp = np.outer(coherent_column(alpha, 40), coherent_column(beta0, 40))
    state = TwoModeState(amp)
    grid = joint_wigner_grid(state, RangeSpec(-1.0, 1.0, 21), RangeSpec(-1.0, 1.0, 21))
    bound_excess = max(0.0, float(np.max(np.abs(grid.values))) - 1.0)
    gs = grid.re_gamma_axis[:, None]
    bs = grid.re_beta_axis[None, :]
    expected = np.exp(-2.0 * (gs - alpha) ** 2) * np.exp(-2.0 * (bs - beta0) ** 2)
    gauss_err = float(np.max(np.abs(grid.values - expected)))
    elapsed = time.perf_counter() - t0
    ok = bound_excess < 1e-9 and gauss_err < 1e-6 and elapsed < 60.0
    _report(
        "c03",
        ok,
        f"bound excess {bound_excess:.3e} (tol 1e-9), gaussian err {gauss_err:.3e} "
        f"(tol 1e-6), elapsed {elapsed:.2f}s (budget 60s)",
    )


def test_c04_negativity_deepens_with_coupling():
    t0 = time.perf_counter()
    window = RangeSpec(-2.0, 2.0, 51)
    minima = []
    for s in (0.0, 1.0, 2.0):
        config = default_config(coupling=CouplingParams(s1=s, s2=s))
        result = cmd_wigner(config, window, window)
        minima.append(float(result.metadata["grid_min"]))
    elapsed = time.perf_counter() - t0
    decreasing = all(b < a for a, b in zip(minima, minima[1:]))
    ok = decreasing and elapsed < 300.0
    _report(
        "c04",
        ok,
        f"grid minima {[f'{m:.6g}' for m in minima]} strictly decreasing={decreasing}, "
        f"elapsed {elapsed:.2f}s (budget 300s)",
    )


def test_c05_zero_coupling_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260205)
    worst_overlap = 0.0
    worst_prob = 0.0
    for _ in range(20):
        wv = WeakValueParams(
            theta1=float(rng.uniform(0.0, 2.8)),
            delta1=float(rng.uniform(0.0, 2.0 * math.pi)),
            theta2=float(rng.uniform(0.0, 2.8)),
            delta2=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        config = default_config(wv=wv, coupling=CouplingParams(0.0, 0.0))
        outcome = config.pointer_outcome()
        overlap = abs(np.vdot(outcome.state.amplitudes, config.ecs_state().amplitudes))
        expected_p = math.cos(wv.theta1 / 2.0) ** 2 * math.cos(wv.theta2 / 2.0) ** 2
        worst_overlap = max(worst_overlap, abs(overlap - 1.0))
        worst_prob = max(worst_prob, abs(outcome.success_probability - expected_p))
    elapsed = time.perf_counter() - t0
    ok = worst_overlap < 1e-10 and worst_prob < 1e-10 and elapsed < 10.0
    _report(
        "c05",
        ok,
        f"|overlap-1| {worst_overlap:.3e}, |P_s-cos^2cos^2| {worst_prob:.3e} "
        f"(tol 1e-10), elapsed {elapsed:.2f}s (budget 10s)",
    )


def test_c06_brute_force_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260206)
    cutoff = FockCutoff(10, 10)
    worst_vec = 0.0
    worst_prob = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for _ in range(10):
            r = float(rng.uniform(0.0, 0.8))
            mu = float(rng.uniform(0.0, 2.0 * math.pi))
            varphi = float(rng.uniform(0.0, 2.0 * math.pi))
            theta1 = float(rng.uniform(0.0, 2.8))
            delta1 = float(rng.uniform(0.0, 2.0 * math.pi))
            theta2 = float(rng.uniform(0.0, 2.8))
            delta2 = float(rng.uniform(0.0, 2.0 * math.pi))
            s1 = float(rng.uniform(0.0, 1.0))
            s2 = float(rng.uniform(0.0, 1.0))
            config = default_config(
                ecs=EcsParams(r=r, mu=mu, varphi=varphi),
                wv=WeakValueParams(theta1, delta1, theta2, delta2),
                coupling=CouplingParams(s1, s2),
            )
            outcome = config.pointer_outcome(cutoff=cutoff)
            ref_amp, ref_prob = oracles.brute_force_pointer(
                r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2, n_max=10
            )
            worst_vec = max(
                worst_vec, float(np.linalg.norm(outcome.state.amplitudes - ref_amp))
            )
            worst_prob = max(worst_prob, abs(outcome.success_probability - ref_prob))
    elapsed = time.perf_counter() - t0
    ok = worst_vec < 1e-9 and elapsed < 60.0
    _report(
        "c06",
        ok,
        f"vector norm diff {worst_vec:.3e} (tol 1e-9), P_s diff {worst_prob:.3e}, "
        f"elapsed {elapsed:.2f}s (budget 60s)",
    )


def test_c07_qfi_cross_validation():
    t0 = time.perf_counter()
    worst_rel = 0.0
    for r in np.linspace(0.1, 0.5, 5):
        for s in np.linspace(0.0, 2.0, 5):
            config = default_config(
                ecs=EcsParams(r=float(r), mu=HALF_PI, varphi=HALF_PI),
                coupling=CouplingParams(float(s), float(s)),
            )
            fd = qfi_finite_difference(config)
            an = qfi_analytic(config)
            worst_rel = max(worst_rel, abs(fd - an) / abs(an))

    def coherent_family(phi: float) -> np.ndarray:
        col_a = coherent_column(0.5 * complex(math.cos(phi), math.sin(phi)), 40)
        amp = np.zeros((41, 41), dtype=np.complex128)
        amp[:, 0] = col_a
        return amp

    coherent_gap = abs(oracles.qfi_from_family(coherent_family, 0.3) - 1.0)
    elapsed = time.perf_counter() - t0
    ok = worst_rel < 1e-4 and coherent_gap < 1e-6 and elapsed < 120.0
    _report(
        "c07",
        ok,
        f"fd/analytic rel gap {worst_rel:.3e} (tol 1e-4), coherent |Q-1| "
        f"{coherent_gap:.3e} (tol 1e-6), elapsed {elapsed:.2f}s (budget 120s)",
    )


def test_c08_qcrb_monotonicity():
    t0 = time.perf_counter()
    couplings = (0.0, 0.5, 1.0, 1.5, 2.0)
    deltas = []
    for s in couplings:
        config = default_config(
            ecs=EcsParams(r=0.3, mu=HALF_PI, varphi=HALF_PI),
            coupling=CouplingParams(s, s),
        )
        deltas.append(qcrb(qfi_analytic(config)))
    elapsed = time.perf_counter() - t0
    decreasing = all(b < a for a, b in zip(deltas, deltas[1:]))
    ok = decreasing and elapsed < 60.0
    _report(
        "c08",
        ok,
        "delta_phi over s=" + str(list(couplings)) + " is "
        + str([f"{d:.6f}" for d in deltas])
        + f", strictly decreasing={decreasing}, elapsed {elapsed:.2f}s (budget 60s)",
    )


def test_c09_hz_anchor():
    t0 = time.perf_counter()
    worst = 0.0
    for r in (0.1, 0.3, 0.5):
        params = EcsParams(r=r, mu=HALF_PI, varphi=HALF_PI)
        state = build_ecs(params, FockCutoff(40, 40))
        expected = params.normalization**4 * r**4
        worst = max(worst, abs(hz_correlation(state) - expected))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    _report(
        "c09",
        ok,
        f"|E - N^4 r^4| = {worst:.3e} (tol 1e-10), elapsed {elapsed:.2f}s (budget 5s)",
    )


def test_c10_determinism(tmp_path):
    t0 = time.perf_counter()
    mismatched = []
    for name, argv in sorted(GOLDEN_CASES.items()):
        first = tmp_path / f"run1_{name}"
        second = tmp_path / f"run2_{name}"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        if first.read_bytes() != second.read_bytes():
            mismatched.append(name)
    elapsed = time.perf_counter() - t0
    ok = not mismatched
    _report(
        "c10",
        ok,
        f"byte-identical reruns for {len(GOLDEN_CASES)} commands "
        f"(mismatches: {mismatched or 'none'}), elapsed {elapsed:.2f}s",
    )
