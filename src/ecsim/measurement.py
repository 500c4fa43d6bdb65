"""Entangled coherent states and post-selected two-pointer weak measurements.

The probe is the two-mode entangled coherent state

    |phi> = N (|alpha>_a |0>_b + |0>_a |alpha e^{i varphi}>_b),
    N = [2 (1 + e^{-|alpha|^2})]^{-1/2},  alpha = r e^{i mu}.

Two qubit meters, prepared with polar/azimuthal angles (theta_i, delta_i)
and post-selected on |H>, imprint the weak values

    w_x = e^{i delta_1} tan(theta_1 / 2),
    w_y = -i e^{i delta_2} tan(theta_2 / 2)

onto the modes through conditional displacements.  Meter i couples to one
mode only, with displacement arm u_i = s_i / 2 for coupling strength s_i, so
with p = i (a^dag - a) post-selecting it on |H> applies the single-meter
weak-value operator

    K_i = <H| exp(-i u_i sigma_i (x) p) |psi_i> = c_i cos(u_i p) - i d_i sin(u_i p),
    c_i = <H|psi_i> = cos(theta_i / 2),  d_i = <H|sigma_i|psi_i> = c_i w_i,

to its mode (w_1 = w_x on mode a, w_2 = w_y on mode b).  As D(+-u) =
e^{-+i u p}, K_i = k_i+ D(+u_i) + k_i- D(-u_i) with k_i+- = (c_i +- d_i) / 2,
whose products k_a+- k_b+- are the branch weights (omega / 4) (1 +- w_x)
(1 +- w_y), omega = c_1 c_2; under strong post-selection k_i+ and k_i-
nearly cancel, so the meters take c_i and d_i themselves.  The post-selection
succeeds with P_s = <Phi~|Phi~> for |Phi~> = (K_a (x) K_b) |phi> and leaves
|Phi> = |Phi~> / sqrt(P_s).

On the Fock grid the probe is the rank-2 amplitude matrix
N (c_a e0^T + e0 c_b^T) = L R^T, with c_a, c_b its coherent columns,
L = N [c_a, e0] and R = [e0, c_b].  So

    |Phi~> = (K_a L) (K_b R)^T = A X^T,

a pointer state of rank at most 2, and each factor is one fock.meter pass,
diagonal in the eigenbasis of p.  Only c_b depends on varphi, and a phase
step delta turns it as diag(e^{i n delta}), so the finite-difference QFI
turns one probe's c_b itself, as its cos and sin parts, and its members
share L and A.

This is the Fock route of the library.  The parameter records and the
meters' amplitudes (c_i, d_i), which carry the weak values w_i = d_i / c_i,
live in the numpy-free params module (_meter_rows), and the sweeps' closed
form of the same factors in the coherent module.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .config import WeakMeasurementConfig
from .fock import (
    DEFAULT_CUTOFF,
    FockCutoff,
    TwoModeState,
    apply_to_mode,  # noqa: F401  re-exported; perfbench/test_perfbench.py binds it here
    coherent_column,
    meter,
    warn_if_truncated,
)
from .params import (
    CouplingParams,
    EcsParams,
    WeakValueParams,
    _ArrayRecord,
    _check_p_floor,
    _meter_rows,
)


class PostSelectedOutcome(_ArrayRecord):
    """Normalized conditional pointer state plus its success probability."""

    __slots__ = ("state", "success_probability")

    def __init__(self, state: TwoModeState, success_probability: float) -> None:
        self._set(state, success_probability)


def ecs_factors(params: EcsParams, cutoff: FockCutoff) -> tuple[np.ndarray, np.ndarray]:
    """Factors L (dim_a x 2) and R (dim_b x 2) of |phi>, with L R^T its amplitude grid.

    L = [N c_a, e0] and R = [e0, N c_b] except that the shared cell (0, 0),
    N (c_a[0] + c_b[0]), is stored in R, so L does not depend on varphi.
    The cell is summed once, before any displacement: split over both
    columns, its two halves meet again only in the Gram contraction, and P_s
    at zero coupling and theta = 0 rounds to 1 - 1.1e-16 instead of 1.
    Warns once for each of the two coherent columns and once for the probe
    when its truncated mass exceeds fock.TAIL_TOL: its top-level mass
    N^2 (|c_a[-1]|^2 + |c_b[-1]|^2), or its norm deficit 1 - <phi|phi> where
    that is larger.  L's columns are orthogonal, so <phi|phi> = |L_0|^2 +
    |R_1|^2; a probe far beyond the grid underflows to zero, top level
    included.
    """
    alpha, norm = params.alpha, params.normalization
    col_a = coherent_column(alpha, cutoff.n_max_a)
    left = np.zeros((cutoff.dim_a, 2), dtype=np.complex128)
    left[1:, 0] = norm * col_a[1:]
    left[0, 1] = 1.0
    col_b = coherent_column(alpha * cmath.exp(1j * params.varphi), cutoff.n_max_b)
    col_b[0] += col_a[0]
    right = np.zeros((cutoff.dim_b, 2), dtype=np.complex128)
    right[0, 0] = 1.0
    right[:, 1] = norm * col_b
    top = abs(left[-1, 0]) ** 2 + abs(right[-1, 1]) ** 2
    deficit = 1.0 - np.vdot(left[:, 0], left[:, 0]).real - np.vdot(right[:, 1], right[:, 1]).real
    warn_if_truncated(max(top, deficit), "build_ecs")
    return left, right


def build_ecs(params: EcsParams, cutoff: FockCutoff = DEFAULT_CUTOFF) -> TwoModeState:
    """Assemble |phi> on the truncated basis using the closed-form N.

    The numeric norm then equals 1 up to the truncated tail; the state is
    deliberately not renormalized so the tail deficit stays observable.
    """
    left, right = ecs_factors(params, cutoff)
    return TwoModeState(left @ right.T)


def _pointer_factors(
    left: np.ndarray, right: np.ndarray, wv: WeakValueParams, coupling: CouplingParams
) -> tuple[np.ndarray, np.ndarray]:
    """Factors A = K_a L and X = K_b R of the raw pointer state at one meter pair and coupling.

    left is the probe's L (dim_a x m) and right its R (dim_b x m), or any
    mode-b columns (dim_b x m'), such as the finite-difference QFI's eight
    probe columns, or a stack of them (K x dim_b x m); the raw pointer state
    is A @ X.T (member by member).  Each factor is one fock.meter pass.
    """
    row_a, row_b = _meter_rows(wv)
    return meter([0.5 * coupling.s1], row_a, left)[0], meter([0.5 * coupling.s2], row_b, right)[0]


def apply_displacement_branches(
    state: TwoModeState,
    wv: WeakValueParams,
    coupling: CouplingParams,
) -> TwoModeState:
    """(K_a (x) K_b) state, the two meter operators of the module docstring
    applied to state as the factor pair L = amp, R = identity."""
    identity = np.eye(state.cutoff.dim_b, dtype=np.complex128)
    fac_a, fac_b = _pointer_factors(state.amplitudes, identity, wv, coupling)
    return TwoModeState(fac_a @ fac_b.T)


def _pointer_grid(config: WeakMeasurementConfig, cutoff: FockCutoff) -> np.ndarray:
    """The raw pointer grid A @ X.T of _pointer_factors at a config's point, built at cutoff."""
    left, right = ecs_factors(config.ecs, cutoff)
    fac_a, fac_b = _pointer_factors(left, right, config.wv, config.coupling)
    return fac_a @ fac_b.T


def _post_select(raw: np.ndarray) -> PostSelectedOutcome:
    """The outcome raw / sqrt(P_s) of a raw pointer grid, with no phase
    convention: every diagnostic is blind to a global phase.  Raises
    _check_p_floor's error below DEFAULT_P_FLOOR, and warns when the
    normalized top-level mass, the top row plus the top column below it (the
    corner cell once), exceeds fock.TAIL_TOL."""
    p_s = float(np.vdot(raw, raw).real)
    _check_p_floor(p_s)
    top_row, top_col = raw[-1], raw[:-1, -1]
    top = float(np.vdot(top_row, top_row).real + np.vdot(top_col, top_col).real) / p_s
    warn_if_truncated(top, "build_pointer_state")
    return PostSelectedOutcome(TwoModeState(raw / math.sqrt(p_s)), p_s)


def build_pointer_state(
    ecs: TwoModeState,
    wv: WeakValueParams,
    coupling: CouplingParams,
) -> PostSelectedOutcome:
    """Post-selected pointer state and success probability.

    Raises DegeneratePostSelectionError when P_s falls below DEFAULT_P_FLOOR,
    the measure-zero regime where the conditional state is undefined.
    """
    raw = apply_displacement_branches(ecs, wv, coupling)
    return _post_select(raw.amplitudes)
