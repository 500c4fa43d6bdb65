"""Non-classicality and metrology diagnostics on two-mode states.

Covers the two-mode sum-squeezing parameter (direct variance form and
normal-ordered moment form), the joint parity Wigner cross-section, the
two-mode intensity correlation witness, and the quantum Fisher
information of phase estimation (its Cramer-Rao bound is coherent.qcrb).

This is the library's Fock route, and the tests' reference for the
closed-form sweeps of the coherent module.  squeezing_report and
hz_correlation work on a TwoModeState's dense grid: a b psi on its
interior, a^dag b^dag psi on a grid grown by one level, and |psi|^2 from
its real view.  The Wigner grid and
the finite-difference QFI keep a pointer state as its factors, psi = A X^T
with A (dim_a x m) and X (dim_b x m), m <= 2 (see the measurement module),
and compute each product-operator moment from two m x m Gram matrices:

    <psi| O_a (x) O_b |psi> = sum_kl (A^dag O_a A)_kl (X^dag O_b X)_kl.

P_s, the top-level mass and the displaced parity take this form, each
from Grams built once per call.  The Wigner cross-section is one
(N_gamma x m^2)(m^2 x N_beta) product of the parity Grams of D_a(-gamma) A
and D_b(-beta) X; a TwoModeState enters it as the factor pair (amplitudes,
identity).  The finite-difference QFI meters the probe's mode-b column and
its cos and sin turns by the three steps in one pass, and takes every
member's P, its top-level mass and the central differences, formed before
the meter, from one 8 x 8 Gram of that pass on Python scalars
(qfi_finite_difference).  The analytic QFI has a closed form between
coherent states and no Fock basis at all (coherent.pointer_qfi), and it is
the QFI the sweep CLI prints.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .coherent import contract, pointer_qfi
from .config import RangeSpec, WeakMeasurementConfig, _wigner_axes
from .errors import NumericalRangeError
from .fock import (
    DEFAULT_CUTOFF,
    FockCutoff,
    TwoModeState,
    apply_to_mode,  # noqa: F401  re-exported; perfbench/test_perfbench.py binds it here
    levels,
    lowering_grid,
    meter,
    warn_if_truncated,
)
from .measurement import _pointer_factors, ecs_factors
from .params import DEFAULT_P_FLOOR, _ArrayRecord, _check_p_floor, _Record

# Displaced states whose top-level mass exceeds this are outside the
# trustworthy window of the truncated basis.
RANGE_TOL = 1e-6

DEFAULT_FD_STEP = 1e-5

# Rounding level of one central-difference QFI, in units of
# eps * max(1, sqrt(|Q|)) / step.  On the Fock factors the worst residual
# |Q(h/2) - Q(h/4)| over 30,500 evaluations (random points with r <= 1 and
# s <= 3 in both gauges plus the default qcrb grid, under five OpenBLAS
# kernels) was 1.46 of these units; 32 leaves a margin of 22.
_FD_ROUNDING_UNITS = 32.0


def _lowered(arr: np.ndarray) -> np.ndarray:
    """a b psi of an amplitude grid psi on its support, the (dim_a - 1) x
    (dim_b - 1) corner below psi's top row and column: psi's interior times
    the outer grid sqrt(n_a) sqrt(n_b)."""
    return lowering_grid(*arr.shape) * arr[1:, 1:]


def _mode_occupations(arr: np.ndarray) -> tuple[float, float]:
    """(<N_a>, <N_b>) from the probability grid |psi|^2 = re^2 + im^2 of psi's real view."""
    squares = np.square(arr.view(np.float64))
    cols = squares.sum(axis=0)
    n_a = float(levels(arr.shape[0])[0] @ squares.sum(axis=1))
    return n_a, float((cols[::2] + cols[1::2]) @ levels(arr.shape[1])[0])


class SqueezingReport(_Record):
    """Both evaluations of the sum-squeezing parameter at one angle."""

    __slots__ = ("s2s_direct", "s2s_normal_ordered", "theta_big")

    def __init__(self, s2s_direct: float, s2s_normal_ordered: float, theta_big: float) -> None:
        self._set(s2s_direct, s2s_normal_ordered, theta_big)


def _squeezing_routes(arr: np.ndarray, theta_big: float) -> tuple[float, float]:
    """(direct, normal-ordered) sum squeezing of an amplitude grid; both
    routes share one a b psi and the occupations."""
    dim_a, dim_b = arr.shape
    ab = _lowered(arr)
    denominator = sum(_mode_occupations(arr)) + 1.0
    phase = cmath.exp(-1j * theta_big)
    half = 0.5 * phase

    # Direct: V|psi> = conj(half) a^dag b^dag psi + half a b psi on the enlarged grid,
    # built in place on a^dag b^dag psi, which <a^2 b^2> = <a^dag b^dag psi|a b psi> reads first.
    v_psi = np.zeros((dim_a + 1, dim_b + 1), dtype=np.complex128)
    np.multiply(lowering_grid(dim_a + 1, dim_b + 1), arr, out=v_psi[1:, 1:])
    m_a2b2 = complex(np.vdot(v_psi[: dim_a - 1, : dim_b - 1], ab))
    v_psi *= half.conjugate()
    v_psi[: dim_a - 1, : dim_b - 1] += half * ab
    exp_v = float(np.vdot(arr, v_psi[:dim_a, :dim_b]).real)
    exp_v2 = float(np.vdot(v_psi, v_psi).real)
    direct = 4.0 * (exp_v2 - exp_v**2) / denominator - 1.0

    # Normal-ordered: <a b>, <a^2 b^2> and <N_a N_b> = |a b psi|^2.
    m_ab = complex(np.vdot(arr[:-1, :-1], ab))
    n_ab = float(np.vdot(ab, ab).real)
    numerator = (phase * phase * m_a2b2).real - 2.0 * ((phase * m_ab).real) ** 2 + n_ab
    return direct, 2.0 * numerator / denominator


def squeezing_report(state: TwoModeState, theta_big: float) -> SqueezingReport:
    """Sum squeezing of a state at angle T by two routes that agree to rounding.

    Direct, from the variance of V = (e^{i T} a^dag b^dag + h.c.) / 2:
    S = 4 Var(V) / <N_a + N_b + 1> - 1.  Values below 0 witness two-mode
    non-classicality, and the variance floor pins S >= -1.  V|psi> is
    evaluated on a one-level-enlarged grid, so its creation parts are exact
    and the quadratic moment carries no cutoff-boundary defect.

    Normal-ordered, from annihilation-only moments, which are exact on the
    truncated support, so this form needs no enlarged grid:

    S = 2 [ Re(e^{-2iT} <a^2 b^2>) - 2 (Re e^{-iT} <a b>)^2 + <N_a N_b> ]
        / (<N_a> + <N_b> + 1).

    A non-finite T raises ValueError.
    """
    if not math.isfinite(theta_big):
        raise ValueError(f"theta_big must be finite, got {theta_big!r}")
    direct, normal = _squeezing_routes(state.amplitudes, theta_big)
    return SqueezingReport(s2s_direct=direct, s2s_normal_ordered=normal, theta_big=theta_big)


class WignerGrid(_ArrayRecord):
    """Joint-parity values on a rectangular real cross-section of phase space."""

    __slots__ = ("re_gamma_axis", "re_beta_axis", "values")

    def __init__(self, re_gamma_axis: np.ndarray, re_beta_axis: np.ndarray, values: np.ndarray) -> None:
        arrays = [np.asarray(arr, dtype=np.float64) for arr in (re_gamma_axis, re_beta_axis, values)]
        for arr in arrays:
            arr.setflags(write=False)
        self._set(*arrays)
        if self.values.shape != (self.re_gamma_axis.size, self.re_beta_axis.size):
            raise ValueError("grid value shape does not match its axes")


def _gram(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left^dag right over the Fock axis (-2) of two factor stacks: (..., m, m)."""
    return np.conj(left).swapaxes(-1, -2) @ right


def _contract(g_a: np.ndarray, g_b: np.ndarray) -> np.ndarray:
    """sum_kl g_a[..., i, k, l] g_b[..., j, k, l]: the (..., i, j) moments of two Gram stacks.

    Leading axes before i and j broadcast as in a matrix product.
    """
    flat_a = g_a.reshape(*g_a.shape[:-2], -1)
    return flat_a @ g_b.reshape(*g_b.shape[:-2], -1).swapaxes(-1, -2)


def _parity_gram(fac: np.ndarray) -> np.ndarray:
    """F^dag P F of a factor stack F, P = diag((-1)^n) the parity over its Fock axis."""
    return _gram(fac, np.where(np.arange(fac.shape[-2]) % 2 == 0, 1.0, -1.0)[:, None] * fac)


def _tail_mass(fac_a: np.ndarray, fac_b: np.ndarray, gram_b: np.ndarray) -> np.ndarray:
    """Top-level mass of every raw pointer state fac_a @ fac_b^T, given
    gram_b = _gram(fac_b, fac_b): its top row plus the top column below it,
    so the corner cell counts once.

    fac_a (..., Na, dim_a, m) and fac_b (..., Nb, dim_b, m) are factor
    stacks and the masses an (..., Na, Nb) grid; a single factor fac_a
    (dim_a x m) against a stack fac_b (Nb x dim_b x m) gives Nb masses.
    """
    top_a, below_a, top_b = fac_a[..., -1:, :], fac_a[..., :-1, :], fac_b[..., -1:, :]
    top_row = _contract(_gram(top_a, top_a), gram_b).real
    return top_row + _contract(_gram(below_a, below_a), _gram(top_b, top_b)).real


def joint_wigner_grid(state: TwoModeState, re_gamma: RangeSpec, re_beta: RangeSpec) -> WignerGrid:
    """P_J(gamma, beta) = <D_a^dag(gamma) D_b^dag(beta) parity_a parity_b ...>
    over real gamma and beta, rows indexed by Re(gamma): in [-1, 1] to
    rounding, and (4 / pi^2) P_J is the phase-space density.

    P_J and the displaced top-level mass are moments of the factor pair
    (D_a(-gamma) amplitudes, D_b(-beta)), as in the module docstring.  Raises
    NumericalRangeError naming the first point, in row-major order, whose
    displaced top-level mass exceeds RANGE_TOL.  A complex point
    (e^{i phi_a} t_a, e^{i phi_b} t_b), t real, is the real point (t_a, t_b)
    of the state rotated by diag(e^{-i phi n}) on each mode, which commutes
    with parity and keeps the top-level mass.
    """
    gammas, betas = (np.array(axis) for axis in _wigner_axes(re_gamma, re_beta))
    identity = np.eye(state.amplitudes.shape[1], dtype=np.complex128)
    shifted_a, shifted_b = meter(-gammas, (1, 1), state.amplitudes), meter(-betas, (1, 1), identity)
    top = _tail_mass(shifted_a, shifted_b, _gram(shifted_b, shifted_b))
    failing = np.argwhere(top > RANGE_TOL)
    if failing.size:
        i, j = failing[0]
        raise NumericalRangeError(
            f"displacement (gamma={complex(gammas[i])}, beta={complex(betas[j])}) pushes tail "
            f"mass {float(top[i, j]):.3e} past the validated range tolerance {RANGE_TOL:.1e}"
        )
    values = _contract(_parity_gram(shifted_a), _parity_gram(shifted_b)).real
    return WignerGrid(re_gamma_axis=gammas, re_beta_axis=betas, values=values)


def hz_correlation(state: TwoModeState) -> float:
    """E = <N_a><N_b> - |<a b>|^2; negative values witness entanglement."""
    arr = state.amplitudes
    n_a, n_b = _mode_occupations(arr)
    return n_a * n_b - abs(complex(np.vdot(arr[:-1, :-1], _lowered(arr)))) ** 2


def _richardson(q_h: float, q_h2: float, q_h4: float) -> tuple[float, bool]:
    """(Q, tripped) from the central-difference estimates at steps h, h/2, h/4, h = DEFAULT_FD_STEP.

    Q is the middle estimate.  Rounding perturbs each estimate by about
    eps * |d psi| / step, with |d psi| ~ sqrt(Q) / 2; tripped is True when
    the successive differences neither contract by half nor stay within that
    level at h/4.  A NaN estimate never trips: it makes a difference NaN,
    and max keeps its first argument against a NaN.
    """
    r1, r2 = abs(q_h - q_h2), abs(q_h2 - q_h4)
    scale = max(1.0, math.sqrt(max(abs(q_h), abs(q_h2), abs(q_h4))))
    noise_floor = _FD_ROUNDING_UNITS * sys.float_info.epsilon * scale / (0.25 * DEFAULT_FD_STEP)
    return q_h2, r2 > max(0.5 * r1, noise_floor)


def _row_gram(u: complex, v: complex) -> tuple:
    """The Gram cells (u* u, u* v, v* u, v* v) of one factor row (u, v), as coherent.contract takes them."""
    cu, cv = u.conjugate(), v.conjugate()
    return cu * u, cu * v, cv * u, cv * v


def qfi_finite_difference(config: WeakMeasurementConfig, cutoff: FockCutoff = DEFAULT_CUTOFF) -> float:
    """Finite-difference QFI of the post-selected pointer family in varphi,
    on the Fock basis of cutoff: the independent check of the closed form
    that qfi_analytic evaluates.

    Under "fixed-kappa" the success-probability rescaling is frozen at the
    working point, under "renormalized" each member is normalized; the
    projection term makes both gauges agree to finite-difference accuracy.

    The pointer states at varphi and at varphi + delta, with delta exactly
    +-h, +-h/2 and +-h/4 for the fixed h = DEFAULT_FD_STEP, are the rank-2
    factors A X^T of _pointer_factors, A = K_a L and X = K_b R, so every
    Gram below is 2 x 2.  L and R = [e0, c_b] are the probe's factors at
    varphi, and a step turns only c_b, by diag(e^{i n delta}) = cos(n delta)
    + i sin(n delta).  One meter pass over the eight columns

        Y = K_b [e0, c_b, cos(n delta_k) c_b, i sin(n delta_k) c_b],  k = 1, 2, 3,

    gives every member: X_0 = [Y_0, Y_1] and X_+-k = [Y_0, Y_ck +- Y_sk].
    Each member's P, its top-level mass and the moments of the difference
    are contractions of A's 2 x 2 Grams (whole and top row) with cells of
    Y's one 8 x 8 Gram, on Python scalars.  The difference is formed before
    the meter, so no step subtracts two rounded members.  With kappa_+-k
    the members' scales, 1/sqrt(P_0) ("fixed-kappa") or their own
    1/sqrt(P_+-k) ("renormalized"),

        dX_k = [kappa' Y_0, kappa' Y_ck + (kappa_+k + kappa_-k) Y_sk / (2 delta_k)],

    with kappa' = (kappa_+k - kappa_-k) / (2 delta_k), which is 0 under
    "fixed-kappa" and otherwise -(P_+k - P_-k) / (sqrt(P_+k P_-k)
    (sqrt(P_+k) + sqrt(P_-k))) / (2 delta_k), P_+k - P_-k taken from its odd
    part.  With x_0 = X_0 / sqrt(P_0) and d psi = A dX^T,

        Q = 4 [ (A^dag A).(dX^dag dX) - |(A^dag A).(x_0^dag dX)|^2 ].

    Warns as ecs_factors does, once for the probe, and as _post_select
    does, for each member whose normalized top-level mass exceeds fock.TAIL_TOL.
    A member's P_s below DEFAULT_P_FLOOR raises _check_p_floor's error, a Q
    that fails _richardson NumericalRangeError.
    """
    h = DEFAULT_FD_STEP
    steps = (h, 0.5 * h, 0.25 * h)
    left, right = ecs_factors(config.ecs, cutoff)
    turns = np.multiply.outer(levels(cutoff.dim_b)[0], steps)
    probe = np.empty((cutoff.dim_b, 2 + 2 * len(steps)), dtype=np.complex128)
    probe[:, :2] = right
    probe[:, 2::2] = np.cos(turns) * right[:, 1:]
    probe[:, 3::2] = np.sin(turns) * (1j * right[:, 1:])
    fac_a, fac_y = _pointer_factors(left, probe, config.wv, config.coupling)
    g_a = tuple(_gram(fac_a, fac_a).ravel().tolist())
    top_a = _row_gram(*fac_a[-1].tolist())
    below_a = tuple(whole - top for whole, top in zip(g_a, top_a))
    g, top_y = _gram(fac_y, fac_y).tolist(), fac_y[-1].tolist()

    # Each member's column 1 as (Y_0^dag X_1, X_1^dag X_1, its top entry), in the order 0, +h, -h, ..., -h/4.
    columns = [(g[0][1], g[1][1], top_y[1])]
    for c in range(2, len(g), 2):
        even, odd = g[c][c] + g[c + 1][c + 1], g[c][c + 1] + g[c + 1][c]
        columns += [(g[0][c] + sign * g[0][c + 1], even + sign * odd, top_y[c] + sign * top_y[c + 1])
                    for sign in (1.0, -1.0)]
    p = []
    for g_0x, g_xx, top_x in columns:
        g_x = (g[0][0], g_0x, g_0x.conjugate(), g_xx)
        p.append(contract(g_a, g_x).real)
        tail = contract(top_a, g_x).real + contract(below_a, _row_gram(top_y[0], top_x)).real
        if not p[-1] < DEFAULT_P_FLOOR:
            warn_if_truncated(tail / p[-1], "build_pointer_state")
    _check_p_floor(min(p))

    root_0 = math.sqrt(p[0])
    q = []
    for k, step in enumerate(steps):
        c, s = 2 + 2 * k, 3 + 2 * k
        if config.qfi_gauge == "renormalized":
            root_plus, root_minus = math.sqrt(p[1 + 2 * k]), math.sqrt(p[2 + 2 * k])
            half_gap = contract(g_a, (0.0, g[0][s], g[0][s].conjugate(), g[c][s] + g[s][c])).real
            kappa_gap = -2.0 * half_gap / (root_plus * root_minus * (root_plus + root_minus))
            kappa_sum = 1.0 / root_plus + 1.0 / root_minus
        else:
            kappa_gap, kappa_sum = 0.0, 2.0 / root_0
        slope, turn = kappa_gap / (2.0 * step), kappa_sum / (2.0 * step)
        g_0d = slope * g[0][c] + turn * g[0][s]
        g_dd = slope * slope * g[c][c] + slope * turn * (g[c][s] + g[s][c]) + turn * turn * g[s][s]
        dd = contract(g_a, (slope * slope * g[0][0], slope * g_0d, slope * g_0d.conjugate(), g_dd)).real
        cross = contract(g_a, (slope * g[0][0], g_0d, slope * g[1][0], slope * g[1][c] + turn * g[1][s])) / root_0
        q.append(4.0 * (dd - (cross.real * cross.real + cross.imag * cross.imag)))
    value, tripped = _richardson(*q)
    if tripped:
        raise NumericalRangeError(
            f"finite-difference step h={h:g} is cancellation-dominated: "
            "successive halvings of the step do not contract the estimate"
        )
    return value


def qfi_analytic(config: WeakMeasurementConfig) -> float:
    """Closed-form QFI of the pointer family in varphi (coherent.pointer_qfi).

    It uses no Fock basis, so it is exact at any cutoff and warns of no
    truncation.  Raises DegeneratePostSelectionError when P_s is below
    DEFAULT_P_FLOOR, and ValueError when the QFI is not a finite double.
    """
    return pointer_qfi(config.ecs, config.wv, config.coupling)
