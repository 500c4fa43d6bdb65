"""Entangled coherent states and post-selected two-pointer weak measurements.

The probe is the two-mode entangled coherent state

    |phi> = N (|alpha>_a |0>_b + |0>_a |alpha e^{i varphi}>_b),
    N = [2 (1 + e^{-|alpha|^2})]^{-1/2},  alpha = r e^{i mu}.

Two qubit meters, prepared with polar/azimuthal angles (theta_i, delta_i)
and post-selected on |H>, imprint the weak values

    w_x = e^{i delta_1} tan(theta_1 / 2),
    w_y = -i e^{i delta_2} tan(theta_2 / 2)

onto the modes through conditional displacements.  Expanding each coupling
unitary over the meter-observable eigenprojectors leaves a four-branch
conditional pointer state

    |Phi~> = (omega / 4) [ A+ D_a(+u1) D_b(+u2)
                         + A- D_a(-u1) D_b(-u2)
                         + B+ D_a(-u1) D_b(+u2)
                         + B- D_a(+u1) D_b(-u2) ] |phi>,

with omega = cos(theta_1/2) cos(theta_2/2), branch weights
A+- = (1 +- w_x)(1 +- w_y), B+- = (1 -+ w_x)(1 +- w_y), and displacement
arms u_i = s_i * scale (scale 1/2 under the default convention).  The
post-selection succeeds with P_s = <Phi~|Phi~> and leaves
|Phi> = |Phi~> / sqrt(P_s).

On the Fock grid the probe is the rank-2 amplitude matrix
N (c_a e0^T + e0 c_b^T) = L R^T, with c_a, c_b its coherent columns,
L = N [c_a, e0] and R = [e0, c_b].  Grouping the branches by the sign of
the mode-a arm gives

    |Phi~> = (omega / 4) [ D_a(+u1) L (A+ D_b(+u2) R + B- D_b(-u2) R)^T
                         + D_a(-u1) L (A- D_b(-u2) R + B+ D_b(+u2) R)^T ]
           = (omega / 4) A X^T,

a pointer state of rank at most 4, with A = [D_a(+u1) L, D_a(-u1) L] and
X = [A+ D_b(+u2) R + B- D_b(-u2) R, A- D_b(-u2) R + B+ D_b(+u2) R].
Only c_b depends on varphi, so probes at several phases share L and A.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePostSelectionError
from .fock import (
    DEFAULT_TAIL_TOL,
    FockCutoff,
    TwoModeState,
    apply_to_mode,  # noqa: F401  re-exported; perfbench/test_perfbench.py binds it here
    coherent_column,
    displace,
    top_level_mass,
    warn_if_truncated,
)

# tan(theta/2) overflows any useful amplitude well before theta reaches pi;
# reject everything inside this guard band.
THETA_GUARD = math.pi - 1e-9

# Success probabilities below this are treated as measure-zero post-selection.
DEFAULT_P_FLOOR = 1e-12

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EcsParams:
    """Probe-state parameters: amplitude r >= 0, phases mu and varphi."""

    r: float
    mu: float = 0.0
    varphi: float = 0.0

    def __post_init__(self) -> None:
        # normalization squares r, and so does each coherent column.
        if not (self.r >= 0.0 and math.isfinite(self.r * self.r)):
            raise ValueError(f"r must be >= 0 with a finite square, got {self.r!r}")
        for label, phase in (("mu", self.mu), ("varphi", self.varphi)):
            if not math.isfinite(phase):
                raise ValueError(f"{label} must be finite, got {phase!r}")
        object.__setattr__(self, "mu", float(self.mu) % TWO_PI)
        object.__setattr__(self, "varphi", float(self.varphi) % TWO_PI)

    @property
    def alpha(self) -> complex:
        return self.r * cmath.exp(1j * self.mu)

    @property
    def normalization(self) -> float:
        """Closed-form N = [2 (1 + e^{-|alpha|^2})]^{-1/2}."""
        return 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-self.r**2)))


@dataclass(frozen=True)
class WeakValueParams:
    """Meter pre-selection angles; theta_i in [0, pi), delta_i in [0, 2 pi]."""

    theta1: float
    delta1: float
    theta2: float
    delta2: float

    def __post_init__(self) -> None:
        for label, theta in (("theta1", self.theta1), ("theta2", self.theta2)):
            if not (0.0 <= theta < math.pi) or theta > THETA_GUARD:
                raise ValueError(
                    f"{label} must lie in [0, pi) below the divergence guard "
                    f"{THETA_GUARD!r}, got {theta!r}"
                )
        for label, delta in (("delta1", self.delta1), ("delta2", self.delta2)):
            if not (0.0 <= delta <= TWO_PI):
                raise ValueError(f"{label} must lie in [0, 2 pi], got {delta!r}")


@dataclass(frozen=True)
class CouplingParams:
    """Dimensionless interaction strengths s_i >= 0."""

    s1: float
    s2: float

    def __post_init__(self) -> None:
        for label, s in (("s1", self.s1), ("s2", self.s2)):
            if not (s >= 0.0 and math.isfinite(s)):
                raise ValueError(f"{label} must be finite and >= 0, got {s!r}")


@dataclass(frozen=True, eq=False)
class PostSelectedOutcome:
    """Normalized conditional pointer state plus its success probability."""

    state: TwoModeState
    success_probability: float


def weak_value_x(theta1: float, delta1: float) -> complex:
    """w_x = e^{i delta_1} tan(theta_1 / 2)."""
    if not (0.0 <= theta1 <= THETA_GUARD):
        raise ValueError(f"theta1 outside [0, pi) divergence guard: {theta1!r}")
    return cmath.exp(1j * delta1) * math.tan(0.5 * theta1)


def weak_value_y(theta2: float, delta2: float) -> complex:
    """w_y = -i e^{i delta_2} tan(theta_2 / 2)."""
    if not (0.0 <= theta2 <= THETA_GUARD):
        raise ValueError(f"theta2 outside [0, pi) divergence guard: {theta2!r}")
    return -1j * cmath.exp(1j * delta2) * math.tan(0.5 * theta2)


def ecs_factors(
    params: EcsParams,
    cutoff: FockCutoff,
    tail_tol: float = DEFAULT_TAIL_TOL,
    varphis: Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Factors L (dim_a x 2) and R_k (K x dim_b x 2) of |phi> at each phase in varphis.

    L R_k^T is the probe's amplitude grid at varphi_k (default: params.varphi
    alone), with L = [N c_a, e0] and R_k = [e0, N c_b(varphi_k)] except that
    the shared cell (0, 0), N (c_a[0] + c_b[0]), is stored in R_k.  L then
    does not depend on varphi.  The cell is summed once, before any
    displacement: split over both columns, its two halves meet again only in
    the Gram contraction, and P_s at zero coupling and theta = 0 rounds to
    1 - 1.1e-16 instead of 1.  The mode-b column is built once, at the first
    phase, and rotated by e^{i n (varphi_k - varphi_0)} for the others, which
    leaves its norm deficit unchanged.  Warns once for each of the two
    coherent columns and once per probe whose top-level mass exceeds
    tail_tol.
    """
    phases = [params.varphi] if varphis is None else [float(v) % TWO_PI for v in varphis]
    alpha = params.alpha
    col_a = coherent_column(alpha, cutoff.n_max_a, tail_tol)
    left = np.zeros((cutoff.dim_a, 2), dtype=np.complex128)
    left[1:, 0] = params.normalization * col_a[1:]
    left[0, 1] = 1.0
    # c_b(varphi_k) = e^{i n (varphi_k - varphi_0)} c_b(varphi_0): one column, rotated per phase.
    col_b = coherent_column(alpha * cmath.exp(1j * phases[0]), cutoff.n_max_b, tail_tol)
    turns = np.multiply.outer(np.array(phases) - phases[0], np.arange(cutoff.dim_b))
    cols_b = col_b * (np.cos(turns) + 1j * np.sin(turns))
    cols_b[:, 0] += col_a[0]
    right = np.zeros((len(phases), cutoff.dim_b, 2), dtype=np.complex128)
    right[:, 0, 0] = 1.0
    right[:, :, 1] = params.normalization * cols_b
    for mass in _probe_tail(left, right):
        warn_if_truncated(mass, tail_tol, "build_ecs")
    return left, right


def _probe_tail(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Top-level mass N^2 (|c_a[-1]|^2 + |c_b[-1]|^2) of each probe L R_k^T."""
    return abs(left[-1, 0]) ** 2 + np.abs(right[..., -1, 1]) ** 2


def build_ecs(
    params: EcsParams,
    cutoff: FockCutoff,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> TwoModeState:
    """Assemble |phi> on the truncated basis using the closed-form N.

    The numeric norm then equals 1 up to the truncated tail; the state is
    deliberately not renormalized so the tail deficit stays observable.
    """
    left, right = ecs_factors(params, cutoff, tail_tol)
    return TwoModeState(left @ right[0].T, cutoff)


def branch_terms(
    wv: WeakValueParams,
) -> list[tuple[complex, float, float]]:
    """Four (weight, sign_a, sign_b) branches of the conditional expansion.

    Ordering is fixed: A+ (+,+), A- (-,-), B+ (-,+), B- (+,-).  The weights
    sum to 4 for every parameter choice, which is what collapses the state
    back to |phi> at zero coupling.
    """
    w_x = weak_value_x(wv.theta1, wv.delta1)
    w_y = weak_value_y(wv.theta2, wv.delta2)
    return [
        ((1.0 + w_x) * (1.0 + w_y), +1.0, +1.0),
        ((1.0 - w_x) * (1.0 - w_y), -1.0, -1.0),
        ((1.0 - w_x) * (1.0 + w_y), -1.0, +1.0),
        ((1.0 + w_x) * (1.0 - w_y), +1.0, -1.0),
    ]


def meter_overlap(wv: WeakValueParams) -> float:
    """omega = cos(theta_1/2) cos(theta_2/2), the double |H> overlap."""
    return math.cos(0.5 * wv.theta1) * math.cos(0.5 * wv.theta2)


def _branch_weights(wv: WeakValueParams) -> tuple[complex, ...]:
    """(omega/4) (A+, A-, B+, B-), the four branch weights of the module docstring."""
    scale = 0.25 * meter_overlap(wv)
    return tuple(scale * weight for weight, _, _ in branch_terms(wv))


def _mixed(up: np.ndarray, down: np.ndarray, weights: tuple[complex, ...]) -> np.ndarray:
    """X = [A+ up + B- down, A- down + B+ up] from up = D_b(+u2) R and down = D_b(-u2) R."""
    a_plus, a_minus, b_plus, b_minus = weights
    return np.concatenate([a_plus * up + b_minus * down, a_minus * down + b_plus * up], axis=-1)


def _pointer_grid(
    left: np.ndarray,
    right: np.ndarray,
    wv: WeakValueParams,
    coupling: CouplingParams,
    displacement_scale: float,
) -> np.ndarray:
    """The raw pointer grid (omega/4) A X^T of the module docstring, dim_a x dim_b,
    from the factors L (dim_a x m) and R (dim_b x m)."""
    u1, u2 = displacement_scale * coupling.s1, displacement_scale * coupling.s2
    arms = np.concatenate(displace([u1, -u1], left), axis=-1)
    mixed = _mixed(*displace([u2, -u2], right), _branch_weights(wv))
    return arms @ mixed.T


def _pointer_factors(
    left: np.ndarray, right: np.ndarray, s1s, s2s, wvs, displacement_scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Factors of the raw pointer states over couplings and meter angles.

    right is the probe's R (dim_b x m) or a stack of members R_k sharing L.
    Returns arms (len(s1s) x dim_a x 4), A at each s1, and mixed (len(s2s) x
    len(wvs) x [K x] dim_b x 4), X at each s2, WeakValueParams [and member],
    so that the raw pointer grid is arms[i] @ mixed[j, k].T; each mode-b
    displacement is one product over all members' columns.  A and X are
    stored as their half sum and difference, [(D_a(+u1) + D_a(-u1)) L,
    (D_a(+u1) - D_a(-u1)) L] / 2 and [X_+ + X_-, X_+ - X_-]: nearly parallel
    arms at small u1, and nearly cancelling X_+ and X_- under strong
    post-selection, then cancel amplitude by amplitude, as in the dense
    grid, so Gram moments keep the dense accuracy at small P_s.  Raises
    CouplingParams' ValueError for a negative coupling.
    """
    CouplingParams(float(min(s1s)), float(min(s2s)))
    u1 = displacement_scale * np.asarray(s1s, dtype=np.float64)
    arms = 0.5 * _sum_and_difference(*np.split(displace(np.concatenate([u1, -u1]), left), 2))
    # Every member's columns side by side, so each mode-b displacement is one pass.
    dim_b, width = right.shape[-2:]
    columns = right.reshape(-1, dim_b, width).transpose(1, 0, 2).reshape(dim_b, -1)
    u2 = displacement_scale * np.asarray(s2s, dtype=np.float64)
    shifted = displace(np.concatenate([u2, -u2]), columns).reshape(2 * len(u2), dim_b, -1, width)
    up, down = shifted.transpose(0, 2, 1, 3).reshape(2, len(u2), *right.shape)
    mixed = np.array([_mixed(up, down, _branch_weights(wv)) for wv in wvs]).swapaxes(0, 1)
    return arms, _sum_and_difference(*np.split(mixed, 2, axis=-1))


def _sum_and_difference(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """[F_1 + F_2, F_1 - F_2], the two factor stacks' sum and difference side by side."""
    return np.concatenate([first + second, first - second], axis=-1)


def apply_displacement_branches(
    state: TwoModeState,
    wv: WeakValueParams,
    coupling: CouplingParams,
    displacement_scale: float = 0.5,
) -> TwoModeState:
    """(omega/4) sum of the four weighted displacement branches applied to state.

    The amplitudes enter the kernel of the module docstring as the factor
    pair L = amp, R = identity.
    """
    identity = np.eye(state.cutoff.dim_b, dtype=np.complex128)
    raw = _pointer_grid(state.amplitudes, identity, wv, coupling, displacement_scale)
    return TwoModeState(raw, state.cutoff)


def _phase_fixed(amp: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """amp times scale, rotated so its first largest-magnitude entry is real positive."""
    pivot = np.unravel_index(np.argmax(np.abs(amp)), amp.shape)
    mag = abs(amp[pivot])
    fixed = amp * (scale * (mag / amp[pivot] if mag else 1.0))
    # pivot * (mag / pivot) can keep an imaginary part of order eps^2 * mag.
    fixed[pivot] = scale * mag
    return fixed


def fix_global_phase(state: TwoModeState) -> TwoModeState:
    """Rotate the global phase so the largest-magnitude amplitude is real positive.

    Ties resolve to the first flat index, which makes repeated builds
    byte-reproducible.  A zero state is returned unchanged.
    """
    return TwoModeState(_phase_fixed(state.amplitudes), state.cutoff)


def _check_p_floor(p_s: float, p_floor: float) -> None:
    """Raise DegeneratePostSelectionError when P_s falls below p_floor, the
    measure-zero regime where the conditional state is undefined."""
    if p_s < p_floor:
        raise DegeneratePostSelectionError(
            f"post-selection probability {p_s:.3e} below floor {p_floor:.1e}"
        )


def _post_select(raw: np.ndarray, cutoff: FockCutoff, tail_tol: float, p_floor: float) -> PostSelectedOutcome:
    """The normalized, phase-fixed outcome of a raw pointer grid; raises
    _check_p_floor's error below p_floor and warns above tail_tol."""
    p_s = float(np.vdot(raw, raw).real)
    _check_p_floor(p_s, p_floor)
    state = _phase_fixed(raw, 1.0 / math.sqrt(p_s))
    warn_if_truncated(top_level_mass(state), tail_tol, "build_pointer_state")
    return PostSelectedOutcome(TwoModeState(state, cutoff), p_s)


def build_pointer_state(
    ecs: TwoModeState,
    wv: WeakValueParams,
    coupling: CouplingParams,
    displacement_scale: float = 0.5,
    tail_tol: float = DEFAULT_TAIL_TOL,
    p_floor: float = DEFAULT_P_FLOOR,
) -> PostSelectedOutcome:
    """Post-selected pointer state and success probability.

    Raises DegeneratePostSelectionError when P_s falls below p_floor, the
    measure-zero regime where the conditional state is undefined.
    """
    raw = apply_displacement_branches(ecs, wv, coupling, displacement_scale)
    return _post_select(raw.amplitudes, ecs.cutoff, tail_tol, p_floor)
