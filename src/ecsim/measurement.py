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
                         + D_a(-u1) L (A- D_b(-u2) R + B+ D_b(+u2) R)^T ],

a pointer state of rank at most 4, built from displacements applied to two
columns per mode.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePostSelectionError
from .fock import (
    DEFAULT_TAIL_TOL,
    FockCutoff,
    TwoModeState,
    apply_to_mode,  # noqa: F401  re-exported; perfbench/test_perfbench.py binds it here
    coherent_column,
    displacement_matrix,
    norm,
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
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError(f"r must be finite and >= 0, got {self.r!r}")
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


def build_ecs(
    params: EcsParams,
    cutoff: FockCutoff,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> TwoModeState:
    """Assemble |phi> on the truncated basis using the closed-form N.

    The numeric norm then equals 1 up to the truncated tail; the state is
    deliberately not renormalized so the tail deficit stays observable.
    """
    alpha = params.alpha
    col_a = coherent_column(alpha, cutoff.n_max_a, tail_tol)
    col_b = coherent_column(alpha * cmath.exp(1j * params.varphi), cutoff.n_max_b, tail_tol)
    amp = np.zeros((cutoff.dim_a, cutoff.dim_b), dtype=np.complex128)
    amp[:, 0] += col_a
    amp[0, :] += col_b
    state = TwoModeState(params.normalization * amp, cutoff)
    warn_if_truncated(state, tail_tol, "build_ecs")
    return state


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


def _displaced_factor(u: float, n_max: int, factor: np.ndarray | None) -> np.ndarray:
    """D(u) @ factor, where factor None stands for the identity; D(0) is exactly 1."""
    if u == 0.0:
        return np.eye(n_max + 1, dtype=np.complex128) if factor is None else factor
    mat = displacement_matrix(u, n_max).matrix
    return mat if factor is None else mat @ factor


def apply_displacement_branches(
    state: TwoModeState,
    wv: WeakValueParams,
    coupling: CouplingParams,
    displacement_scale: float = 0.5,
) -> TwoModeState:
    """(omega/4) sum of the four weighted displacement branches applied to state.

    The amplitudes are factored as L R^T and the branches grouped by the
    sign of the mode-a arm, as in the module docstring, so the displacements
    act on L and R only.  A state supported on row 0 and column 0 (the ECS,
    or the varphi derivative of its mode-b branch) splits exactly into two
    columns, L = [amp[:, 0], e0] and R = [e0, amp[0, :] with entry 0 zeroed].
    Any other state keeps L = amp and R = 1.
    """
    u1 = displacement_scale * coupling.s1
    u2 = displacement_scale * coupling.s2
    cutoff = state.cutoff
    amp = state.amplitudes
    if amp[1:, 1:].any():
        left, right = amp, None
    else:
        left = np.zeros((cutoff.dim_a, 2), dtype=np.complex128)
        left[:, 0] = amp[:, 0]
        left[0, 1] = 1.0
        right = np.zeros((cutoff.dim_b, 2), dtype=np.complex128)
        right[0, 0] = 1.0
        right[1:, 1] = amp[0, 1:]
    (a_plus, _, _), (a_minus, _, _), (b_plus, _, _), (b_minus, _, _) = branch_terms(wv)
    a_up = _displaced_factor(u1, cutoff.n_max_a, left)
    a_down = _displaced_factor(-u1, cutoff.n_max_a, left)
    b_up = _displaced_factor(u2, cutoff.n_max_b, right)
    b_down = _displaced_factor(-u2, cutoff.n_max_b, right)
    total = a_up @ (a_plus * b_up + b_minus * b_down).T
    total += a_down @ (a_minus * b_down + b_plus * b_up).T
    return TwoModeState(0.25 * meter_overlap(wv) * total, cutoff)


def unnormalized_pointer_state(
    ecs: TwoModeState,
    wv: WeakValueParams,
    coupling: CouplingParams,
    displacement_scale: float = 0.5,
) -> TwoModeState:
    """|Phi~> before post-selection renormalization; <Phi~|Phi~> = P_s."""
    return apply_displacement_branches(ecs, wv, coupling, displacement_scale)


def fix_global_phase(state: TwoModeState) -> TwoModeState:
    """Rotate the global phase so the largest-magnitude amplitude is real positive.

    Ties resolve to the first flat index, which makes repeated builds
    byte-reproducible.
    """
    amp = state.amplitudes
    idx = int(np.argmax(np.abs(amp)))
    pivot = amp.flat[idx]
    mag = abs(pivot)
    if mag == 0.0:
        return state
    return TwoModeState(amp * (mag / pivot), state.cutoff)


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
    raw = unnormalized_pointer_state(ecs, wv, coupling, displacement_scale)
    p_s = norm(raw) ** 2
    if p_s < p_floor:
        raise DegeneratePostSelectionError(
            f"post-selection probability {p_s:.3e} below floor {p_floor:.1e}"
        )
    normalized = TwoModeState(raw.amplitudes / math.sqrt(p_s), raw.cutoff)
    normalized = fix_global_phase(normalized)
    warn_if_truncated(normalized, tail_tol, "build_pointer_state")
    return PostSelectedOutcome(state=normalized, success_probability=p_s)
