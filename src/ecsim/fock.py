"""Dense truncated Fock-space arithmetic for two bosonic modes.

States live on the product basis |n_a, n_b> with 0 <= n_a <= n_max_a and
0 <= n_b <= n_max_b, stored as a complex (n_max_a+1, n_max_b+1) amplitude
grid.  Single-mode operators are dense matrices applied to one tensor
factor at a time.  Everything is plain numpy; nothing here knows about
measurements or observables.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TruncationWarning

DEFAULT_TAIL_TOL = 1e-10

@dataclass(frozen=True)
class FockCutoff:
    """Per-mode truncation levels; mode a keeps n_max_a + 1 basis states."""

    n_max_a: int
    n_max_b: int

    def __post_init__(self) -> None:
        for label, n in (("n_max_a", self.n_max_a), ("n_max_b", self.n_max_b)):
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"{label} must be an integer >= 1, got {n!r}")

    @property
    def dim_a(self) -> int:
        return self.n_max_a + 1

    @property
    def dim_b(self) -> int:
        return self.n_max_b + 1

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """Immutable two-mode ket; amplitudes[n_a, n_b] = <n_a, n_b|psi>."""

    amplitudes: np.ndarray
    cutoff: FockCutoff

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (self.cutoff.dim_a, self.cutoff.dim_b):
            raise ValueError(
                f"amplitude grid shape {amp.shape} does not match cutoff "
                f"({self.cutoff.dim_a}, {self.cutoff.dim_b})"
            )
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True, eq=False)
class ModeOperator:
    """Dense single-mode operator on the truncated basis."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def n_max(self) -> int:
        return self.matrix.shape[0] - 1


def vacuum(cutoff: FockCutoff) -> TwoModeState:
    """|0, 0> on the given truncated basis."""
    amp = np.zeros((cutoff.dim_a, cutoff.dim_b), dtype=np.complex128)
    amp[0, 0] = 1.0
    return TwoModeState(amp, cutoff)


def coherent_column(alpha: complex, n_max: int, tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """Truncated coherent-state column: entry n is e^{-|alpha|^2/2} alpha^n / sqrt(n!).

    Entries are built by the cumulative recurrence c_n = c_{n-1} alpha / sqrt(n),
    which stays finite for any amplitude the truncated basis can represent.
    Warns with the measured norm deficit when 1 - sum |c_n|^2 exceeds tail_tol.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    col = np.empty(n_max + 1, dtype=np.complex128)
    col[0] = math.exp(-0.5 * abs(alpha) ** 2)
    col[1:] = alpha / np.sqrt(np.arange(1.0, n_max + 1))
    np.cumprod(col, out=col)
    deficit = max(0.0, 1.0 - float(np.sum(np.abs(col) ** 2)))
    if deficit > tail_tol:
        warnings.warn(
            TruncationWarning(
                f"coherent column |alpha|={abs(alpha):.4g} at n_max={n_max} "
                f"misses tail mass {deficit:.3e} (tolerance {tail_tol:.1e})"
            ),
            stacklevel=2,
        )
    return col


def annihilation_matrix(n_max: int) -> ModeOperator:
    mat = np.zeros((n_max + 1, n_max + 1), dtype=np.complex128)
    for n in range(1, n_max + 1):
        mat[n - 1, n] = math.sqrt(n)
    return ModeOperator(mat)


def creation_matrix(n_max: int) -> ModeOperator:
    return ModeOperator(annihilation_matrix(n_max).matrix.conj().T)


def number_matrix(n_max: int) -> ModeOperator:
    return ModeOperator(np.diag(np.arange(n_max + 1, dtype=np.complex128)))


def parity_matrix(n_max: int) -> ModeOperator:
    signs = np.array([(-1.0) ** n for n in range(n_max + 1)], dtype=np.complex128)
    return ModeOperator(np.diag(signs))


@lru_cache(maxsize=32)
def _quadrature_eigh(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (lam, V) of the truncated Q = a + a^dag, so Q = V diag(lam) V^T.

    Q is real symmetric tridiagonal; one decomposition per cutoff serves
    every displacement amplitude.
    """
    off = np.sqrt(np.arange(1.0, n_max + 1))
    lam, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    lam.setflags(write=False)
    vecs.setflags(write=False)
    return lam, vecs


@lru_cache(maxsize=4096)
def _displacement_raw(gamma: complex, n_max: int) -> np.ndarray:
    # With R = e^{i (arg gamma + pi/2) n}, the truncated generator satisfies
    # gamma a^dag - conj(gamma) a = -i |gamma| R Q R^dag exactly, because R
    # only rephases the off-diagonal ladder entries.  Its exponential is then
    # R V e^{-i |gamma| lam} V^T R^dag: unitary to rounding at every cutoff,
    # so downstream norms are preserved, and truncation shows up only in how
    # well column 0 matches the analytic coherent column.
    lam, vecs = _quadrature_eigh(n_max)
    angle = abs(gamma) * lam
    rotated = (vecs * np.cos(angle)) @ vecs.T - 1j * ((vecs * np.sin(angle)) @ vecs.T)
    phase = np.exp(1j * (cmath.phase(gamma) + 0.5 * math.pi) * np.arange(n_max + 1))
    mat = phase[:, None] * rotated * phase.conj()
    mat.setflags(write=False)
    return mat


def displacement_matrix(gamma: complex, n_max: int) -> ModeOperator:
    """Truncated displacement D(gamma) = exp(gamma a^dag - conj(gamma) a).

    Built from the cached eigendecomposition of the quadrature a + a^dag at
    this cutoff plus a diagonal phase rotation; no matrix exponential is
    evaluated.  Matrices are cached on (gamma, n_max); repeated grid
    evaluations reuse them without rebuilding.
    """
    return ModeOperator(_displacement_raw(complex(gamma), int(n_max)))


def apply_to_mode(op: ModeOperator, mode: str, state: TwoModeState) -> TwoModeState:
    """Apply a single-mode operator to tensor factor 'a' or 'b'.

    Linear, no renormalization.  Operators on different modes commute up to
    floating-point reassociation of the two matrix products.
    """
    amp = state.amplitudes
    if mode == "a":
        if op.matrix.shape[0] != state.cutoff.dim_a:
            raise ValueError(
                f"operator dimension {op.matrix.shape[0]} does not match mode a "
                f"dimension {state.cutoff.dim_a}"
            )
        out = op.matrix @ amp
    elif mode == "b":
        if op.matrix.shape[0] != state.cutoff.dim_b:
            raise ValueError(
                f"operator dimension {op.matrix.shape[0]} does not match mode b "
                f"dimension {state.cutoff.dim_b}"
            )
        out = amp @ op.matrix.T
    else:
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    return TwoModeState(out, state.cutoff)


def expectation(
    state: TwoModeState,
    op_a: ModeOperator | None = None,
    op_b: ModeOperator | None = None,
) -> complex:
    """<psi| (A tensor B) |psi> with identity filled in for omitted factors."""
    transformed = state
    if op_a is not None:
        transformed = apply_to_mode(op_a, "a", transformed)
    if op_b is not None:
        transformed = apply_to_mode(op_b, "b", transformed)
    return inner(state, transformed)


def inner(u: TwoModeState, v: TwoModeState) -> complex:
    """<u|v>, conjugate-linear in the first argument."""
    if u.cutoff != v.cutoff:
        raise ValueError("inner product requires matching cutoffs")
    return complex(np.vdot(u.amplitudes, v.amplitudes))


def norm(u: TwoModeState) -> float:
    return float(np.linalg.norm(u.amplitudes))


def tail_mass(state: TwoModeState) -> float:
    """Probability mass on the top retained level of either mode."""
    return float(top_level_mass(state.amplitudes))


def top_level_mass(amps: np.ndarray) -> np.ndarray:
    """tail_mass over the last two axes of an amplitude grid or a stack of them."""
    # The corner cell sits in both edges; count it once.
    top_a = np.sum(np.abs(amps[..., -1, :]) ** 2, axis=-1)
    return top_a + np.sum(np.abs(amps[..., :-1, -1]) ** 2, axis=-1)


def warn_if_truncated(mass: float, tail_tol: float, context: str) -> None:
    """Emit TruncationWarning when a top-level mass exceeds tail_tol."""
    if mass > tail_tol:
        warnings.warn(
            TruncationWarning(
                f"{context}: top-level tail mass {mass:.3e} exceeds tolerance {tail_tol:.1e}"
            ),
            stacklevel=3,
        )


_MODE_AXIS = {"a": 0, "b": 1}


def _mode_axis(mode: str) -> int:
    if mode not in _MODE_AXIS:
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    return _MODE_AXIS[mode]


def annihilate(arr: np.ndarray, axis: int) -> np.ndarray:
    """Annihilation on one Fock index of an array; exact, same shape (top level zeroed)."""
    out = np.zeros_like(arr)
    n = np.sqrt(np.arange(1, arr.shape[axis], dtype=np.float64))
    out.swapaxes(axis, -1)[..., :-1] = n * arr.swapaxes(axis, -1)[..., 1:]
    return out


def create(arr: np.ndarray, axis: int) -> np.ndarray:
    """Creation on one Fock index of an array, grown by one level so it is exact."""
    shape = list(arr.shape)
    shape[axis] += 1
    out = np.zeros(shape, dtype=np.complex128)
    n = np.sqrt(np.arange(1, shape[axis], dtype=np.float64))
    out.swapaxes(axis, -1)[..., 1:] = n * arr.swapaxes(axis, -1)
    return out


def apply_annihilation(state: TwoModeState, mode: str) -> TwoModeState:
    """a|psi> (or b|psi>).  Exact on the truncated support; same cutoff."""
    return TwoModeState(annihilate(state.amplitudes, _mode_axis(mode)), state.cutoff)


def apply_creation(state: TwoModeState, mode: str) -> TwoModeState:
    """a^dag|psi> with the cutoff grown by one level on the raised mode.

    Growing the target space keeps the result exact for every input, so
    quadratic moments built from these applications carry no boundary
    defect from the truncated commutator.
    """
    out = create(state.amplitudes, _mode_axis(mode))
    return TwoModeState(out, FockCutoff(out.shape[0] - 1, out.shape[1] - 1))
