"""Truncated Fock-space arithmetic for two bosonic modes.

States live on the product basis |n_a, n_b> with 0 <= n_a <= n_max_a and
0 <= n_b <= n_max_b, stored as a complex (n_max_a+1, n_max_b+1) amplitude
grid.  The ladder operators act on one Fock index of any array (a grid, a
stack of grids or a stack of single-mode factors).  displace applies a whole
batch of displacements to a single-mode factor in the eigenbasis of the
quadrature a + a^dag, without forming or caching any matrix;
displacement_matrix is that kernel applied to the identity, and
apply_to_mode applies a dense operator to a state's tensor factor.  The
top-level mass of a grid measures truncation.  Everything is plain numpy;
nothing here knows about measurements or observables.
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


def coherent_column(alpha: complex, n_max: int, tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """Truncated coherent-state column: entry n is e^{-|alpha|^2/2} alpha^n / sqrt(n!).

    Entries are built by the cumulative recurrence c_n = c_{n-1} alpha / sqrt(n),
    which stays finite for any amplitude the truncated basis can represent.
    Warns with the measured norm deficit when 1 - sum |c_n|^2 exceeds tail_tol.
    Raises ValueError when |alpha|^2 overflows a double.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not math.isfinite(abs(alpha) * abs(alpha)):
        raise ValueError(f"coherent amplitude {alpha!r} has no finite |alpha|^2")
    col = np.empty(n_max + 1, dtype=np.complex128)
    col[0] = math.exp(-0.5 * abs(alpha) ** 2)
    col[1:] = alpha / np.sqrt(np.arange(1.0, n_max + 1))
    np.cumprod(col, out=col)
    deficit = max(0.0, 1.0 - np.vdot(col, col).real)
    if deficit > tail_tol:
        warnings.warn(
            TruncationWarning(
                f"coherent column |alpha|={abs(alpha):.4g} at n_max={n_max} "
                f"misses tail mass {deficit:.3e} (tolerance {tail_tol:.1e})"
            ),
            stacklevel=2,
        )
    return col


@lru_cache(maxsize=32)
def _quadrature_eigh(n_max: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(max(lam), V, rates) of the truncated Q = a + a^dag = V diag(lam) V^T.

    Q is real symmetric tridiagonal; one decomposition per cutoff serves
    every displacement amplitude.  rates (3 x dim x 1 x 1) stacks n, -n and
    -lam, the per-level rates of displace's three phase factors.
    """
    off = np.sqrt(np.arange(1.0, n_max + 1))
    lam, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    levels = np.arange(n_max + 1.0)
    rates = np.stack([levels, -levels, -lam])[:, :, None, None]
    vecs.setflags(write=False)
    rates.setflags(write=False)
    return float(lam[-1]), vecs, rates


def displace(amplitudes, factor: np.ndarray) -> np.ndarray:
    """The stack D(u_k) F (K x dim x m) over a 1-D array of K amplitudes u_k,
    for a factor F (dim x m) on the truncated basis.

    With P_k = diag(p_k), p_k = e^{i (arg u_k + pi/2) n}, the truncated
    generator satisfies u a^dag - conj(u) a = -i |u| P_k Q P_k^dag exactly,
    because P_k only rephases the off-diagonal ladder entries.  So

        D(u_k) F = p_k o V (e^{-i |u_k| lam} o V^T (conj(p_k) o F)),

    unitary to rounding at every cutoff, and truncation shows up only in how
    well D(u) e0 matches the analytic coherent column.  No matrix is formed:
    the real V multiplies all K m complex columns at once through float64
    views.  Slots with u_k = 0 hold F exactly.  A slot's bits depend on the
    width of those real products, 2 K m columns, so callers whose batched
    and one-point results must agree bit for bit pass +-u pairs of
    even-width factors, which keeps every width a multiple of 8.  Raises
    ValueError when a rotation angle |u_k| max(lam) overflows a double.
    """
    us = np.asarray(amplitudes, dtype=np.complex128).tolist()
    dim, m = factor.shape
    k = len(us)
    lam_max, vecs, rates = _quadrature_eigh(dim - 1)
    mags = [abs(u) for u in us]
    overflowing = [u for u, mag in zip(us, mags) if not math.isfinite(mag * lam_max)]
    if overflowing:
        raise ValueError(f"displacement amplitude {overflowing[0]!r} overflows at n_max={dim - 1}")
    thetas = [cmath.phase(u) + 0.5 * math.pi for u in us]
    # phases[0] = p, phases[1] = conj(p), phases[2] = e^{-i |u| lam}, each dim x K x 1.
    angles = rates * np.array(thetas + thetas + mags).reshape(3, 1, k, 1)
    phases = np.empty(angles.shape, dtype=np.complex128)
    np.cos(angles, out=phases.real)
    np.sin(angles, out=phases.imag)

    def real_product(mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return (mat @ cols.view(np.float64).reshape(dim, -1)).view(np.complex128).reshape(dim, k, m)

    spectral = real_product(vecs.T, phases[1] * factor[:, None, :])
    spectral *= phases[2]
    back = real_product(vecs, spectral)
    out = np.empty((k, dim, m), dtype=np.complex128)
    np.multiply(back.transpose(1, 0, 2), phases[0].transpose(1, 0, 2), out=out)
    if 0.0 in mags:
        out[[mag == 0.0 for mag in mags]] = factor
    return out


def displacement_matrix(gamma: complex, n_max: int) -> ModeOperator:
    """Truncated displacement D(gamma) = exp(gamma a^dag - conj(gamma) a).

    displace applied to the identity: the eigendecomposition of the
    quadrature a + a^dag at this cutoff plus a diagonal phase rotation, with
    no matrix exponential and no cache.  Raises ValueError when the rotation
    angle |gamma| * max(lam) overflows a double.
    """
    identity = np.eye(int(n_max) + 1, dtype=np.complex128)
    return ModeOperator(displace([gamma], identity)[0])


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


def top_level_mass(amps: np.ndarray) -> np.ndarray:
    """Probability mass on the top retained level of either mode, over the
    last two axes of an amplitude grid or a stack of them."""
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
