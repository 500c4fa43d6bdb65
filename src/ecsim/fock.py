"""Truncated Fock-space arithmetic for two bosonic modes.

States live on the product basis |n_a, n_b> with 0 <= n_a <= n_max_a and
0 <= n_b <= n_max_b, stored as a complex (n_max_a+1, n_max_b+1) amplitude
grid; FockCutoff holds the two levels.  The library's Fock routes take a
cutoff, and warn_if_truncated warns where the truncated mass exceeds
TAIL_TOL, the one tail tolerance of the package.  lowering_grid is the
factor sqrt(n_a) sqrt(n_b) that a b puts on a grid's interior, and a^dag
b^dag on a grid grown by one level.  One eigenbasis per cutoff, of the
quadratures a + a^dag and p = i (a^dag - a), is cached with the level
constants.  In it, with no matrix formed, meter applies one meter operator
c cos(u p) - i d sin(u p) over a batch of signed real arms u, each slot bit
for bit the call at that arm alone; it is the one kernel for both the
meters and the displacements D(u) = e^{-i u p}.  A complex amplitude
gamma = e^{i phi} t is the rotation diag(e^{i phi n}) of the real D(t), and
displacement_matrix is that rotation around meter on the identity.
apply_to_mode applies a dense operator to a state's tensor factor.
Everything is plain numpy; nothing here knows about measurements or
observables.
"""

from __future__ import annotations

import cmath
import math
import warnings
from functools import lru_cache

import numpy as np

from .errors import TruncationWarning
from .params import _ArrayRecord, _Record, _positive_int

# The truncated mass a Fock route accepts without a TruncationWarning.
TAIL_TOL = 1e-10

# The largest n_max per mode.  The quadrature eigenbasis is a dense
# (n_max + 1)^2 eigenproblem and the dense grids hold (n_max_a + 1)(n_max_b + 1)
# amplitudes: 8 MB and 16 MB at this cutoff, 74.5 GiB for the eigh at 100000.
MAX_N_MAX = 1000


class FockCutoff(_Record):
    """Per-mode truncation levels; mode a keeps n_max_a + 1 basis states."""

    __slots__ = ("n_max_a", "n_max_b")

    def __init__(self, n_max_a: int, n_max_b: int) -> None:
        for label, n in (("n_max_a", n_max_a), ("n_max_b", n_max_b)):
            if _positive_int(label, n) > MAX_N_MAX:
                raise ValueError(f"{label} must be at most {MAX_N_MAX} per mode, got {n}")
        self._set(int(n_max_a), int(n_max_b))

    @property
    def dim_a(self) -> int:
        return self.n_max_a + 1

    @property
    def dim_b(self) -> int:
        return self.n_max_b + 1


# The cutoff of the Fock routes that the caller does not give one.
DEFAULT_CUTOFF = FockCutoff(40, 40)


class TwoModeState(_ArrayRecord):
    """Immutable two-mode ket; amplitudes[n_a, n_b] = <n_a, n_b|psi> on a 2-D grid
    whose shape (n_max_a + 1, n_max_b + 1) is its cutoff, held to FockCutoff's checks."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray) -> None:
        amp = np.array(amplitudes, dtype=np.complex128)
        if amp.ndim != 2:
            raise ValueError(f"amplitude grid must be 2-D, got shape {amp.shape}")
        FockCutoff(amp.shape[0] - 1, amp.shape[1] - 1)
        amp.setflags(write=False)
        self._set(amp)

    @property
    def cutoff(self) -> FockCutoff:
        return FockCutoff(self.amplitudes.shape[0] - 1, self.amplitudes.shape[1] - 1)


class ModeOperator(_ArrayRecord):
    """Dense single-mode operator on the truncated basis."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        mat = mat.copy()
        mat.setflags(write=False)
        self._set(mat)


def coherent_column(alpha: complex, n_max: int) -> np.ndarray:
    """Truncated coherent-state column: entry n is e^{-|alpha|^2/2} alpha^n / sqrt(n!).

    Entries are built by the cumulative recurrence c_n = c_{n-1} alpha / sqrt(n),
    which stays finite for any amplitude the truncated basis can represent.
    Warns with the measured norm deficit when 1 - sum |c_n|^2 exceeds TAIL_TOL.
    Raises ValueError when |alpha|^2 overflows a double.
    """
    n_max = _positive_int("n_max", n_max)
    if not math.isfinite(abs(alpha) * abs(alpha)):
        raise ValueError(f"coherent amplitude {alpha!r} has no finite |alpha|^2")
    col = np.empty(n_max + 1, dtype=np.complex128)
    col[0] = math.exp(-0.5 * abs(alpha) ** 2)
    col[1:] = alpha / levels(n_max + 1)[1][1:]
    np.cumprod(col, out=col)
    deficit = max(0.0, 1.0 - np.vdot(col, col).real)
    if deficit > TAIL_TOL:
        warn_if_truncated(deficit, f"coherent column |alpha|={abs(alpha):.4g} at n_max={n_max}")
    return col


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=64)
def levels(dim: int) -> tuple[np.ndarray, ...]:
    """Read-only (n, sqrt(n)) over the levels 0 .. dim - 1."""
    n = np.arange(float(dim))
    return _frozen(n, np.sqrt(n))


@lru_cache(maxsize=32)
def lowering_grid(dim_a: int, dim_b: int) -> np.ndarray:
    """Read-only sqrt(n_a) sqrt(n_b) over n_a, n_b >= 1, the factor a b puts on a grid's interior."""
    return _frozen(np.multiply.outer(levels(dim_a)[1][1:], levels(dim_b)[1][1:]))[0]


@lru_cache(maxsize=32)
def _quadrature_eigh(n_max: int) -> tuple[np.ndarray, ...]:
    """Read-only (lam, V, W^dag, i^n) per cutoff: Q = a + a^dag = V diag(lam) V^T
    and p = i (a^dag - a) = W diag(lam) W^dag with W = diag(i^n) V exactly."""
    root = levels(n_max + 1)[1]
    lam, vecs = np.linalg.eigh(np.diag(root[1:], 1) + np.diag(root[1:], -1))
    turns = np.array([1.0, 1j, -1.0, -1j])[np.arange(n_max + 1) % 4, None]
    return _frozen(lam, vecs, (turns * vecs).conj().T.copy(), turns)


def meter(arms, row, factors: np.ndarray) -> np.ndarray:
    """K F = W [c cos(u lam) - i d sin(u lam)] W^dag F = (c cos(u p) - i d sin(u p)) F,
    len(arms) x F.shape, for each signed real arm u and the one row (c, d),
    on a factor F (dim x m) or a stack (... x dim x m).  The row (1, 1) is
    the displacement D(u) = e^{-i u p}.

    W^dag F is shared by all arms; W = diag(i^n) V then acts on each slot
    as one real dim x 2m slice of a stacked product, so a slot's bits do not
    depend on how many arms or factors share the call.  Slots with u = 0
    hold c F exactly.  Raises ValueError naming |u| of the first arm whose
    angle |u| max(lam) overflows a double.
    """
    us = [float(u) for u in arms]
    c, d = np.asarray(row, dtype=np.complex128)
    lam, vecs, wh, turns = _quadrature_eigh(factors.shape[-2] - 1)
    overflowing = [u for u in us if not math.isfinite(u * float(lam[-1]))]
    if overflowing:
        raise ValueError(f"meter arm |u| = {abs(overflowing[0])!r} overflows at n_max={len(lam) - 1}")
    angles = np.multiply.outer(us, lam)
    diag = c * np.cos(angles) - 1j * d * np.sin(angles)
    lead = (1,) * (factors.ndim - 2)
    out = diag.reshape(len(us), *lead, -1, 1) * (wh @ factors)
    out = turns * (vecs @ out.view(np.float64)).view(np.complex128)
    if 0.0 in us:
        out[[u == 0.0 for u in us]] = c * factors
    return out


def displacement_matrix(gamma: complex, n_max: int) -> ModeOperator:
    """Truncated displacement D(gamma) = exp(gamma a^dag - conj(gamma) a);
    raises meter's ValueError on overflow.  With gamma = e^{i phi} t, phi =
    arg gamma mod pi and t real, R = diag(e^{i phi n}) rephases a to
    e^{-i phi} a exactly on the truncated basis, so D(gamma) = R D(t) R^dag,
    D(t) the meter of arm t and row (1, 1) on the identity; a real gamma has R = 1."""
    dim = int(n_max) + 1
    angle = cmath.phase(gamma)
    phi = angle % math.pi
    t = abs(gamma) if angle == phi else -abs(gamma)
    r = np.exp(1j * phi * levels(dim)[0])
    shifted = meter([t], (1.0, 1.0), np.eye(dim, dtype=np.complex128))[0]
    return ModeOperator(r[:, None] * shifted * np.conj(r))


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
    return TwoModeState(out)


def warn_if_truncated(mass: float, context: str) -> None:
    """Emit TruncationWarning when a tail mass exceeds TAIL_TOL."""
    if mass > TAIL_TOL:
        warnings.warn(
            TruncationWarning(f"{context}: tail mass {mass:.3e} exceeds tolerance {TAIL_TOL:.1e}"),
            stacklevel=3,
        )
