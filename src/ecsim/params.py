"""The parameter records of one scenario, with no numpy.

EcsParams, WeakValueParams and CouplingParams describe the probe, the two
meters and their couplings (see the measurement module for the model), and
FockCutoff the truncated basis of the library's Fock routes.  The records
validate themselves, and _meter_rows gives each meter's exact amplitudes
(c_i, d_i).  Nothing here needs numpy, so the sweep CLI can import it
without loading numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegeneratePostSelectionError

# tan(theta/2) overflows any useful amplitude well before theta reaches pi;
# reject everything inside this guard band.
THETA_GUARD = math.pi - 1e-9

# Success probabilities below this are treated as measure-zero post-selection.
DEFAULT_P_FLOOR = 1e-12

DEFAULT_TAIL_TOL = 1e-10

TWO_PI = 2.0 * math.pi


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


def _meter_rows(wv: WeakValueParams) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """The amplitudes ((c_1, d_1), (c_2, d_2)) of the measurement module's meter operators."""
    return ((math.cos(0.5 * wv.theta1), cmath.exp(1j * wv.delta1) * math.sin(0.5 * wv.theta1)),
            (math.cos(0.5 * wv.theta2), -1j * cmath.exp(1j * wv.delta2) * math.sin(0.5 * wv.theta2)))


def _check_p_floor(p_s: float) -> None:
    """Raise DegeneratePostSelectionError when P_s falls below DEFAULT_P_FLOOR,
    the measure-zero regime where the conditional state is undefined."""
    if p_s < DEFAULT_P_FLOOR:
        raise DegeneratePostSelectionError(
            f"post-selection probability {p_s:.3e} below floor {DEFAULT_P_FLOOR:.1e}"
        )
