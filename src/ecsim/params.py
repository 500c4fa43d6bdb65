"""The parameter records of one scenario, with no numpy.

EcsParams, WeakValueParams and CouplingParams describe the probe, the two
meters and their couplings (see the measurement module for the model); the
Fock basis of the library's routes is the fock module's FockCutoff.  The
records validate themselves, and _meter_rows gives each meter's exact
amplitudes (c_i, d_i).  _Record is the base of every record of the package.
Nothing here needs numpy or dataclasses, so the sweep CLI can import it
without loading either.
"""

from __future__ import annotations

import cmath
import math
import operator

from .errors import DegeneratePostSelectionError

# tan(theta/2) overflows any useful amplitude well before theta reaches pi;
# reject everything inside this guard band.
THETA_GUARD = math.pi - 1e-9

# Success probabilities below this are treated as measure-zero post-selection.
DEFAULT_P_FLOOR = 1e-12

TWO_PI = 2.0 * math.pi

# Writes a field past _Record.__setattr__, which refuses every assignment.
_store = object.__setattr__


class _Record:
    """Base of the package's records: immutable value objects over __slots__.

    Each record names its fields, in constructor order, in __slots__ and
    validates them in __init__, which stores them with _set.  Assignment and
    deletion raise AttributeError.  A record equals another of its exact type
    with equal fields and hashes by its fields; repr shows the fields as the
    constructor takes them; replace(**changes) builds a new record, validated
    again.  copy, deepcopy and pickle rebuild a record through _restore,
    which stores the values as they are.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _store(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _fields(self) -> dict:
        return dict(zip(self.__slots__, self._values()))

    def replace(self, **changes):
        return type(self)(**{**self._fields(), **changes})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return _restore, (type(self), self._values())


class _ArrayRecord(_Record):
    """A record that holds numpy arrays: it equals and hashes as itself only."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _restore(cls: type, values: tuple) -> _Record:
    """The record of type cls with the field values as given, unvalidated."""
    record = object.__new__(cls)
    record._set(*values)
    return record


class EcsParams(_Record):
    """Probe-state parameters: amplitude r >= 0, phases mu and varphi."""

    __slots__ = ("r", "mu", "varphi")

    def __init__(self, r: float, mu: float = 0.0, varphi: float = 0.0) -> None:
        # normalization squares r, and so does each coherent column.
        if not (r >= 0.0 and math.isfinite(r * r)):
            raise ValueError(f"r must be >= 0 with a finite square, got {r!r}")
        for label, phase in (("mu", mu), ("varphi", varphi)):
            if not math.isfinite(phase):
                raise ValueError(f"{label} must be finite, got {phase!r}")
        self._set(r, _reduced_phase(mu), _reduced_phase(varphi))

    @property
    def alpha(self) -> complex:
        return self.r * cmath.exp(1j * self.mu)

    @property
    def normalization(self) -> float:
        """Closed-form N = [2 (1 + e^{-|alpha|^2})]^{-1/2}."""
        return 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-self.r**2)))


class WeakValueParams(_Record):
    """Meter pre-selection angles; theta_i in [0, pi), delta_i in [0, 2 pi]."""

    __slots__ = ("theta1", "delta1", "theta2", "delta2")

    def __init__(self, theta1: float, delta1: float, theta2: float, delta2: float) -> None:
        for label, theta in (("theta1", theta1), ("theta2", theta2)):
            if not (0.0 <= theta < math.pi) or theta > THETA_GUARD:
                raise ValueError(
                    f"{label} must lie in [0, pi) below the divergence guard "
                    f"{THETA_GUARD!r}, got {theta!r}"
                )
        for label, delta in (("delta1", delta1), ("delta2", delta2)):
            if not (0.0 <= delta <= TWO_PI):
                raise ValueError(f"{label} must lie in [0, 2 pi], got {delta!r}")
        self._set(theta1, delta1, theta2, delta2)


class CouplingParams(_Record):
    """Dimensionless interaction strengths s_i >= 0."""

    __slots__ = ("s1", "s2")

    def __init__(self, s1: float, s2: float) -> None:
        for label, s in (("s1", s1), ("s2", s2)):
            if not (s >= 0.0 and math.isfinite(s)):
                raise ValueError(f"{label} must be finite and >= 0, got {s!r}")
        self._set(s1, s2)


def _reduced_phase(phase: float) -> float:
    """phase reduced into [0, 2 pi).  float % returns 2 pi itself for a tiny
    negative phase, which a second reduction would map to 0.0."""
    reduced = float(phase) % TWO_PI
    return 0.0 if reduced == TWO_PI else reduced


def _meter_rows(wv: WeakValueParams) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """The amplitudes ((c_1, d_1), (c_2, d_2)) of the measurement module's meter operators."""
    return ((math.cos(0.5 * wv.theta1), cmath.exp(1j * wv.delta1) * math.sin(0.5 * wv.theta1)),
            (math.cos(0.5 * wv.theta2), -1j * cmath.exp(1j * wv.delta2) * math.sin(0.5 * wv.theta2)))


def _positive_int(label: str, value) -> int:
    """value as a Python int when it is an integer >= 1 but not a bool; numpy's integers pass."""
    try:
        if not isinstance(value, bool) and (n := operator.index(value)) >= 1:
            return n
    except TypeError:
        pass
    raise ValueError(f"{label} must be an integer >= 1, got {value!r}")


def _check_p_floor(p_s: float) -> None:
    """Raise DegeneratePostSelectionError when P_s falls below DEFAULT_P_FLOOR,
    the measure-zero regime where the conditional state is undefined."""
    if p_s < DEFAULT_P_FLOOR:
        raise DegeneratePostSelectionError(
            f"post-selection probability {p_s:.3e} below floor {DEFAULT_P_FLOOR:.1e}"
        )
