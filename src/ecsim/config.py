"""Run configuration shared by the library entry points and the sweep CLI."""

from __future__ import annotations

import math

from .params import DEFAULT_TAIL_TOL, CouplingParams, EcsParams, FockCutoff, WeakValueParams, _Record

QFI_GAUGES = ("fixed-kappa", "renormalized")
# The largest n_max per mode.  The quadrature eigenbasis is a dense
# (n_max + 1)^2 eigenproblem and the dense grids hold (n_max_a + 1)(n_max_b + 1)
# amplitudes: 8 MB and 16 MB at this cutoff, 74.5 GiB for the eigh at 100000.
MAX_N_MAX = 1000
# The config fields that hold a record; to_dict spells out their fields.
_RECORDS = {"ecs": EcsParams, "wv": WeakValueParams, "coupling": CouplingParams, "cutoff": FockCutoff}
# default_config's records; they are immutable, so every config shares them.
_BASELINE = {
    "ecs": EcsParams(r=0.1, mu=0.5 * math.pi, varphi=0.5 * math.pi),
    "wv": WeakValueParams(theta1=0.8 * math.pi, delta1=0.5 * math.pi, theta2=0.8 * math.pi, delta2=0.5 * math.pi),
    "coupling": CouplingParams(s1=0.0, s2=0.0),
}


class RangeSpec(_Record):
    """Inclusive linear range with a fixed point count.

    points == 1 pins the range to its start value (stop must then agree);
    points >= 2 requires stop > start.
    """

    __slots__ = ("start", "stop", "points")

    def __init__(self, start: float, stop: float, points: int) -> None:
        if not isinstance(points, int) or points < 1:
            raise ValueError(f"points must be an integer >= 1, got {points!r}")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("range endpoints must be finite")
        if not math.isfinite(stop - start):
            raise ValueError(f"range width stop - start overflows for [{start}, {stop}]")
        if points == 1:
            if stop != start:
                raise ValueError("single-point range requires stop == start")
        elif stop <= start:
            raise ValueError(
                f"range requires stop > start for points >= 2, got [{start}, {stop}]"
            )
        self._set(start, stop, points)

    def values(self) -> list[float]:
        """The points start + i step, step = (stop - start) / (points - 1), and
        stop itself last: np.linspace's values, bit for bit."""
        if self.points == 1:
            return [float(self.start)]
        start, width, div = float(self.start), float(self.stop - self.start), self.points - 1
        step = width / div
        # np.linspace scales i / div by the width where the step underflows to zero.
        values = [start + i * step if step else start + i / div * width for i in range(div)]
        return values + [float(self.stop)]

    @property
    def is_single(self) -> bool:
        return self.points == 1


def _wigner_axes(re_gamma: RangeSpec, re_beta: RangeSpec) -> tuple[list[float], list[float]]:
    """Real gamma and beta values of a Wigner grid; ValueError below 2 points per axis."""
    if re_gamma.points < 2 or re_beta.points < 2:
        raise ValueError("wigner grid needs at least 2 points per axis")
    return re_gamma.values(), re_beta.values()


class WeakMeasurementConfig(_Record):
    """Full parameter set for one post-selected weak-measurement scenario."""

    __slots__ = ("ecs", "wv", "coupling", "theta_big", "cutoff", "tail_tolerance", "qfi_gauge")

    def __init__(
        self,
        ecs: EcsParams,
        wv: WeakValueParams,
        coupling: CouplingParams,
        theta_big: float = 0.5 * math.pi,
        cutoff: FockCutoff = FockCutoff(40, 40),  # one immutable record, shared by every config
        tail_tolerance: float = DEFAULT_TAIL_TOL,
        qfi_gauge: str = "fixed-kappa",
    ) -> None:
        if qfi_gauge not in QFI_GAUGES:
            raise ValueError(f"qfi_gauge must be one of {QFI_GAUGES}, got {qfi_gauge!r}")
        if not (0.0 < tail_tolerance <= 1e-4):
            raise ValueError(
                f"tail_tolerance must lie in (0, 1e-4], got {tail_tolerance!r}"
            )
        if max(cutoff.n_max_a, cutoff.n_max_b) > MAX_N_MAX:
            raise ValueError(
                f"cutoff n_max must be at most {MAX_N_MAX} per mode, "
                f"got n_max_a={cutoff.n_max_a}, n_max_b={cutoff.n_max_b}"
            )
        if not (math.isfinite(theta_big)):
            raise ValueError(f"theta_big must be finite, got {theta_big!r}")
        self._set(ecs, wv, coupling, theta_big, cutoff, tail_tolerance, qfi_gauge)

    # The Fock routes below import fock and measurement, and so numpy, on first use.  Their
    # annotations name those modules' types; they are never evaluated.
    def ecs_state(self) -> TwoModeState:
        from .measurement import build_ecs

        return build_ecs(self.ecs, self.cutoff, self.tail_tolerance)

    def raw_pointer_state(self) -> TwoModeState:
        from .fock import TwoModeState

        return TwoModeState(self._raw_pointer_grid(), self.cutoff)

    def pointer_outcome(self) -> PostSelectedOutcome:
        from .measurement import _post_select

        return _post_select(self._raw_pointer_grid(), self.cutoff, self.tail_tolerance)

    def _raw_pointer_grid(self) -> np.ndarray:
        """A @ X.T of _pointer_factors at this config."""
        from .measurement import _pointer_factors, ecs_factors

        left, right = ecs_factors(self.ecs, self.cutoff, self.tail_tolerance)
        fac_a, fac_b = _pointer_factors(left, right[0], self.wv, self.coupling)
        return fac_a @ fac_b.T

    def to_dict(self) -> dict:
        """The flat record: each sub-record of _RECORDS spelled out as its own
        fields (r, mu, ..., n_max_b), each other field under its own name."""
        flat = {}
        for name, value in self._fields().items():
            flat.update(value._fields() if name in _RECORDS else {name: value})
        return flat

    @classmethod
    def from_dict(cls, data: dict) -> "WeakMeasurementConfig":
        """Inverse of to_dict: the flat keys are the sub-records' field names
        and the other fields' names.  Any other key is ignored."""
        kwargs = {name: data[name] for name in cls.__slots__ if name not in _RECORDS}
        for name, record in _RECORDS.items():
            kwargs[name] = record(**{field: data[field] for field in record.__slots__})
        return cls(**kwargs)


def default_config(**overrides) -> WeakMeasurementConfig:
    """Baseline scenario: r = 0.1, mu = varphi = delta_i = pi/2,
    theta_i = 4 pi / 5, zero coupling, cutoff 40 per mode."""
    return WeakMeasurementConfig(**{**_BASELINE, **overrides})
