"""The scenario of a run, shared by the library entry points and the sweep CLI."""

from __future__ import annotations

import math

from .params import CouplingParams, EcsParams, WeakValueParams, _Record, _positive_int

QFI_GAUGES = ("fixed-kappa", "renormalized")
# The config fields that hold a record; to_dict spells out their fields.
_RECORDS = {"ecs": EcsParams, "wv": WeakValueParams, "coupling": CouplingParams}
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
        points = _positive_int("points", points)
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

    __slots__ = ("ecs", "wv", "coupling", "theta_big", "qfi_gauge")

    def __init__(
        self,
        ecs: EcsParams,
        wv: WeakValueParams,
        coupling: CouplingParams,
        theta_big: float = 0.5 * math.pi,
        qfi_gauge: str = "fixed-kappa",
    ) -> None:
        if qfi_gauge not in QFI_GAUGES:
            raise ValueError(f"qfi_gauge must be one of {QFI_GAUGES}, got {qfi_gauge!r}")
        if not (math.isfinite(theta_big)):
            raise ValueError(f"theta_big must be finite, got {theta_big!r}")
        self._set(ecs, wv, coupling, theta_big, qfi_gauge)

    # The Fock routes import measurement, and so numpy, on first use.  Each takes
    # build_ecs's keyword arguments cutoff (40 per mode by default) and tail_tol.
    def ecs_state(self, **fock) -> TwoModeState:
        from .measurement import build_ecs

        return build_ecs(self.ecs, **fock)

    def raw_pointer_state(self, **fock) -> TwoModeState:
        from .measurement import TwoModeState, _pointer_grid

        grid, cutoff, _ = _pointer_grid(self, **fock)
        return TwoModeState(grid, cutoff)

    def pointer_outcome(self, **fock) -> PostSelectedOutcome:
        from .measurement import _pointer_grid, _post_select

        return _post_select(*_pointer_grid(self, **fock))

    def to_dict(self) -> dict:
        """The flat record: each sub-record of _RECORDS spelled out as its own
        fields (r, mu, ..., s2), each other field under its own name."""
        flat = {}
        for name, value in self._fields().items():
            flat.update(value._fields() if name in _RECORDS else {name: value})
        return flat

    @classmethod
    def from_dict(cls, data: dict) -> "WeakMeasurementConfig":
        """Inverse of to_dict: the flat keys are the sub-records' field names
        and the other fields' names.  Any other key, such as the n_max_a,
        n_max_b and tail_tolerance of an older sidecar, is ignored."""
        kwargs = {name: data[name] for name in cls.__slots__ if name not in _RECORDS}
        for name, record in _RECORDS.items():
            kwargs[name] = record(**{field: data[field] for field in record.__slots__})
        return cls(**kwargs)


def default_config(**overrides) -> WeakMeasurementConfig:
    """Baseline scenario: r = 0.1, mu = varphi = delta_i = pi/2,
    theta_i = 4 pi / 5, zero coupling, theta_big = pi/2, fixed-kappa gauge."""
    return WeakMeasurementConfig(**{**_BASELINE, **overrides})
