"""Deterministic sweep commands: parameter scans emitted as CSV rows.

Each command is one entry of _COMMANDS: its axes in canonical (CSV column)
order, default ranges, output columns, help text and runner.  The runner
supplies a point evaluator, and _sweep walks the grid serially, nesting the
axes in the declared outer-to-inner order (canonical unless the caller
declares another).  probability, squeezing, hz and wigner compute their
whole column grids up front from the pointer states' factors (the Gram form
of the observables module) and look each point up; qcrb evaluates each
point.  The result is a SweepResult whose CSV rendering is
deterministic: shortest-round-trip float formatting, UNIX newlines,
mandatory header, and the literal sentinel "NA" for degenerate points, for
tripped numerical guards in multi-point sweeps, and for phase bounds of a
vanishing QFI.  Reruns on one numpy/BLAS build are byte-identical; across
builds the last digits of computed floats may differ, while the structure,
axis values, flags and NA cells do not.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__
from .config import RangeSpec, WeakMeasurementConfig
from .errors import DegeneratePostSelectionError, NumericalRangeError, TruncationWarning
from .measurement import (
    DEFAULT_P_FLOOR,
    CouplingParams,
    _arms,
    _branch_weights,
    _check_p_floor,
    _displaced,
    _mixed,
    ecs_factors,
)
from .observables import (
    DEFAULT_RANGE_TOL,
    _hz_grid,
    _moments,
    _post_selection,
    _squeezing_grid,
    _wigner_grid,
    qcrb,
    qfi_analytic,
    qfi_finite_difference,
)

NA = "NA"

# Q_fi below this emits an NA phase bound instead of a spuriously huge one.
QFI_SENTINEL_FLOOR = 1e-12

# Causes of NA rows, as counted in SweepResult.na_rows.
NA_CAUSES = ("degenerate", "richardson", "zero_qfi")


def format_cell(value) -> str:
    """Shortest round-trip text for one CSV cell."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


@dataclass(frozen=True)
class SweepResult:
    """Ordered header, row tuples, the metadata echo, and NA rows by cause."""

    header: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict
    na_rows: dict = field(default_factory=dict)

    def csv_text(self) -> str:
        # Formatted column by column; repr is format_cell's text for a Python float.
        columns = [
            [repr(cell) if type(cell) is float else format_cell(cell) for cell in column]
            for column in zip(*self.rows)
        ]
        return "\n".join([",".join(self.header), *map(",".join, zip(*columns))]) + "\n"

    def metadata_text(self) -> str:
        return json.dumps(self.metadata, indent=2, sort_keys=True) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.csv_text())

    def write_metadata(self, path: str) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.metadata_text())


def _evaluate(point: Callable, values: tuple, single_point: bool, spec: dict) -> tuple:
    """(NA cause or None, output cells) of one grid point."""
    try:
        cells = point(*values)
    except DegeneratePostSelectionError:
        return "degenerate", (NA,) * len(spec["columns"])
    except NumericalRangeError:
        if single_point:
            raise
        return "richardson", (NA,) * len(spec["columns"])
    return (spec.get("na_cause") if NA in cells else None), cells


def _sweep(
    config: WeakMeasurementConfig,
    command: str,
    ranges: tuple[RangeSpec, ...],
    order: list[str] | None,
    prepare: Callable[[], tuple[Callable, dict]],
) -> SweepResult:
    """Rows of one command over the product of its axis ranges.

    ranges follow the command's canonical axes, and order names the axes
    from the outermost loop to the innermost (default: canonical).
    prepare() runs once, under the same warning capture as the points, and
    returns the point evaluator (one value per canonical axis in, the output
    cells out) and any extra metadata.  A degenerate post-selection gives an
    NA row; so does a tripped numerical guard, except on a single point,
    where the NumericalRangeError propagates.  A command with an "na_cause"
    counts the NA cells its evaluator writes under that name and echoes its
    NA counts in the metadata.
    """
    spec = _COMMANDS[command]
    axes = spec["axes"]
    order = list(axes) if order is None else list(order)
    if sorted(order) != sorted(axes):
        raise ValueError(f"order {order} is not a permutation of the axes {list(axes)}")
    nest = [axes.index(name) for name in order]
    single_point = all(r.is_single for r in ranges)
    na_rows = dict.fromkeys(NA_CAUSES, 0)
    rows: list[tuple] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        point, extra = prepare()
        for combo in itertools.product(*(ranges[k].values().tolist() for k in nest)):
            values = tuple(value for _, value in sorted(zip(nest, combo)))
            cause, cells = _evaluate(point, values, single_point, spec)
            if cause is not None:
                na_rows[cause] += 1
            rows.append(values + tuple(cells))
    metadata = {
        "config": config.to_dict(),
        "version": __version__,
        "truncation_warnings": sum(issubclass(w.category, TruncationWarning) for w in caught),
        "rows": len(rows),
        **extra,
    }
    if "na_cause" in spec:
        metadata["na_rows"] = na_rows
    return SweepResult(axes + spec["columns"], tuple(rows), metadata, na_rows)


def _pointer_factors(config: WeakMeasurementConfig, s1s, s2s, wvs) -> tuple[np.ndarray, np.ndarray]:
    """Factors of the raw pointer states over couplings and meter angles.

    Returns arms (len(s1s) x dim_a x 4), a mode-a factor A at each coupling
    s1, and mixed (len(s2s) x len(wvs) x dim_b x 4), a mode-b factor X at
    each coupling s2 and WeakValueParams wv, so that the raw pointer grid at
    (s1_i, s2_j, wv_k) is arms[i] @ mixed[j, k].T.  The probe is built once.

    The kernel's factors [D_a(+u1) L, D_a(-u1) L] and [X_+, X_-] are stored
    as their half sum and half difference, [(D_a(+u1) + D_a(-u1)) L,
    (D_a(+u1) - D_a(-u1)) L] / 2 and [X_+ + X_-, X_+ - X_-], which give the
    same product.  At small u1 the two arms are nearly parallel, and under a
    strong post-selection X_+ and X_- nearly cancel; in this basis both
    cancellations happen amplitude by amplitude, as in the dense grid,
    instead of between large Gram entries.  So the Gram moments keep the
    dense route's accuracy at small P_s.

    Raises CouplingParams' ValueError when either axis holds a negative
    coupling.
    """
    CouplingParams(float(min(s1s)), float(min(s2s)))
    left, right = ecs_factors(config.ecs, config.cutoff, config.tail_tolerance)
    scale = config.displacement_scale
    arms = np.stack([_arms(scale * s1, left) for s1 in s1s])
    up = np.stack([_displaced(scale * s2, right[0]) for s2 in s2s])
    down = np.stack([_displaced(-scale * s2, right[0]) for s2 in s2s])
    mixed = np.stack([_mixed(up, down, _branch_weights(wv)) for wv in wvs], axis=1)
    return 0.5 * _sum_and_difference(arms), _sum_and_difference(mixed)


def _sum_and_difference(factor: np.ndarray) -> np.ndarray:
    """[F_1 + F_2, F_1 - F_2] from the two column halves [F_1, F_2] of a factor stack."""
    half = factor.shape[-1] // 2
    first, second = factor[..., :half], factor[..., half:]
    return np.concatenate([first + second, first - second], axis=-1)


def _pointer_at(config: WeakMeasurementConfig) -> tuple[np.ndarray, np.ndarray]:
    """Factors (left, right) of the post-selected pointer state at the config's coupling.

    left @ right.T is the normalized state, up to its global phase; it feeds
    cmd_wigner's Gram grid with 4 columns per mode, where pointer_outcome's
    dense state would give dim_b.  Warns and raises like pointer_outcome.
    """
    coupling = config.coupling
    arms, mixed = _pointer_factors(config, [coupling.s1], [coupling.s2], [config.wv])
    moment = _moments(arms, mixed[:, 0])
    _check_p_floor(moment("1", "1")[0, 0].real, DEFAULT_P_FLOOR)
    p_s, _ = _post_selection(moment, config.tail_tolerance)
    return arms[0] / math.sqrt(p_s[0, 0]), mixed[0, 0]


def _lookup(axes: tuple[np.ndarray, np.ndarray], columns: list[np.ndarray], degenerate=None):
    """Point evaluator that reads the column grids computed over the two axes.

    A point marked in the degenerate grid raises DegeneratePostSelectionError,
    which _sweep turns into an NA row.
    """
    keys = list(itertools.product(axes[0].tolist(), axes[1].tolist()))
    cells = dict(zip(keys, zip(*(column.ravel().tolist() for column in columns))))
    flagged = set() if degenerate is None else set(itertools.compress(keys, degenerate.ravel().tolist()))

    def point(*key):
        if key in flagged:
            raise DegeneratePostSelectionError(f"post-selection probability below floor at {key}")
        return cells[key]

    return point


def cmd_probability(
    config: WeakMeasurementConfig,
    s_range: RangeSpec,
    theta_range: RangeSpec,
    order: list[str] | None = None,
) -> SweepResult:
    """Success probability over coupling and meter angle; s1 = s2 = s,
    theta1 = theta2 = theta."""

    def prepare():
        s, thetas = s_range.values(), theta_range.values()
        wvs = [dataclasses.replace(config.wv, theta1=t, theta2=t) for t in thetas.tolist()]
        arms, mixed = _pointer_factors(config, s, s, wvs)
        p_s, degenerate = _post_selection(_moments(arms[:, None], mixed), config.tail_tolerance)
        return _lookup((s, thetas), [p_s[:, 0]], degenerate[:, 0]), {}

    return _sweep(config, "probability", (s_range, theta_range), order, prepare)


def _coupling_lookup(config: WeakMeasurementConfig, s1_range: RangeSpec, s2_range: RangeSpec, columns):
    """Point evaluator over the (s1, s2) grid for the column grids columns(moment, P_s)."""
    axes = (s1_range.values(), s2_range.values())
    arms, mixed = _pointer_factors(config, *axes, [config.wv])
    moment = _moments(arms, mixed[:, 0])
    p_s, degenerate = _post_selection(moment, config.tail_tolerance)
    return _lookup(axes, columns(moment, p_s), degenerate)


def cmd_squeezing(
    config: WeakMeasurementConfig,
    s1_range: RangeSpec,
    s2_range: RangeSpec,
    order: list[str] | None = None,
) -> SweepResult:
    """Sum squeezing of the post-selected state over the coupling grid,
    reported through both evaluation routes."""

    def columns(moment, p_s):
        return _squeezing_grid(moment, p_s, config.theta_big)

    def prepare():
        return _coupling_lookup(config, s1_range, s2_range, columns), {}

    return _sweep(config, "squeezing", (s1_range, s2_range), order, prepare)


def cmd_wigner(
    config: WeakMeasurementConfig,
    re_gamma: RangeSpec,
    re_beta: RangeSpec,
    order: list[str] | None = None,
) -> SweepResult:
    """Joint-parity Wigner cross-section of the post-selected state at the
    config's point coupling; metadata additionally carries the grid minimum.
    The grid is computed whole, so any point out of range fails the sweep."""

    def prepare():
        grid = _wigner_grid(*_pointer_at(config), re_gamma, re_beta, DEFAULT_RANGE_TOL)
        axes = (grid.re_gamma_axis, grid.re_beta_axis)
        return _lookup(axes, [grid.values]), {"grid_min": grid.minimum}

    return _sweep(config, "wigner", (re_gamma, re_beta), order, prepare)


def cmd_hz(
    config: WeakMeasurementConfig,
    s1_range: RangeSpec,
    s2_range: RangeSpec,
    order: list[str] | None = None,
) -> SweepResult:
    """Intensity-correlation witness over the coupling grid; the flag column
    is 1 exactly when E < 0 (entanglement witnessed) and NA when E is NaN."""

    def prepare():
        cells = _coupling_lookup(config, s1_range, s2_range, lambda moment, p_s: [_hz_grid(moment, p_s)])

        def point(s1, s2):
            (e_val,) = cells(s1, s2)
            return e_val, NA if math.isnan(e_val) else int(e_val < 0.0)

        return point, {}

    return _sweep(config, "hz", (s1_range, s2_range), order, prepare)


def cmd_qcrb(
    config: WeakMeasurementConfig,
    r_range: RangeSpec,
    s_range: RangeSpec,
    order: list[str] | None = None,
) -> SweepResult:
    """QFI and single-shot phase bound over amplitude and coupling; s1 = s2 = s.

    The "fixed-kappa" gauge uses the closed-form derivative construction,
    "renormalized" falls back to checked finite differences on normalized
    outcomes (both agree to finite-difference accuracy).  A point whose
    finite-difference check trips becomes an NA row; a single-point run
    raises the NumericalRangeError instead.  A QFI below QFI_SENTINEL_FLOOR
    gets an NA phase bound.  The metadata counts the NA rows by cause under
    "na_rows".
    """

    def point(r, s):
        at = config.replace(
            ecs=dataclasses.replace(config.ecs, r=r), coupling=CouplingParams(s, s)
        )
        q = qfi_analytic(at) if config.qfi_gauge == "fixed-kappa" else qfi_finite_difference(at)
        return q, qcrb(q, 1) if q >= QFI_SENTINEL_FLOOR else NA

    return _sweep(config, "qcrb", (r_range, s_range), order, lambda: (point, {}))


# Per command: canonical axis order (also the CSV leading columns), the
# built-in default ranges used when an axis is not overridden, the output
# columns, the CLI help text and the runner, called as
# runner(config, *ranges in canonical order, order=declared order).
_COMMANDS = {
    "probability": {
        "axes": ("s", "theta"),
        "defaults": {
            "s": RangeSpec(0.0, 3.0, 31),
            "theta": RangeSpec(0.2 * math.pi, 0.8 * math.pi, 4),
        },
        "columns": ("P_s",),
        "help": "post-selection success probability over (s, theta)",
        "runner": cmd_probability,
    },
    "squeezing": {
        "axes": ("s1", "s2"),
        "defaults": {"s1": RangeSpec(0.0, 3.0, 16), "s2": RangeSpec(0.0, 3.0, 16)},
        "columns": ("S2s_direct", "S2s_normal"),
        "help": "sum squeezing of the post-selected state over (s1, s2)",
        "runner": cmd_squeezing,
    },
    "wigner": {
        "axes": ("re_gamma", "re_beta"),
        "defaults": {
            "re_gamma": RangeSpec(-2.0, 2.0, 51),
            "re_beta": RangeSpec(-2.0, 2.0, 51),
        },
        "columns": ("P_J",),
        "help": "joint-parity Wigner cross-section at the configured coupling",
        "runner": cmd_wigner,
    },
    "hz": {
        "axes": ("s1", "s2"),
        "defaults": {"s1": RangeSpec(0.0, 3.0, 16), "s2": RangeSpec(0.0, 3.0, 16)},
        "columns": ("E", "entangled_flag"),
        "help": "intensity-correlation entanglement witness over (s1, s2)",
        "runner": cmd_hz,
    },
    "qcrb": {
        "axes": ("r", "s"),
        "defaults": {"r": RangeSpec(0.05, 0.5, 10), "s": RangeSpec(0.0, 2.0, 5)},
        "columns": ("Q_fi", "delta_phi"),
        "help": "quantum Fisher information and phase bound over (r, s)",
        "runner": cmd_qcrb,
        "na_cause": "zero_qfi",
    },
}
