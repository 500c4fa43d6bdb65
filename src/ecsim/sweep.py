"""Deterministic sweep commands: parameter scans emitted as CSV rows.

Each command is one entry of _COMMANDS: its axes in canonical (CSV column)
order, default ranges, output columns, help text and runner.  The runner
supplies a batch function that returns whole column grids, indexed by
canonical axis position, with NA already written in.  _sweep reads the
axis and column grids out in the declared outer-to-inner nesting
(canonical unless the caller declares another).  probability, squeezing,
hz and wigner compute their grids from the pointer states' factors (the
Gram form of the observables module); qcrb evaluates its points one by
one, since each amplitude needs its own probe.  The result is a
SweepResult whose CSV rendering is deterministic: shortest-round-trip
float formatting, UNIX newlines, mandatory header, and the literal sentinel
"NA" for degenerate points, for tripped numerical guards in multi-point
sweeps, and for phase bounds of a vanishing QFI.  Reruns on one
numpy/BLAS build are byte-identical; across builds the last digits of
computed floats may differ, while the structure, axis values, flags and NA
cells do not.
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
    _checked_wigner,
    _hz_grid,
    _moments,
    _post_selection,
    _squeezing_grid,
    _wigner_axes,
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


def _sweep(
    config: WeakMeasurementConfig,
    command: str,
    ranges: tuple[RangeSpec, ...],
    order: list[str] | None,
    batch: Callable[[], tuple[list[np.ndarray], dict, dict]],
) -> SweepResult:
    """Rows of one command over the product of its axis ranges.

    ranges follow the command's canonical axes, and order names the axes
    from the outermost loop to the innermost (default: canonical).
    batch() runs once, under the sweep's warning capture, and returns the
    output column grids (one axis per canonical axis, NA cells written in),
    the NA rows it wrote counted by cause, and any extra metadata.  Each
    axis and column grid is transposed into the declared order and read
    out flat, so the last declared axis varies fastest.
    """
    spec = _COMMANDS[command]
    axes = spec["axes"]
    order = list(axes) if order is None else list(order)
    if sorted(order) != sorted(axes):
        raise ValueError(f"order {order} is not a permutation of the axes {list(axes)}")
    nest = [axes.index(name) for name in order]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        columns, na_rows, extra = batch()
    grids = [*np.meshgrid(*(r.values() for r in ranges), indexing="ij"), *columns]
    rows = tuple(zip(*(np.transpose(grid, nest).ravel().tolist() for grid in grids)))
    metadata = {
        "config": config.to_dict(),
        "version": __version__,
        "truncation_warnings": sum(issubclass(w.category, TruncationWarning) for w in caught),
        "rows": len(rows),
        **extra,
    }
    return SweepResult(axes + spec["columns"], rows, metadata, {**dict.fromkeys(NA_CAUSES, 0), **na_rows})


def _with_na(grid: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """grid as an array of Python objects, with NA wherever mask is set."""
    cells = grid.astype(object)
    cells[mask] = NA
    return cells


def _degenerate_na(columns: list[np.ndarray], degenerate: np.ndarray) -> tuple[list[np.ndarray], dict, dict]:
    """Batch result of column grids whose degenerate points become NA rows."""
    return [_with_na(column, degenerate) for column in columns], {"degenerate": int(degenerate.sum())}, {}


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


def cmd_probability(
    config: WeakMeasurementConfig,
    s_range: RangeSpec,
    theta_range: RangeSpec,
    order: list[str] | None = None,
) -> SweepResult:
    """Success probability over coupling and meter angle; s1 = s2 = s,
    theta1 = theta2 = theta."""

    def batch():
        s, thetas = s_range.values(), theta_range.values()
        wvs = [dataclasses.replace(config.wv, theta1=t, theta2=t) for t in thetas.tolist()]
        arms, mixed = _pointer_factors(config, s, s, wvs)
        p_s, degenerate = _post_selection(_moments(arms[:, None], mixed), config.tail_tolerance)
        return _degenerate_na([p_s[:, 0]], degenerate[:, 0])

    return _sweep(config, "probability", (s_range, theta_range), order, batch)


def _coupling_batch(config: WeakMeasurementConfig, s1_range: RangeSpec, s2_range: RangeSpec, columns):
    """Batch over the (s1, s2) grid of the column grids columns(moment, P_s)."""
    arms, mixed = _pointer_factors(config, s1_range.values(), s2_range.values(), [config.wv])
    moment = _moments(arms, mixed[:, 0])
    p_s, degenerate = _post_selection(moment, config.tail_tolerance)
    return _degenerate_na(columns(moment, p_s), degenerate)


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

    return _sweep(config, "squeezing", (s1_range, s2_range), order,
                  lambda: _coupling_batch(config, s1_range, s2_range, columns))


def cmd_wigner(
    config: WeakMeasurementConfig,
    re_gamma: RangeSpec,
    re_beta: RangeSpec,
    order: list[str] | None = None,
) -> SweepResult:
    """Joint-parity Wigner cross-section of the post-selected state at the
    config's point coupling; metadata additionally carries the grid minimum.
    The grid is computed whole, so any point out of range fails the sweep."""

    def batch():
        # Checked before the state is built, so a bad axis fails alike at any coupling.
        axes = _wigner_axes(re_gamma, re_beta)
        values = _checked_wigner(*_pointer_at(config), *axes, DEFAULT_RANGE_TOL)
        return [values], {}, {"grid_min": float(values.min())}

    return _sweep(config, "wigner", (re_gamma, re_beta), order, batch)


def cmd_hz(
    config: WeakMeasurementConfig,
    s1_range: RangeSpec,
    s2_range: RangeSpec,
    order: list[str] | None = None,
) -> SweepResult:
    """Intensity-correlation witness over the coupling grid; the flag column
    is 1 exactly when E < 0 (entanglement witnessed) and NA when E is NaN."""

    def columns(moment, p_s):
        e_val = _hz_grid(moment, p_s)
        return [e_val, _with_na((e_val < 0.0).astype(int), np.isnan(e_val))]

    return _sweep(config, "hz", (s1_range, s2_range), order,
                  lambda: _coupling_batch(config, s1_range, s2_range, columns))


def cmd_qcrb(
    config: WeakMeasurementConfig,
    r_range: RangeSpec,
    s_range: RangeSpec,
    order: list[str] | None = None,
) -> SweepResult:
    """QFI and single-shot phase bound over amplitude and coupling; s1 = s2 = s.

    The "fixed-kappa" gauge uses the closed-form derivative construction,
    "renormalized" falls back to checked finite differences on normalized
    outcomes (both agree to finite-difference accuracy).  A degenerate
    point, and a point whose finite-difference check trips, becomes an NA
    row; a single-point run raises the NumericalRangeError instead.  A QFI
    below QFI_SENTINEL_FLOOR gets an NA phase bound.  The metadata counts
    the NA rows by cause under "na_rows".
    """

    def batch():
        single_point = r_range.is_single and s_range.is_single
        rs, ss = r_range.values().tolist(), s_range.values().tolist()
        q_fi = np.full((len(rs), len(ss)), NA, dtype=object)
        delta_phi = q_fi.copy()
        na_rows = dict.fromkeys(NA_CAUSES, 0)
        for (i, r), (j, s) in itertools.product(enumerate(rs), enumerate(ss)):
            at = config.replace(ecs=dataclasses.replace(config.ecs, r=r), coupling=CouplingParams(s, s))
            try:
                q = qfi_analytic(at) if config.qfi_gauge == "fixed-kappa" else qfi_finite_difference(at)
            except DegeneratePostSelectionError:
                na_rows["degenerate"] += 1
                continue
            except NumericalRangeError:
                if single_point:
                    raise
                na_rows["richardson"] += 1
                continue
            q_fi[i, j] = q
            if q >= QFI_SENTINEL_FLOOR:
                delta_phi[i, j] = qcrb(q, 1)
            else:
                na_rows["zero_qfi"] += 1
        return [q_fi, delta_phi], na_rows, {"na_rows": na_rows}

    return _sweep(config, "qcrb", (r_range, s_range), order, batch)


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
    },
}
