"""Deterministic sweep commands: parameter scans emitted as CSV rows.

Each command is one entry of _COMMANDS: its axes in canonical (CSV column)
order, default ranges, output columns, help text and runner.  The runner
supplies a batch function that returns whole column grids, indexed by
canonical axis position, with NA already written in, computed from the
pointer states' factors (the Gram form of the observables module).  _sweep
reads them out in the declared outer-to-inner nesting.  The CSV rendering
of the resulting SweepResult is deterministic: shortest-round-trip floats,
UNIX newlines, mandatory header, and "NA" for the rows of NA_CAUSES and the
phase bound of a vanishing QFI.  Reruns on one numpy/BLAS build are
byte-identical; across builds only the last digits of computed floats may
differ.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__
from .config import RangeSpec, WeakMeasurementConfig
from .coherent import pointer_qfi
from .errors import DegeneratePostSelectionError, NumericalRangeError, TruncationWarning
from .measurement import CouplingParams, EcsParams, _check_p_floor, _pointer_factors, _probe_tail, ecs_factors
from .observables import (
    DEFAULT_FD_STEP,
    DEFAULT_RANGE_TOL,
    _checked_wigner,
    _hz_grid,
    _moments,
    _post_selection,
    _qfi_grid,
    _squeezing_grid,
    _wigner_axes,
)

NA = "NA"

# Q_fi below this emits an NA phase bound instead of a spuriously huge one.
QFI_SENTINEL_FLOOR = 1e-12

# Causes of NA rows, as counted in SweepResult.na_rows.  A row is counted
# under the first cause that holds for it, in this order.
NA_CAUSES = ("degenerate", "truncated", "richardson", "zero_qfi")

# What a single point, or wigner's state, fails with for these causes.
FAILURES = {
    "truncated": "the probe or pointer state puts more than the tail tolerance (--tail-tol) on its top Fock level",
    "richardson": "the finite-difference QFI step is cancellation-dominated",
}


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
    batch: Callable[[], tuple[list[np.ndarray], dict]],
) -> SweepResult:
    """Rows of one command over the product of its axis ranges.

    ranges follow the command's canonical axes; order names them outermost
    first (default: canonical).  batch() runs once, under the sweep's warning
    capture, and returns the column grids (one axis per canonical axis, NA
    written in) and extra metadata, whose "na_rows" counts NA rows by cause.
    Each grid is transposed into the declared order and read out flat.  The
    metadata's "axes" lists [name, start, stop, points] outermost first, so
    that with "config" it describes the run.
    """
    spec = _COMMANDS[command]
    axes = spec["axes"]
    order = list(axes) if order is None else list(order)
    if sorted(order) != sorted(axes):
        raise ValueError(f"order {order} is not a permutation of the axes {list(axes)}")
    nest = [axes.index(name) for name in order]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        columns, extra = batch()
    grids = [*np.meshgrid(*(r.values() for r in ranges), indexing="ij"), *columns]
    rows = tuple(zip(*(np.transpose(grid, nest).ravel().tolist() for grid in grids)))
    metadata = {
        "config": config.to_dict(),
        "axes": [[axes[i], *dataclasses.astuple(ranges[i])] for i in nest],
        "version": __version__,
        "truncation_warnings": sum(issubclass(w.category, TruncationWarning) for w in caught),
        "rows": len(rows),
        **extra,
    }
    return SweepResult(axes + spec["columns"], rows, metadata, extra.get("na_rows", dict.fromkeys(NA_CAUSES, 0)))


def _with_na(grid: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """grid as an array of Python objects, with NA wherever mask is set."""
    cells = grid.astype(object)
    cells[mask] = NA
    return cells


def _failed_na(columns: list[np.ndarray], **failed: np.ndarray) -> tuple[list[np.ndarray], dict, np.ndarray]:
    """(columns, NA rows by cause, NA mask) with NA rows where a failure mask
    is set, each counted under its first cause in NA_CAUSES order."""
    na = np.zeros(np.shape(columns[0]), dtype=bool)
    counts = dict.fromkeys(NA_CAUSES, 0)
    for cause in NA_CAUSES:
        first = failed.get(cause, False) & ~na
        counts[cause] = int(first.sum())
        na |= first
    return [_with_na(column, na) for column in columns], counts, na


def _sweep_factors(config: WeakMeasurementConfig, s1s, s2s, wvs) -> tuple[np.ndarray, np.ndarray, float]:
    """_pointer_factors of the config's probe, built once, and the probe's
    top-level mass."""
    left, right = ecs_factors(config.ecs, config.cutoff, config.tail_tolerance)
    fac_a, fac_b = _pointer_factors(left, right[0], s1s, s2s, wvs)
    return fac_a, fac_b, float(_probe_tail(left, right)[0])


def _pointer_at(config: WeakMeasurementConfig) -> tuple[np.ndarray, np.ndarray, bool]:
    """Factors (left, right) of the post-selected pointer state at the config's
    coupling, normalized up to a global phase, and whether the probe or the
    state is truncated.  Warns and raises like pointer_outcome."""
    coupling = config.coupling
    fac_a, fac_b, probe_tail = _sweep_factors(config, [coupling.s1], [coupling.s2], [config.wv])
    moment = _moments(fac_a[:, 0], fac_b[:, 0])
    _check_p_floor(moment("1", "1")[0, 0].real)
    p_s, _, truncated = _post_selection(moment, config.tail_tolerance, probe_tail)
    return fac_a[0, 0] / math.sqrt(p_s[0, 0]), fac_b[0, 0], bool(truncated[0, 0])


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
        fac_a, fac_b, probe_tail = _sweep_factors(config, s, s, wvs)
        # Each (s, theta) pairs A and X slot by slot: one 1 x 1 moment per slot.
        moment = _moments(fac_a[:, :, None], fac_b[:, :, None])
        p_s, degenerate, truncated = (g[..., 0, 0] for g in _post_selection(moment, config.tail_tolerance, probe_tail))
        columns, counts, _ = _failed_na([p_s], degenerate=degenerate, truncated=truncated)
        return columns, {"na_rows": counts}

    return _sweep(config, "probability", (s_range, theta_range), order, batch)


def _coupling_batch(config: WeakMeasurementConfig, s1_range: RangeSpec, s2_range: RangeSpec, columns):
    """Batch over the (s1, s2) grid of the column grids columns(moment, P_s)."""
    fac_a, fac_b, probe_tail = _sweep_factors(config, s1_range.values(), s2_range.values(), [config.wv])
    moment = _moments(fac_a[:, 0], fac_b[:, 0])
    p_s, degenerate, truncated = _post_selection(moment, config.tail_tolerance, probe_tail)
    grids, counts, _ = _failed_na(columns(moment, p_s), degenerate=degenerate, truncated=truncated)
    return grids, {"na_rows": counts}


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
    config's point coupling, with the grid minimum in the metadata.  Any
    point out of range, and then a truncated state, fails the whole grid."""

    def batch():
        # Checked before the state is built, so a bad axis fails alike at any coupling.
        axes = _wigner_axes(re_gamma, re_beta)
        left, right, truncated = _pointer_at(config)
        values = _checked_wigner(left, right, *axes, DEFAULT_RANGE_TOL)
        if truncated:
            raise NumericalRangeError(FAILURES["truncated"])
        return [values], {"grid_min": float(values.min())}

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

    Under "fixed-kappa" each point is one closed-form pointer_qfi call, the
    qfi_analytic of that point, exact at any cutoff.  Under "renormalized"
    one _qfi_grid call gives Richardson-checked finite differences on the
    Fock factors.  Degenerate, truncated and Richardson-tripped points
    become NA rows, and a QFI below QFI_SENTINEL_FLOOR gets an NA phase
    bound.
    """

    def batch():
        rs, ss = r_range.values(), s_range.values()
        if config.qfi_gauge == "fixed-kappa":
            # pointer_qfi returns a finite Q or raises, so NaN is left only where P_s is degenerate.
            q = np.full((len(rs), len(ss)), np.nan)
            for i, r in enumerate(rs.tolist()):
                ecs = EcsParams(r, config.ecs.mu, config.ecs.varphi)
                for j, s in enumerate(ss.tolist()):
                    with contextlib.suppress(DegeneratePostSelectionError):
                        q[i, j] = pointer_qfi(ecs, config.wv, CouplingParams(s, s))
            failed = {"degenerate": np.isnan(q)}
        else:
            q, degenerate, truncated, tripped = _qfi_grid(config, rs, ss, ss, DEFAULT_FD_STEP)
            failed = {"degenerate": degenerate, "truncated": truncated, "richardson": tripped}
        (q_fi,), counts, na = _failed_na([q], **failed)
        zero = ~na & ~(q >= QFI_SENTINEL_FLOOR)
        counts["zero_qfi"] = int(zero.sum())
        delta_phi = _with_na(1.0 / np.sqrt(np.where(na | zero, 1.0, q)), na | zero)
        return [q_fi, delta_phi], {"na_rows": counts}

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
