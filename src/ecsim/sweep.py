"""Deterministic sweep drivers: parameter scans emitted as CSV rows.

Every command evaluates its grid serially in row-major order of the
declared axes and returns a SweepResult whose CSV rendering is
deterministic: shortest-round-trip float formatting, UNIX newlines,
mandatory header, and the literal sentinel "NA" for degenerate points
and, in multi-point qcrb sweeps, for tripped finite-difference checks.
Reruns on one numpy/BLAS build are byte-identical; across builds the last
digits of computed floats may differ, while the structure, axis values,
flags and NA cells do not.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .config import RangeSpec, WeakMeasurementConfig
from .errors import DegeneratePostSelectionError, NumericalRangeError, TruncationWarning
from .measurement import CouplingParams, build_pointer_state
from .observables import (
    hz_correlation,
    joint_wigner_grid,
    qcrb,
    qfi_analytic,
    qfi_finite_difference,
    squeezing_report,
)

NA = "NA"

# Q_fi below this emits an NA phase bound instead of a spuriously huge one.
QFI_SENTINEL_FLOOR = 1e-12


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
    """Ordered header, row tuples, and the metadata echo for one command."""

    header: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict

    def csv_text(self) -> str:
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(format_cell(cell) for cell in row))
        return "\n".join(lines) + "\n"

    def metadata_text(self) -> str:
        return json.dumps(self.metadata, indent=2, sort_keys=True) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.csv_text())

    def write_metadata(self, path: str) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.metadata_text())

    def has_na(self) -> bool:
        return any(NA in row for row in self.rows)


def _collect(
    config: WeakMeasurementConfig,
    header: tuple[str, ...],
    produce: Callable[[], list[tuple]],
    extra_metadata: dict | None = None,
) -> SweepResult:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = produce()
    truncations = sum(1 for w in caught if issubclass(w.category, TruncationWarning))
    metadata = {
        "config": config.to_dict(),
        "version": __version__,
        "truncation_warnings": truncations,
        "rows": len(rows),
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return SweepResult(header=header, rows=tuple(rows), metadata=metadata)


def cmd_probability(
    config: WeakMeasurementConfig, s_range: RangeSpec, theta_range: RangeSpec
) -> SweepResult:
    """Success probability over coupling and meter angle; s1 = s2 = s,
    theta1 = theta2 = theta."""

    def produce() -> list[tuple]:
        ecs = config.ecs_state()
        rows: list[tuple] = []
        for s in s_range.values():
            for theta in theta_range.values():
                wv = dataclasses.replace(config.wv, theta1=float(theta), theta2=float(theta))
                try:
                    outcome = build_pointer_state(
                        ecs,
                        wv,
                        CouplingParams(float(s), float(s)),
                        displacement_scale=config.displacement_scale,
                        tail_tol=config.tail_tolerance,
                    )
                    p_s = outcome.success_probability
                except DegeneratePostSelectionError:
                    p_s = NA
                rows.append((float(s), float(theta), p_s))
        return rows

    return _collect(config, ("s", "theta", "P_s"), produce)


def cmd_squeezing(
    config: WeakMeasurementConfig, s1_range: RangeSpec, s2_range: RangeSpec
) -> SweepResult:
    """Sum squeezing of the post-selected state over the coupling grid,
    reported through both evaluation routes."""

    def produce() -> list[tuple]:
        ecs = config.ecs_state()
        rows: list[tuple] = []
        for s1 in s1_range.values():
            for s2 in s2_range.values():
                try:
                    outcome = build_pointer_state(
                        ecs,
                        config.wv,
                        CouplingParams(float(s1), float(s2)),
                        displacement_scale=config.displacement_scale,
                        tail_tol=config.tail_tolerance,
                    )
                    report = squeezing_report(outcome.state, config.theta_big)
                    direct, normal = report.s2s_direct, report.s2s_normal_ordered
                except DegeneratePostSelectionError:
                    direct, normal = NA, NA
                rows.append((float(s1), float(s2), direct, normal))
        return rows

    return _collect(config, ("s1", "s2", "S2s_direct", "S2s_normal"), produce)


def cmd_wigner(
    config: WeakMeasurementConfig, re_gamma: RangeSpec, re_beta: RangeSpec
) -> SweepResult:
    """Joint-parity Wigner cross-section of the post-selected state at the
    config's point coupling; metadata additionally carries the grid minimum."""
    grid_min: list[float] = []

    def produce() -> list[tuple]:
        outcome = config.pointer_outcome()
        grid = joint_wigner_grid(outcome.state, re_gamma, re_beta)
        grid_min.append(grid.minimum)
        rows: list[tuple] = []
        for i, g in enumerate(grid.re_gamma_axis):
            for j, b in enumerate(grid.re_beta_axis):
                rows.append((float(g), float(b), float(grid.values[i, j])))
        return rows

    result = _collect(config, ("re_gamma", "re_beta", "P_J"), produce)
    metadata = dict(result.metadata)
    metadata["grid_min"] = grid_min[0]
    return SweepResult(header=result.header, rows=result.rows, metadata=metadata)


def cmd_hz(
    config: WeakMeasurementConfig, s1_range: RangeSpec, s2_range: RangeSpec
) -> SweepResult:
    """Intensity-correlation witness over the coupling grid; the flag column
    is 1 exactly when E < 0 (entanglement witnessed) and NA when E is NaN."""

    def produce() -> list[tuple]:
        ecs = config.ecs_state()
        rows: list[tuple] = []
        for s1 in s1_range.values():
            for s2 in s2_range.values():
                try:
                    outcome = build_pointer_state(
                        ecs,
                        config.wv,
                        CouplingParams(float(s1), float(s2)),
                        displacement_scale=config.displacement_scale,
                        tail_tol=config.tail_tolerance,
                    )
                    e_val = hz_correlation(outcome.state)
                    flag = NA if math.isnan(e_val) else int(e_val < 0.0)
                    row = (float(s1), float(s2), e_val, flag)
                except DegeneratePostSelectionError:
                    row = (float(s1), float(s2), NA, NA)
                rows.append(row)
        return rows

    return _collect(config, ("s1", "s2", "E", "entangled_flag"), produce)


def cmd_qcrb(
    config: WeakMeasurementConfig, r_range: RangeSpec, s_range: RangeSpec
) -> SweepResult:
    """QFI and single-shot phase bound over amplitude and coupling; s1 = s2 = s.

    The "fixed-kappa" gauge uses the closed-form derivative construction,
    "renormalized" falls back to checked finite differences on normalized
    outcomes (both agree to finite-difference accuracy).  A point whose
    finite-difference check trips becomes an NA row; a single-point run
    raises the NumericalRangeError instead.  The metadata counts the NA rows
    by cause under "na_rows".
    """
    single_point = r_range.is_single and s_range.is_single
    na_rows = {"degenerate": 0, "richardson": 0}

    def produce() -> list[tuple]:
        rows: list[tuple] = []
        for r in r_range.values():
            for s in s_range.values():
                point = config.replace(
                    ecs=dataclasses.replace(config.ecs, r=float(r)),
                    coupling=CouplingParams(float(s), float(s)),
                )
                try:
                    if config.qfi_gauge == "fixed-kappa":
                        q = qfi_analytic(point)
                    else:
                        q = qfi_finite_difference(point)
                    delta = qcrb(q, 1) if q >= QFI_SENTINEL_FLOOR else NA
                    row = (float(r), float(s), q, delta)
                except DegeneratePostSelectionError:
                    row = (float(r), float(s), NA, NA)
                    na_rows["degenerate"] += 1
                except NumericalRangeError:
                    if single_point:
                        raise
                    row = (float(r), float(s), NA, NA)
                    na_rows["richardson"] += 1
                rows.append(row)
        return rows

    # _collect reads na_rows after produce has filled it.
    return _collect(config, ("r", "s", "Q_fi", "delta_phi"), produce, {"na_rows": na_rows})
