"""Deterministic sweep commands: parameter scans emitted as CSV rows.

Each command is one entry of _COMMANDS: its two axes in canonical (CSV
column) order, default ranges, output columns, help text, runner and cells
function.  Every runner, cmd_<command>, is one call of _sweep, the only row
builder.  _sweep checks the declared order, calls cells(config, xs, ys) once
on the axes' values, and walks the product of the axes in the declared
outer-to-inner nesting.  Each row reads its cell grid[i][j] at its canonical
indices (i, j): the row's column values, or the cause of an NA row, which
the walker writes as NA cells and counts in SweepResult.na_rows.

probability, squeezing, hz and wigner read every cell from the closed-form
coherent-state Grams of the coherent module, each side's built once per
axis value and contracted per row, and qcrb is coherent.pointer_qfi at each
point: no Fock basis, no cutoff and no numpy.  So the config's QFI gauge,
which only qfi_finite_difference reads, changes no row.  The CSV rendering
of the resulting SweepResult is deterministic: shortest-round-trip floats,
UNIX newlines, mandatory header, and "NA" for the rows of NA_CAUSES and the
phase bound of a vanishing QFI.  Every cell is scalar math/cmath with no
BLAS call, so reruns are byte-identical and the bytes do not depend on the
numpy or BLAS build.
"""

from __future__ import annotations

import cmath
import itertools
import math

from . import __version__
from .coherent import contract, parity_grams, pointer_qfi, probe_sides, side_grams
from .config import RangeSpec, WeakMeasurementConfig, _wigner_axes
from .errors import DegeneratePostSelectionError
from .params import DEFAULT_P_FLOOR, CouplingParams, EcsParams, _check_p_floor, _meter_rows, _Record

NA = "NA"

# Q_fi below this emits an NA phase bound instead of a spuriously huge one.
QFI_SENTINEL_FLOOR = 1e-12

# Causes of NA rows, as counted in SweepResult.na_rows: a post-selection
# below the P_s floor, and the phase bound of a QFI below QFI_SENTINEL_FLOOR.
NA_CAUSES = ("degenerate", "zero_qfi")


def format_cell(value) -> str:
    """Shortest round-trip text for one CSV cell; a numpy scalar is read through its item()."""
    if isinstance(value, str):
        return value
    value = value.item() if hasattr(value, "item") else value
    if isinstance(value, (bool, int)):
        return str(int(value))
    return repr(float(value))


class SweepResult(_Record):
    """Ordered header, row tuples, the metadata echo, and NA rows by cause."""

    __slots__ = ("header", "rows", "metadata", "na_rows")

    def __init__(self, header: tuple[str, ...], rows: tuple[tuple, ...], metadata: dict,
                 na_rows: dict | None = None) -> None:
        self._set(header, rows, metadata, {} if na_rows is None else na_rows)

    def csv_text(self) -> str:
        # Formatted column by column; repr is format_cell's text for a Python float.
        columns = [
            [repr(cell) if type(cell) is float else format_cell(cell) for cell in column]
            for column in zip(*self.rows)
        ]
        return "\n".join([",".join(self.header), *map(",".join, zip(*columns))]) + "\n"

    def metadata_text(self) -> str:
        # Only --meta writes JSON, so the CLI loads json for that alone.
        import json

        return json.dumps(self.metadata, indent=2, sort_keys=True) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.csv_text())

    def write_metadata(self, path: str) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.metadata_text())


def _sweep(config: WeakMeasurementConfig, command: str, ranges: tuple[RangeSpec, RangeSpec],
           order: list[str] | None) -> SweepResult:
    """Rows of one command over the product of its two axis ranges.

    ranges follow the command's canonical axes; order names them outermost
    first (default: canonical).  The command's cells(config, xs, ys) runs
    once on the axes' values and returns (grid, extra): grid[i][j] holds the
    column values of the row at (xs[i], ys[j]) or that row's NA cause, and
    extra the command's metadata, with the count of a cause that NAs one
    cell only (zero_qfi).  The rows are walked in the declared nesting.  The
    metadata's "axes" lists [name, start, stop, points] outermost first, so
    that with "config" it describes the run.
    """
    spec = _COMMANDS[command]
    axes = spec["axes"]
    order = list(axes) if order is None else list(order)
    if sorted(order) != sorted(axes):
        raise ValueError(f"order {order} is not a permutation of the axes {list(axes)}")
    nest = [axes.index(name) for name in order]
    xs, ys = (r.values() for r in ranges)
    grid, extra = spec["cells"](config, xs, ys)
    na_rows = {cause: extra.pop(cause, 0) for cause in NA_CAUSES}
    blank = (NA,) * len(spec["columns"])
    indices = itertools.product(*(range(ranges[k].points) for k in nest))
    if nest != [0, 1]:
        indices = ((i, j) for j, i in indices)
    rows = []
    for i, j in indices:
        cell = grid[i][j]
        if type(cell) is str:
            na_rows[cell] += 1
            cell = blank
        rows.append((xs[i], ys[j]) + cell)
    metadata = {
        "config": config.to_dict(),
        "axes": [[axes[k], ranges[k].start, ranges[k].stop, ranges[k].points] for k in nest],
        "version": __version__,
        "rows": len(rows),
        "na_rows": na_rows,
        **extra,
    }
    return SweepResult(axes + spec["columns"], tuple(rows), metadata, na_rows)


def _finite(values, where: tuple):
    """values, or ValueError at the first that is not a finite double; where
    names the point as (name, value) pairs."""
    for value in values:
        if not math.isfinite(value):
            point = ", ".join(f"{name} = {at!r}" for name, at in where)
            raise ValueError(f"a closed-form value at {point} is {value!r}, not a finite double")
    return values


def _moment_cell(config: WeakMeasurementConfig, g_a: dict, g_b: dict, columns, where: tuple):
    """columns(config, p_s, moment) of the raw pointer state whose sides have
    the Grams g_a and g_b, with moment(key_a, key_b) = <O_a (x) O_b> / P_s;
    the cause "degenerate" where P_s is below DEFAULT_P_FLOOR, and
    ValueError where P_s or a column is not a finite double."""
    p_s = contract(g_a["1"], g_b["1"]).real
    if p_s < DEFAULT_P_FLOOR:
        return "degenerate"
    _finite([p_s], where)
    return _finite(columns(config, p_s, lambda key_a, key_b: contract(g_a[key_a], g_b[key_b]) / p_s), where)


def _probability_cells(config: WeakMeasurementConfig, ss: list[float], thetas: list[float]):
    """(P_s,) at each (s, theta), from that point's own side Grams."""
    meters = [_meter_rows(config.wv.replace(theta1=t, theta2=t)) for t in thetas]
    CouplingParams(min(ss), min(ss))
    side_a, side_b = probe_sides(config.ecs)
    grid = [
        [_moment_cell(config, side_grams(row_a, s, side_a), side_grams(row_b, s, side_b),
                      lambda config, p_s, moment: (p_s,), (("s", s), ("theta", t)))
         for t, (row_a, row_b) in zip(thetas, meters)]
        for s in ss
    ]
    return grid, {}


def cmd_probability(config: WeakMeasurementConfig, s_range: RangeSpec, theta_range: RangeSpec,
                    order: list[str] | None = None) -> SweepResult:
    """Success probability over coupling and meter angle; s1 = s2 = s,
    theta1 = theta2 = theta, so each (s, theta) has its own side Grams."""
    return _sweep(config, "probability", (s_range, theta_range), order)


def _coupling_cells(keys: tuple[str, ...], columns):
    """The cells(config, s1s, s2s) of a command over the (s1, s2) grid: the
    _moment_cell of columns at each point, from each side's Grams of the
    keys, built once per s1 and once per s2."""

    def cells(config: WeakMeasurementConfig, s1s: list[float], s2s: list[float]):
        CouplingParams(min(s1s), min(s2s))
        (row_a, row_b), (side_a, side_b) = _meter_rows(config.wv), probe_sides(config.ecs)
        grams_b = [side_grams(row_b, s2, side_b, keys) for s2 in s2s]
        grid = []
        for s1 in s1s:
            g_a = side_grams(row_a, s1, side_a, keys)
            grid.append([_moment_cell(config, g_a, g_b, columns, (("s1", s1), ("s2", s2)))
                         for s2, g_b in zip(s2s, grams_b)])
        return grid, {}

    return cells


def _squeezing_columns(config: WeakMeasurementConfig, p_s: float, moment) -> tuple[float, float]:
    """(S2s_direct, S2s_normal) from the point's moments; see cmd_squeezing."""
    phase = cmath.exp(-1j * config.theta_big)
    denominator = moment("n", "1").real + moment("1", "n").real + 1.0
    m_ab, m_a2b2, n_ab = moment("a", "a"), moment("aa", "aa"), moment("n", "n").real
    pair, square = (phase * m_ab).real, (phase * phase * m_a2b2).real
    exp_v2 = 0.25 * (2.0 * square + 2.0 * n_ab + denominator)
    direct = 4.0 * (exp_v2 - pair * pair) / denominator - 1.0
    return direct, 2.0 * (square - 2.0 * pair * pair + n_ab) / denominator


def cmd_squeezing(config: WeakMeasurementConfig, s1_range: RangeSpec, s2_range: RangeSpec,
                  order: list[str] | None = None) -> SweepResult:
    """Sum squeezing of the post-selected state over the coupling grid,
    by the two routes of observables.squeezing_report from one set of
    closed-form moments, so they agree to rounding.

    Direct: 4 Var(V) / <N_a + N_b + 1> - 1, V = (e^{iT} a^dag b^dag + h.c.) / 2,
    with <V> = Re(e^{-iT} <a b>) and 4 <V^2> = 2 Re(e^{-2iT} <a^2 b^2>) +
    2 <N_a N_b> + <N_a + N_b + 1>.  Normal-ordered: 2 [Re(e^{-2iT} <a^2 b^2>)
    - 2 (Re e^{-iT} <a b>)^2 + <N_a N_b>] / <N_a + N_b + 1>.
    """
    return _sweep(config, "squeezing", (s1_range, s2_range), order)


def _wigner_cells(config: WeakMeasurementConfig, gammas: list[float], betas: list[float]):
    """(P_J,) at each (re_gamma, re_beta), and the grid minimum; see cmd_wigner."""
    coupling = config.coupling
    (row_a, row_b), (side_a, side_b) = _meter_rows(config.wv), probe_sides(config.ecs)
    p_s = contract(side_grams(row_a, coupling.s1, side_a)["1"], side_grams(row_b, coupling.s2, side_b)["1"]).real
    _check_p_floor(p_s)
    where = (("s1", coupling.s1), ("s2", coupling.s2))
    _finite([p_s], where)
    grams_a, grams_b = parity_grams(row_a, coupling.s1, side_a, gammas), parity_grams(row_b, coupling.s2, side_b, betas)
    # contract, unrolled: 2,601 calls of it cost more than the products.  zip makes each value a 1-tuple cell.
    grid = [list(zip(_finite([(a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3).real / p_s
                              for b0, b1, b2, b3 in grams_b], where)))
            for a0, a1, a2, a3 in grams_a]
    return grid, {"grid_min": min(map(min, grid))[0]}


def cmd_wigner(config: WeakMeasurementConfig, re_gamma: RangeSpec, re_beta: RangeSpec,
               order: list[str] | None = None) -> SweepResult:
    """Joint-parity Wigner cross-section of the post-selected state at the
    config's point coupling, with the grid minimum in the metadata: each
    side's displaced-parity Grams once per axis value (coherent.parity_grams),
    contracted per point.  A degenerate state fails the whole grid."""
    # Checked before the state is built, so a bad axis fails alike at any coupling.
    _wigner_axes(re_gamma, re_beta)
    return _sweep(config, "wigner", (re_gamma, re_beta), order)


def _hz_columns(config: WeakMeasurementConfig, p_s: float, moment) -> tuple[float, int]:
    """(E, entangled_flag) from the point's moments; see cmd_hz."""
    e_val = moment("n", "1").real * moment("1", "n").real - abs(moment("a", "a")) ** 2
    return e_val, int(e_val < 0.0)


def cmd_hz(config: WeakMeasurementConfig, s1_range: RangeSpec, s2_range: RangeSpec,
           order: list[str] | None = None) -> SweepResult:
    """Intensity-correlation witness E = <N_a><N_b> - |<a b>|^2 over the
    coupling grid; the flag column is 1 exactly when E < 0 (entanglement
    witnessed)."""
    return _sweep(config, "hz", (s1_range, s2_range), order)


def _qcrb_cell(config: WeakMeasurementConfig, r: float, s: float):
    """(Q_fi, delta_phi) at amplitude r and coupling s1 = s2 = s, with an NA
    delta_phi where Q_fi is below QFI_SENTINEL_FLOOR; or the cause
    "degenerate"."""
    try:
        q = pointer_qfi(EcsParams(r, config.ecs.mu, config.ecs.varphi), config.wv, CouplingParams(s, s))
    except DegeneratePostSelectionError:
        return "degenerate"
    return q, 1.0 / math.sqrt(q) if q >= QFI_SENTINEL_FLOOR else NA


def _qcrb_cells(config: WeakMeasurementConfig, rs: list[float], ss: list[float]):
    """_qcrb_cell at each (r, s), and the count of NA phase bounds as "zero_qfi"."""
    grid = [[_qcrb_cell(config, r, s) for s in ss] for r in rs]
    zero = sum(not isinstance(cell, str) and cell[1] == NA for row in grid for cell in row)
    return grid, {"zero_qfi": zero}


def cmd_qcrb(config: WeakMeasurementConfig, r_range: RangeSpec, s_range: RangeSpec,
             order: list[str] | None = None) -> SweepResult:
    """QFI and single-shot phase bound over amplitude and coupling; s1 = s2 = s.

    Each point is one closed-form pointer_qfi call, the qfi_analytic of
    that point; config.qfi_gauge, which picks the scaling of the library's
    finite-difference QFI, is ignored.  Degenerate points become NA rows,
    and a QFI below QFI_SENTINEL_FLOOR gets an NA phase bound.
    """
    return _sweep(config, "qcrb", (r_range, s_range), order)


# Per command: canonical axis order (also the CSV leading columns), the
# built-in default ranges used when an axis is not overridden, the output
# columns, the CLI help text, the runner, called as
# runner(config, *ranges in canonical order, order=declared order), and the
# cells function that _sweep calls with the axes' values (see there).
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
        "cells": _probability_cells,
    },
    "squeezing": {
        "axes": ("s1", "s2"),
        "defaults": {"s1": RangeSpec(0.0, 3.0, 16), "s2": RangeSpec(0.0, 3.0, 16)},
        "columns": ("S2s_direct", "S2s_normal"),
        "help": "sum squeezing of the post-selected state over (s1, s2)",
        "runner": cmd_squeezing,
        "cells": _coupling_cells(("1", "n", "a", "aa"), _squeezing_columns),
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
        "cells": _wigner_cells,
    },
    "hz": {
        "axes": ("s1", "s2"),
        "defaults": {"s1": RangeSpec(0.0, 3.0, 16), "s2": RangeSpec(0.0, 3.0, 16)},
        "columns": ("E", "entangled_flag"),
        "help": "intensity-correlation entanglement witness over (s1, s2)",
        "runner": cmd_hz,
        "cells": _coupling_cells(("1", "n", "a"), _hz_columns),
    },
    "qcrb": {
        "axes": ("r", "s"),
        "defaults": {"r": RangeSpec(0.05, 0.5, 10), "s": RangeSpec(0.0, 2.0, 5)},
        "columns": ("Q_fi", "delta_phi"),
        "help": "quantum Fisher information and phase bound over (r, s)",
        "runner": cmd_qcrb,
        "cells": _qcrb_cells,
    },
}
