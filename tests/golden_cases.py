"""Frozen CLI invocations whose CSV output is pinned under tests/golden/,
and the rule by which a rerun is compared with them.

Each case maps a golden file name to the argv tail passed to ecsim.cli.main
(the --out flag is appended by the generator and by the comparison test).

Reruns are byte-identical (acceptance check c10).  The CLI calls no BLAS
and loads no numpy, so only the libm and CPython build can move the last
digits of a computed float; and the goldens were written by the Fock-grid
route of earlier versions, whose last digits followed the BLAS kernel and
numpy's reductions.  So `golden_mismatches` checks a rerun in two parts:

- exact text: header, row count and order, "\\n" line ends with a trailing
  newline, every axis cell, every integer cell, every "NA" cell and every
  cell that is not a finite number;
- finite float observable cells: |new - golden| <= FLOAT_BOUND *
  max(1, |golden|).

FLOAT_BOUND is 100x the worst drift once measured between OpenBLAS kernels
on the Fock-grid route (9.8e-15 absolute, 9.6e-12 relative on squeezing
cells near zero).  It covers the closed form's distance from the
Fock-written goldens (scripts/golden_drift.py: at most 0.3 % of the bound)
and the libm/CPython build.  Moving --r by one part in 1e9 moves hz cells
by up to about 200x the bound.

Regenerate the goldens with scripts/make_golden.py only after an
intentional change in the numerics, review the diff before committing it,
and record the measured drift in CHANGES.md.
"""

import math

GOLDEN_CASES = {
    "probability_default.csv": ["probability"],
    "squeezing_default.csv": ["squeezing"],
    "wigner_coupled.csv": ["wigner", "--s1", "1", "--s2", "1"],
    "hz_default.csv": ["hz"],
    "qcrb_default.csv": ["qcrb"],
}

# Sweep axes of the five commands; their cells are inputs, never computed.
AXIS_COLUMNS = frozenset({"s", "theta", "s1", "s2", "re_gamma", "re_beta", "r"})
# Integer-valued outputs derived from an observable.
INTEGER_COLUMNS = frozenset({"entangled_flag"})

FLOAT_BOUND = 1e-12

# At most this many mismatches are listed in one report.
_MAX_REPORTED = 20


def is_float_column(column: str) -> bool:
    """True for an observable column whose finite cells are compared within a bound."""
    return column not in AXIS_COLUMNS and column not in INTEGER_COLUMNS


def cell_bound(golden: float) -> float:
    """Largest |new - golden| accepted for a finite float cell."""
    return FLOAT_BOUND * max(1.0, abs(golden))


def _float_mismatch(golden: str, new: str) -> str | None:
    """Why the float cell `new` does not match `golden`, or None."""
    try:
        want = float(golden)
    except ValueError:
        want = math.nan
    if not math.isfinite(want):
        return None if new == golden else "text differs"
    try:
        got = float(new)
    except ValueError:
        return "not a number"
    bound = cell_bound(want)
    delta = abs(got - want)
    if delta <= bound:
        return None
    return f"|delta|={delta:.3g} > bound {bound:.3g}"


def golden_mismatches(name: str, golden: str, new: str) -> list[str]:
    """Every way the CSV text `new` departs from the golden text `golden`.

    Returns an empty list when they match under the rule in the module
    docstring; otherwise one line per mismatch naming the file, the line,
    the column and both texts.
    """
    problems: list[str] = []
    split: list[list[str]] = []
    for label, text in (("golden", golden), ("new", new)):
        if text.endswith("\n"):
            text = text[:-1]
        else:
            problems.append(f"{name}: {label} text lacks the trailing newline")
        if "\r" in text:
            problems.append(f"{name}: {label} text contains a carriage return")
        split.append(text.split("\n"))
    golden_lines, new_lines = split
    if golden_lines[0] != new_lines[0]:
        problems.append(
            f"{name}: header differs: golden {golden_lines[0]!r}, new {new_lines[0]!r}"
        )
        return problems
    if len(golden_lines) != len(new_lines):
        problems.append(
            f"{name}: golden has {len(golden_lines) - 1} rows, new has {len(new_lines) - 1}"
        )
    header = golden_lines[0].split(",")
    rows = zip(golden_lines[1:], new_lines[1:])
    for number, (want_line, got_line) in enumerate(rows, start=2):
        want_cells = want_line.split(",")
        got_cells = got_line.split(",")
        if len(got_cells) != len(header) or len(want_cells) != len(header):
            problems.append(
                f"{name} line {number}: golden {want_line!r}, new {got_line!r}"
                f" (header has {len(header)} columns)"
            )
            continue
        for column, want, got in zip(header, want_cells, got_cells):
            if is_float_column(column):
                why = _float_mismatch(want, got)
            else:
                why = None if got == want else "text differs"
            if why is not None:
                problems.append(
                    f"{name} line {number}, column {column}: golden {want!r}, new {got!r}: {why}"
                )
    if len(problems) > _MAX_REPORTED:
        hidden = len(problems) - _MAX_REPORTED
        problems = problems[:_MAX_REPORTED] + [f"... and {hidden} more"]
    return problems
