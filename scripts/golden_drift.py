#!/usr/bin/env python3
"""Measure how far a rerun of the golden invocations drifts from tests/golden/.

Run from anywhere:

    python3 scripts/golden_drift.py

The script reruns every case in tests/golden_cases.py once, in-process,
through the CLI entry point.  No sweep loads numpy or calls BLAS, so the
bytes depend only on the Python build and its libm, which the header line
names.  For every golden file it prints the number of float cells, how many
of them differ from the golden text, the worst absolute and relative
|delta|, the largest share of the per-cell bound used, and whether
`golden_mismatches` accepts the rerun.  The comparison rule itself lives in
tests/golden_cases.py.  Exits 1 when any golden mismatches, and with the
CLI's exit code when an invocation fails.
"""

import math
import os
import platform
import sys
import tempfile

SCRIPTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(SCRIPTS_DIR)
TESTS_DIR = os.path.join(REPO_ROOT, "tests")
GOLDEN_DIR = os.path.join(TESTS_DIR, "golden")

sys.path.insert(0, TESTS_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from golden_cases import (  # noqa: E402
    FLOAT_BOUND,
    GOLDEN_CASES,
    cell_bound,
    golden_mismatches,
    is_float_column,
)

def float_drift(golden: str, new: str) -> tuple[int, int, float, float, float]:
    """(float cells, cells that differ, worst |delta|, worst relative |delta|,
    largest share of the bound) over the finite float cells of two CSV texts.

    The relative |delta| is taken over cells with |golden| >= FLOAT_BOUND.
    """
    golden_lines = golden.splitlines()
    new_lines = new.splitlines()
    header = golden_lines[0].split(",")
    cells = differ = 0
    worst_abs = worst_rel = worst_share = 0.0
    for want_line, got_line in zip(golden_lines[1:], new_lines[1:]):
        for column, want, got in zip(header, want_line.split(","), got_line.split(",")):
            try:
                want_value, got_value = float(want), float(got)
            except ValueError:
                continue
            if not (is_float_column(column) and math.isfinite(want_value)):
                continue
            cells += 1
            delta = abs(got_value - want_value)
            if got != want:
                differ += 1
            worst_abs = max(worst_abs, delta)
            # A cell that rounding leaves near zero has no meaningful relative drift.
            if abs(want_value) >= FLOAT_BOUND:
                worst_rel = max(worst_rel, delta / abs(want_value))
            worst_share = max(worst_share, delta / cell_bound(want_value))
    return cells, differ, worst_abs, worst_rel, worst_share


def report() -> int:
    """Drift of every golden; 1 on a mismatch."""
    from ecsim.cli import main

    print(f"# Python {platform.python_version()} ({platform.python_implementation()}), {platform.platform()}")
    print("file,float_cells,differ,worst_abs,worst_rel,bound_share,golden_check")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in GOLDEN_CASES.items():
            out_path = os.path.join(tmp, name)
            code = main(argv + ["--out", out_path])
            if code != 0:
                print(f"{name}: exit {code}", file=sys.stderr)
                return code
            with open(os.path.join(GOLDEN_DIR, name), newline="") as fh:
                golden = fh.read()
            with open(out_path, newline="") as fh:
                new = fh.read()
            problems = golden_mismatches(name, golden, new)
            failed |= bool(problems)
            cells, differ, worst_abs, worst_rel, share = float_drift(golden, new)
            print(
                f"{name},{cells},{differ},{worst_abs:.2g},{worst_rel:.2g},"
                f"{100.0 * share:.2f}%,{'fail' if problems else 'pass'}"
            )
            for line in problems:
                print(f"  {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(report())
