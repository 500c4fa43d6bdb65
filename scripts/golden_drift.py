#!/usr/bin/env python3
"""Measure how far a rerun of the golden invocations drifts from tests/golden/.

Run from anywhere:

    python3 scripts/golden_drift.py

The script reruns every case in tests/golden_cases.py through the CLI entry
point under each OpenBLAS kernel of KERNELS, one child process per kernel:
the default one, then OPENBLAS_CORETYPE Haswell, Sandybridge, Nehalem and
Prescott.  Each block names the requested kernel beside the core that runs,
read from the loaded OpenBLAS ("unknown" where it does not report one),
since OpenBLAS falls back silently on a name it does not know (Prescott
runs as Katmai on some builds).  For every golden file it prints the
number of float cells, how many of them differ from the golden text, the
worst absolute and relative |delta|, the largest share of the per-cell
bound used, and whether `golden_mismatches` accepts the rerun.  The
comparison rule itself lives in tests/golden_cases.py.  Exits 1 when any
golden mismatches under any kernel.
"""

import ctypes
import glob
import math
import os
import subprocess
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

# OPENBLAS_CORETYPE per run; None leaves OpenBLAS to pick a kernel for the CPU.
KERNELS = (None, "Haswell", "Sandybridge", "Nehalem", "Prescott")
# How OpenBLAS builds name their running core (scipy-openblas ILP64 first).
CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename")


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


def blas_description() -> str:
    """Name and version of the BLAS numpy was built against."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def running_core() -> str:
    """The kernel the OpenBLAS loaded by numpy runs, or "unknown"."""
    import numpy as np

    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in glob.glob(os.path.join(site, "numpy*libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in CORENAME_SYMBOLS:
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def report() -> int:
    """Drift of every golden under this process's kernel; 1 on a mismatch."""
    from ecsim.cli import main

    requested = os.environ.get("OPENBLAS_CORETYPE") or "unset"
    print(f"# {blas_description()}; OPENBLAS_CORETYPE={requested}, running core {running_core()}")
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


def run() -> int:
    """report() under each of KERNELS, each in a child process, since
    OpenBLAS reads OPENBLAS_CORETYPE only when it loads."""
    child = f"import sys; sys.path.insert(0, {SCRIPTS_DIR!r}); import golden_drift; sys.exit(golden_drift.report())"
    failed = False
    for kernel in KERNELS:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        failed |= proc.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
