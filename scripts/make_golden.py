#!/usr/bin/env python3
"""Regenerate the pinned CSV files under tests/golden/.

Run from anywhere:

    python3 scripts/make_golden.py

Every case in tests/golden_cases.py is executed through the CLI entry
point and written to tests/golden/<name>.  The golden files are the
reference data the test suite compares against: structure and axis,
integer and NA cells exactly, float cells within the bound stated in
tests/golden_cases.py.  Regenerate only after an intentional change in the
numerics, inspect the diff before committing it, and record the measured
drift against the old files in CHANGES.md.
"""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS_DIR = os.path.join(REPO_ROOT, "tests")
GOLDEN_DIR = os.path.join(TESTS_DIR, "golden")

sys.path.insert(0, TESTS_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from golden_cases import GOLDEN_CASES  # noqa: E402

from ecsim.cli import main  # noqa: E402


def regenerate() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, argv in GOLDEN_CASES.items():
        out_path = os.path.join(GOLDEN_DIR, name)
        code = main(argv + ["--out", out_path])
        if code != 0:
            print(f"FAILED ({code}): {name}", file=sys.stderr)
            return code
        size = os.path.getsize(out_path)
        print(f"wrote {out_path} ({size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
