"""The repository's tooling scripts run end to end."""

import os
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_pair_points_finds_no_gap_between_a_tree_and_itself():
    # scripts/pair_points.py is the paired-timing tool of the speed protocol:
    # this checkout's src on both sides must give identical values and outcomes.
    src = os.path.join(_ROOT, "src")
    script = os.path.join(_ROOT, "scripts", "pair_points.py")
    run = subprocess.run([sys.executable, script, src, src, "--seed", "1", "--rounds", "1"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert "outcome mismatches 0" in lines
    assert "worst relative gap 0.00e+00" in lines
