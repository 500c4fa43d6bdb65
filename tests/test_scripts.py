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


def test_pair_cli_finds_the_same_output_for_a_tree_and_itself():
    # scripts/pair_cli.py times the golden invocations in fresh processes:
    # this checkout on both sides must write the same stdout for each.
    script = os.path.join(_ROOT, "scripts", "pair_cli.py")
    run = subprocess.run([sys.executable, script, _ROOT, _ROOT, "--rounds", "2"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    # A title line and a header, then one row per golden invocation.
    assert lines[7].startswith("# parent:"), run.stdout
    assert all(line.split()[-1] == "same" for line in lines[2:7]), run.stdout
    assert lines[-1] == "failed runs 0"


def test_golden_drift_passes_every_golden():
    script = os.path.join(_ROOT, "scripts", "golden_drift.py")
    run = subprocess.run([sys.executable, script], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    rows = run.stdout.splitlines()[2:]
    assert len(rows) == 5 and all(row.endswith(",pass") for row in rows), run.stdout
