"""The repository's tooling scripts run end to end."""

import importlib.util
import os
import shutil
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
    # Each side's finite-difference accuracy against the closed form, the same on both.
    accuracy = {line.split(":")[0]: line.split(":", 1)[1] for line in lines if line.startswith("fd accuracy ")}
    assert sorted(accuracy) == ["fd accuracy change", "fd accuracy parent"], run.stdout
    assert accuracy["fd accuracy parent"] == accuracy["fd accuracy change"]
    assert "median" in accuracy["fd accuracy parent"], run.stdout


def test_pair_points_measures_moment_gaps_against_one():
    # Squeezing and E are differences of O(1) moments: a 1.1e-16 gap at a
    # value of -1.2e-4 is rounding, and reads as such, not as 9.4e-13
    # relative.  P_s and the QFIs keep the plain relative gap.
    spec = importlib.util.spec_from_file_location("pair_points", os.path.join(_ROOT, "scripts", "pair_points.py"))
    pair_points = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pair_points)
    assert pair_points.UNIT_FLOOR == {"S2s_direct", "S2s_normal", "E"}
    a = -1.2e-4
    b = a + 1.1e-16
    assert pair_points.relative_gap(a, b, 1.0) == abs(b - a) < 2e-16
    assert pair_points.relative_gap(a, b) > 5e-13
    assert pair_points.relative_gap(a, 2.0 * a) == 0.5
    assert pair_points.relative_gap(0.0, 0.0) == 0.0


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


def test_pair_cli_reports_the_float_gap_of_an_output_that_differs(tmp_path):
    # A copy of src whose closed-form QFI is one part in 2^50 larger: only
    # qcrb prints it, so only its row differs, and the row gives the gap.
    change = tmp_path / "src"
    shutil.copytree(os.path.join(_ROOT, "src"), change, ignore=shutil.ignore_patterns("__pycache__"))
    with open(change / "ecsim" / "coherent.py", "a") as fh:
        fh.write("\n\n_exact_qfi = pointer_qfi\n\n\n"
                 "def pointer_qfi(*args):\n    return _exact_qfi(*args) * (1.0 + 2.0**-50)\n")
    script = os.path.join(_ROOT, "scripts", "pair_cli.py")
    run = subprocess.run([sys.executable, script, _ROOT, str(change), "--rounds", "2"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    rows = {line.split()[0]: line for line in run.stdout.splitlines()[2:7]}
    assert [name for name, row in rows.items() if row.split()[-1] == "same"] == [
        "probability_default.csv", "squeezing_default.csv", "wigner_coupled.csv", "hz_default.csv"]
    fields = rows["qcrb_default.csv"].split("DIFFER", 1)[1].replace(",", "").split()
    # "N cells worst abs A rel R P% of bound"
    cells, worst_abs, worst_rel = int(fields[0]), float(fields[4]), float(fields[6])
    assert cells > 0 and worst_abs > 0.0 and 0.0 < worst_rel <= 4e-15, run.stdout
    assert run.stdout.splitlines()[-1] == "failed runs 0"
