"""Tests for argument parsing, exit codes, output plumbing, and goldens."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from golden_cases import GOLDEN_CASES, golden_mismatches

import ecsim
from ecsim import __version__, sweep
from ecsim.cli import main, parse_angle, parse_cutoff, parse_sweep
from ecsim.config import RangeSpec
from ecsim.errors import NumericalRangeError
from ecsim.fock import FockCutoff

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def test_parse_angle():
    assert parse_angle("0.8pi") == pytest.approx(0.8 * math.pi, abs=0)
    assert parse_angle("pi") == math.pi
    assert parse_angle("+pi") == math.pi
    assert parse_angle("-pi") == -math.pi
    assert parse_angle("-0.5pi") == -0.5 * math.pi
    assert parse_angle("2") == 2.0
    assert parse_angle("1.5e0") == 1.5
    assert parse_angle(" 0.25PI ") == 0.25 * math.pi
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("abc")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("pipi")


def test_parse_cutoff():
    assert parse_cutoff("40") == FockCutoff(40, 40)
    assert parse_cutoff("30,20") == FockCutoff(30, 20)
    import argparse

    for bad in ("x", "1,2,3", "0", "-3"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_cutoff(bad)


def test_parse_sweep():
    name, spec = parse_sweep("s=0:3:31")
    assert name == "s"
    assert spec == RangeSpec(0.0, 3.0, 31)
    name, spec = parse_sweep("theta=0.2pi:0.8pi:4")
    assert name == "theta"
    assert spec.start == pytest.approx(0.2 * math.pi)
    assert spec.points == 4
    import argparse

    for bad in ("s=1:2", "s=1:2:x", "s=2:1:5", "=0:1:2"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_sweep(bad)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_command_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_single_point_to_stdout(capsys):
    code = main(["probability", "--sweep", "s=0:0:1", "--sweep", "theta=0:0:1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out == "s,theta,P_s\n0.0,0.0,1.0\n"


def test_out_and_meta_files(tmp_path):
    csv_path = tmp_path / "probability.csv"
    meta_path = tmp_path / "probability.json"
    code = main(
        [
            "probability",
            "--sweep",
            "s=0:1:2",
            "--sweep",
            "theta=0.5pi:0.5pi:1",
            "--out",
            str(csv_path),
            "--meta",
            str(meta_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "s,theta,P_s"
    assert len(lines) == 3
    meta = json.loads(meta_path.read_text())
    assert meta["rows"] == 2
    assert meta["version"] == __version__
    assert meta["config"]["r"] == 0.1


def test_invalid_theta_exits_two(capsys):
    code = main(["probability", "--theta1", "pi"])
    assert code == 2
    assert "theta1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--mu", "--varphi"])
def test_non_finite_phase_exits_two(capsys, flag, value):
    code = main(["hz", flag, value])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag[2:] in captured.err


def test_nan_correlation_gets_na_flag(capsys, monkeypatch):
    monkeypatch.setattr(sweep, "hz_correlation", lambda state: math.nan)
    code = main(["hz", "--sweep", "s1=0:1:2", "--sweep", "s2=0:0:1"])
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 2
    assert all(row["E"] == "nan" and row["entangled_flag"] == "NA" for row in rows)


def _trip_richardson_at(monkeypatch, r, s):
    """Make the finite-difference QFI refuse the point (r, s) and nothing else."""
    real = sweep.qfi_finite_difference

    def tripping(point, *args, **kwargs):
        if (point.ecs.r, point.coupling.s1) == (r, s):
            raise NumericalRangeError("finite-difference step is cancellation-dominated")
        return real(point, *args, **kwargs)

    monkeypatch.setattr(sweep, "qfi_finite_difference", tripping)


def test_qcrb_range_trip_in_grid_gets_na_row(capsys, monkeypatch, tmp_path):
    _trip_richardson_at(monkeypatch, 0.1, 1.0)
    meta = tmp_path / "meta.json"
    argv = ["qcrb", "--qfi-gauge", "renormalized", "--sweep", "r=0.05:0.1:2", "--sweep", "s=0:1:2"]
    assert main(argv + ["--meta", str(meta)]) == 0
    assert json.loads(meta.read_text())["na_rows"] == {"degenerate": 0, "richardson": 1}
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(row["r"], row["s"]) for row in rows] == [
        ("0.05", "0.0"), ("0.05", "1.0"), ("0.1", "0.0"), ("0.1", "1.0")
    ]
    for row in rows:
        tripped = (row["r"], row["s"]) == ("0.1", "1.0")
        assert (row["Q_fi"] == "NA") == tripped
        assert (row["delta_phi"] == "NA") == tripped
        if not tripped:
            assert float(row["Q_fi"]) > 0.0


def test_qcrb_range_trip_at_single_point_exits_three(capsys, monkeypatch):
    _trip_richardson_at(monkeypatch, 0.1, 1.0)
    argv = ["qcrb", "--qfi-gauge", "renormalized", "--sweep", "r=0.1:0.1:1", "--sweep", "s=1:1:1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cancellation-dominated" in captured.err


def test_renormalized_qcrb_builds_the_mode_a_column_once(tmp_path):
    # At a truncating cutoff each of the seven finite-difference probes warns
    # for its mode-b column, its ECS tail and its pointer tail; the mode-a
    # column they share is built, and warns, once: 1 + 3 * 7 warnings.
    meta = tmp_path / "meta.json"
    argv = ["qcrb", "--qfi-gauge", "renormalized", "--cutoff", "10",
            "--sweep", "r=2:2:1", "--sweep", "s=0:0:1"]
    assert main(argv + ["--out", str(tmp_path / "q.csv"), "--meta", str(meta)]) == 0
    assert json.loads(meta.read_text())["truncation_warnings"] == 22


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_qcrb_renormalized_default_grid_matches_fixed_kappa(tmp_path):
    # The finite-difference route must finish the default grid without a
    # false Richardson trip and agree with the closed-form QFI.
    renormalized = tmp_path / "renormalized.csv"
    fixed = tmp_path / "fixed.csv"
    assert main(["qcrb", "--qfi-gauge", "renormalized", "--out", str(renormalized)]) == 0
    assert main(["qcrb", "--out", str(fixed)]) == 0
    fd_rows, closed_rows = _read_rows(renormalized), _read_rows(fixed)
    assert len(fd_rows) == len(closed_rows) == 50
    for fd, closed in zip(fd_rows, closed_rows):
        assert (fd["r"], fd["s"]) == (closed["r"], closed["s"])
        q_fd, q_closed = float(fd["Q_fi"]), float(closed["Q_fi"])
        assert abs(q_fd - q_closed) <= 1e-6 * abs(q_closed)


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ecsim.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ecsim.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_unknown_sweep_axis_exits_two(capsys):
    code = main(["probability", "--sweep", "bogus=0:1:2"])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_duplicate_sweep_axis_exits_two(capsys):
    code = main(["probability", "--sweep", "s=0:1:2", "--sweep", "s=0:2:3"])
    assert code == 2
    assert "twice" in capsys.readouterr().err


def test_degenerate_single_point_exits_four(capsys):
    near_pi = repr(math.pi - 1e-8)
    code = main(
        [
            "probability",
            "--sweep",
            "s=0:0:1",
            "--sweep",
            f"theta={near_pi}:{near_pi}:1",
        ]
    )
    assert code == 4
    out = capsys.readouterr().out
    assert out.splitlines()[1].endswith("NA")


def test_wigner_out_of_range_exits_three(capsys):
    code = main(["wigner", "--r", "1", "--cutoff", "12"])
    assert code == 3
    assert "range" in capsys.readouterr().err


def test_declaration_order_controls_nesting(capsys):
    code = main(
        [
            "probability",
            "--sweep",
            "theta=0.2pi:0.4pi:2",
            "--sweep",
            "s=0:1:2",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "s,theta,P_s"
    # theta was declared first, so it is the outer loop even though the
    # column order stays canonical.
    thetas = [line.split(",")[1] for line in lines[1:]]
    s_vals = [line.split(",")[0] for line in lines[1:]]
    assert thetas[0] == thetas[1] != thetas[2]
    assert s_vals[0] != s_vals[1]


def test_default_nesting_is_canonical(capsys):
    code = main(["probability", "--sweep", "s=0:1:2", "--sweep", "theta=0.2pi:0.4pi:2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    s_vals = [line.split(",")[0] for line in lines[1:]]
    assert s_vals == ["0.0", "0.0", "1.0", "1.0"]


def test_cutoff_override_changes_metadata(tmp_path):
    meta_path = tmp_path / "m.json"
    code = main(
        [
            "squeezing",
            "--cutoff",
            "12,14",
            "--sweep",
            "s1=0:0:1",
            "--sweep",
            "s2=0:0:1",
            "--meta",
            str(meta_path),
        ]
    )
    assert code == 0
    meta = json.loads(meta_path.read_text())
    assert meta["config"]["n_max_a"] == 12
    assert meta["config"]["n_max_b"] == 14


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "ecsim.cli",
            "probability",
            "--sweep",
            "s=0:0:1",
            "--sweep",
            "theta=0:0:1",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "s,theta,P_s\n0.0,0.0,1.0\n"


def _read_text(path) -> str:
    # newline="" keeps "\r\n" visible to the comparison.
    with open(path, encoding="ascii", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_files_reproduce(tmp_path, name):
    """Rerunning the pinned invocation must reproduce the stored reference:
    exact structure, axis, integer and NA cells, floats within FLOAT_BOUND."""
    fresh = tmp_path / name
    code = main(GOLDEN_CASES[name] + ["--out", str(fresh)])
    assert code == 0
    golden = _read_text(os.path.join(GOLDEN_DIR, name))
    problems = golden_mismatches(name, golden, _read_text(fresh))
    assert not problems, "\n".join(problems)


HZ_GOLDEN = os.path.join(GOLDEN_DIR, "hz_default.csv")


def _cell(lines: list[str], i: int, column: str) -> str:
    return lines[i].split(",")[lines[0].split(",").index(column)]


def _with_cell(lines: list[str], i: int, column: str, text: str) -> str:
    """CSV text of `lines` with one cell replaced."""
    cells = lines[i].split(",")
    cells[lines[0].split(",").index(column)] = text
    return "\n".join(lines[:i] + [",".join(cells)] + lines[i + 1 :]) + "\n"


def _one_change_cases() -> dict[str, tuple[str, str]]:
    """(golden, new) pairs built from the hz golden, differing in one place."""
    golden = _read_text(HZ_GOLDEN)
    lines = golden[:-1].split("\n")
    last = len(lines) - 1
    # |E| >= 1 on the last row, so 1e-9 relative is beyond the absolute floor.
    big_e = float(_cell(lines, last, "E"))
    assert abs(big_e) >= 1
    flag = int(_cell(lines, 3, "entangled_flag"))
    s2 = float(_cell(lines, 2, "s2"))
    return {
        "float off by 1e-9 relative": (
            golden, _with_cell(lines, last, "E", repr(big_e * (1 + 1e-9)))
        ),
        "NA replaced by a number": (_with_cell(lines, 2, "E", "NA"), golden),
        "flipped entangled_flag": (
            golden, _with_cell(lines, 3, "entangled_flag", str(1 - flag))
        ),
        "changed axis value": (
            golden, _with_cell(lines, 2, "s2", repr(math.nextafter(s2, 1.0)))
        ),
        "dropped row": (golden, "\n".join(lines[:5] + lines[6:]) + "\n"),
        "renamed header column": (golden, golden.replace(",E,", ",E_hz,", 1)),
        "missing trailing newline": (golden, golden[:-1]),
    }


@pytest.mark.parametrize("case", sorted(_one_change_cases()))
def test_golden_mismatches_rejects_one_change(case):
    golden, new = _one_change_cases()[case]
    assert golden != new
    assert golden_mismatches("hz_default.csv", golden, new)


def test_golden_mismatches_accepts_rounding_drift():
    for name in sorted(GOLDEN_CASES):
        golden = _read_text(os.path.join(GOLDEN_DIR, name))
        assert golden_mismatches(name, golden, golden) == []
    # The worst drift measured between OpenBLAS kernels, on a cell below 1
    # in magnitude, where the bound is absolute.
    golden = _read_text(HZ_GOLDEN)
    lines = golden[:-1].split("\n")
    small_e = float(_cell(lines, 1, "E"))
    assert abs(small_e) < 1
    new = _with_cell(lines, 1, "E", repr(small_e + 9.8e-15))
    assert new != golden
    assert golden_mismatches("hz_default.csv", golden, new) == []
