"""Tests for argument parsing, exit codes, output plumbing, and goldens."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

import oracles
from golden_cases import GOLDEN_CASES, cell_bound, golden_mismatches

import ecsim
from ecsim import __version__, sweep
from ecsim.cli import main, parse_angle, parse_sweep
from ecsim.config import QFI_GAUGES, RangeSpec, WeakMeasurementConfig, default_config
from ecsim.measurement import CouplingParams, EcsParams
from ecsim.observables import qfi_finite_difference

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# A meter angle whose post-selection falls below the P_s floor.
NEAR_PI = "0.99999999pi"

# The --meta "na_rows" of a sweep without NA rows.
CLEAN_NA_ROWS = {"degenerate": 0, "zero_qfi": 0}

# The config key of the library's finite-difference QFI.  No flag sets it,
# and a --meta sidecar echoes its default.
FOCK_KEYS = ("qfi_gauge",)
# The config keys that older sidecars recorded for the Fock cutoff and tail
# tolerance, which are now arguments of the Fock routes, at the values of a
# run that set them.
OLDER_FOCK_KEYS = {"n_max_a": 30, "n_max_b": 40, "tail_tolerance": 1e-12}


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


@pytest.mark.parametrize("flag", ["--out", "--meta"])
def test_unwritable_output_path_exits_two(capsys, tmp_path, flag):
    path = tmp_path / "missing" / "x"
    argv = ["probability", "--sweep", "s=0:0:1", "--sweep", "theta=0:0:1", flag, str(path)]
    code = main(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ecsim: ")
    assert str(path) in captured.err
    # With the other path writable, the run still leaves no CSV behind.
    out = tmp_path / "o.csv"
    other = ["--out", str(out)] if flag == "--meta" else ["--meta", str(tmp_path / "m.json")]
    assert main(argv + other) == 2
    assert not out.exists() and not path.exists()


# Finite inputs whose displacement angle, axis width or squared amplitude
# overflows a double.
OVERFLOWING_INPUTS = [
    ["probability", "--sweep", "s=1e308:1.7e308:2"],
    ["squeezing", "--sweep", "s1=0:1e308:2"],
    ["hz", "--sweep", "s1=0:1e308:2"],
    ["qcrb", "--sweep", "s=0:1e308:2"],
    ["wigner", "--s1", "1e308"],
    ["wigner", "--sweep", "re_gamma=-1e308:1e308:2"],
    ["probability", "--r", "1e200"],
    ["hz", "--r", "1e200"],
    ["wigner", "--r", "1e200"],
    ["qcrb", "--sweep", "r=1e200:1e201:2"],
    ["qcrb", "--sweep", "r=0:1e300:2"],
    # The QFI grows as r^4: at r = 1e100 it is no double, though r^2 is.
    ["qcrb", "--sweep", "r=1e100:1e100:1", "--sweep", "s=1:1:1"],
]


@pytest.mark.parametrize("argv", OVERFLOWING_INPUTS, ids=" ".join)
def test_overflowing_input_exits_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ecsim: ")


@pytest.mark.parametrize("flag", ["--cutoff=40", "--tail-tol=1e-10", "--qfi-gauge=fixed-kappa"])
@pytest.mark.parametrize("command", sorted(sweep._COMMANDS))
def test_fock_flags_exit_two(capsys, command, flag):
    # Every command is closed-form: the flags of the Fock grid and of the
    # finite-difference QFI are unknown arguments, even at their defaults.
    with pytest.raises(SystemExit) as excinfo:
        main([command, flag])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag.split("=")[0] in captured.err


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


@pytest.mark.parametrize("command", ["probability", "squeezing", "wigner", "hz"])
def test_non_finite_cell_exits_two(capsys, monkeypatch, command):
    # A closed-form moment that is no finite double is refused, never printed.
    monkeypatch.setattr(sweep, "contract", lambda g_a, g_b: complex(math.inf, 0.0))
    assert main([command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a finite double" in captured.err


def test_overflowing_moment_exits_two(capsys):
    # At r = 1e100 the occupations are about 1e200 and E = <N_a><N_b> - |<a b>|^2 overflows.
    assert main(["hz", "--r", "1e100", "--sweep", "s1=1:1:1", "--sweep", "s2=1:1:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a finite double" in captured.err


def _csv_of_sidecar(command: str, meta: dict, **older_keys) -> str:
    """CSV text of the run a --meta sidecar describes, rerun through the
    command's sweep from the sidecar's config with older_keys, keys that
    older sidecars recorded, added to it."""
    config = WeakMeasurementConfig.from_dict(dict(meta["config"], **older_keys))
    assert config.to_dict() == meta["config"]
    ranges = {name: RangeSpec(start, stop, points) for name, start, stop, points in meta["axes"]}
    info = sweep._COMMANDS[command]
    order = [axis[0] for axis in meta["axes"]]
    return info["runner"](config, *(ranges[name] for name in info["axes"]), order=order).csv_text()


@pytest.mark.parametrize("cutoff", ["10", "40", "120"])
def test_hz_needs_no_cutoff(capsys, tmp_path, cutoff):
    # The closed form prints E = 295.00003580756845, the cutoff-120 value of
    # the old Fock route, and a sidecar gives the same bytes whatever cutoff
    # an older sidecar recorded.
    meta = tmp_path / "meta.json"
    argv = ["hz", "--r", "6", "--sweep", "s1=3:3:1", "--sweep", "s2=3:3:1", "--meta", str(meta)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    e_val = float(captured.out.splitlines()[1].split(",")[2])
    assert abs(e_val - 295.00003580756845) <= cell_bound(295.00003580756845)
    assert captured.err == ""
    older = {"n_max_a": int(cutoff), "n_max_b": int(cutoff)}
    assert _csv_of_sidecar("hz", json.loads(meta.read_text()), **older) == captured.out


@pytest.mark.parametrize("cutoff", ["10", "40", "120"])
def test_fixed_kappa_qcrb_needs_no_cutoff(capsys, tmp_path, cutoff):
    # The closed-form QFI prints the cutoff-120 value of the Fock route, and a
    # sidecar gives the same bytes whatever cutoff an older sidecar recorded.
    meta = tmp_path / "meta.json"
    argv = ["qcrb", "--sweep", "r=6:6:1", "--sweep", "s=1:1:1", "--meta", str(meta)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].split(",")[2] == "1434.445668871303"
    assert captured.err == ""
    older = {"n_max_a": int(cutoff), "n_max_b": int(cutoff)}
    assert _csv_of_sidecar("qcrb", json.loads(meta.read_text()), **older) == captured.out


def test_fixed_kappa_qcrb_at_a_huge_coupling_is_finite(capsys):
    # At s = 1e150 the meters' displacements overflow any Fock grid and
    # e^{-a} cosh z is 0 * inf; the closed form reaches the limit that every
    # s >= 10 already gives at r = 0.1.
    assert main(["qcrb", "--sweep", "s=1e150:1e150:1", "--sweep", "r=0.1:0.1:1"]) == 0
    huge = capsys.readouterr().out.splitlines()[1].split(",")
    assert main(["qcrb", "--sweep", "s=10:10:1", "--sweep", "r=0.1:0.1:1"]) == 0
    limit = capsys.readouterr().out.splitlines()[1].split(",")
    assert huge[2:] == limit[2:] == ["0.010125248956264606", "9.937957722141094"]


def _hz_exact(r: float, s1: float, s2: float) -> float:
    """E = <N_a><N_b> - |<a b>|^2 of the default meters at amplitude r, from the untruncated oracle."""
    config = default_config(ecs=EcsParams(r, 0.5 * math.pi, 0.5 * math.pi)).to_dict()
    point = [config[name] for name in ("r", "mu", "varphi", "theta1", "delta1", "theta2", "delta2")]
    moments = oracles.exact_moments(*point, s1, s2, names=("n_a", "n_b", "ab"))
    return moments["n_a"].real * moments["n_b"].real - abs(moments["ab"]) ** 2


@pytest.mark.parametrize("argv, expected", [
    # Rows the Fock route refused at cutoff 40, with their untruncated values.
    (["probability", "--r", "1e100", "--sweep", "s=0:0:1", "--sweep", "theta=0:0:1"], lambda: [1.0]),
    (["probability", "--r", "1e100", "--sweep", "s=0:0:1", "--sweep", "theta=0.8pi:0.8pi:1"],
     lambda: [math.cos(0.4 * math.pi) ** 4]),
    (["hz", "--r", "30", "--sweep", "s1=0:0:1", "--sweep", "s2=0:0:1"], lambda: [450.0 * 450.0]),
    (["hz", "--r", "3", "--sweep", "s1=0:20:2", "--sweep", "s2=0:0:1"],
     lambda: [_hz_exact(3.0, 0.0, 0.0), _hz_exact(3.0, 20.0, 0.0)]),
], ids=["probability-r1e100-theta0", "probability-r1e100", "hz-r30", "hz-r3-s20"])
def test_rows_beyond_the_fock_grid_are_exact(capsys, tmp_path, argv, expected):
    # P_s = cos^2(theta1/2) cos^2(theta2/2) at s = 0 whatever r; at r = 30 and
    # s = 0 the probe has <N_a> = <N_b> = r^2 / 2 and <a b> = 0.
    meta = tmp_path / "meta.json"
    assert main(argv + ["--meta", str(meta)]) == 0
    captured = capsys.readouterr()
    values = [float(row.split(",")[2]) for row in captured.out.splitlines()[1:]]
    want = expected()
    assert len(values) == len(want)
    assert all(abs(got - value) <= cell_bound(value) for got, value in zip(values, want))
    assert captured.err == ""
    assert json.loads(meta.read_text())["na_rows"] == CLEAN_NA_ROWS


def test_zero_qfi_single_point_exits_zero_with_na_bound(capsys, tmp_path):
    # At r = 0 the probe carries no phase: Q = 0 and delta_phi is undefined,
    # which is neither a degenerate post-selection nor an error.
    meta = tmp_path / "meta.json"
    argv = ["qcrb", "--sweep", "r=0:0:1", "--sweep", "s=1:1:1", "--meta", str(meta)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == "r,s,Q_fi,delta_phi\n0.0,1.0,0.0,NA\n"
    assert captured.err == ""
    assert json.loads(meta.read_text())["na_rows"] == dict(CLEAN_NA_ROWS, zero_qfi=1)


def test_zero_qfi_in_grid_is_counted(capsys, tmp_path):
    meta = tmp_path / "meta.json"
    assert main(["qcrb", "--sweep", "r=0:0.1:2", "--sweep", "s=1:1:1", "--meta", str(meta)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows[0] == "0.0,1.0,0.0,NA"
    assert not rows[1].endswith("NA")
    assert json.loads(meta.read_text())["na_rows"] == dict(CLEAN_NA_ROWS, zero_qfi=1)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_qcrb_renormalized_default_grid_matches_fixed_kappa(tmp_path):
    # The CLI prints the closed-form QFI.  At each of its 50 default rows the
    # library's finite-difference QFI, in either gauge, finishes without a
    # Richardson trip (which would raise) and agrees with it.
    out = tmp_path / "qcrb.csv"
    assert main(["qcrb", "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert len(rows) == 50
    config = default_config()
    for row in rows:
        r, s, q_closed = float(row["r"]), float(row["s"]), float(row["Q_fi"])
        point = config.replace(ecs=EcsParams(r, config.ecs.mu, config.ecs.varphi), coupling=CouplingParams(s, s))
        for gauge in QFI_GAUGES:
            q_fd = qfi_finite_difference(point.replace(qfi_gauge=gauge))
            assert abs(q_fd - q_closed) <= 1e-6 * abs(q_closed)


def _child_env() -> dict:
    """The environment with PYTHONPATH led by the directory of the package
    the tests imported, so a child python finds the same ecsim."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ecsim.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ecsim.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Run in a fresh interpreter: the import of ecsim and ecsim.cli, the five
# golden invocations, a single-point qcrb and an hz run with --meta,
# recording after each step which of the modules that the CLI must not
# load are loaded, and after the CLI's import the ecsim modules it loaded,
# then every public name's lookup.  A module that the interpreter loaded
# before the probe (site loads typing) is not counted.
# json is imported only to print the result, after the last step.
_IMPORT_PROBE = """
import contextlib, io, os, sys, tempfile
from golden_cases import GOLDEN_CASES
WATCHED = [module for module in ("numpy", "dataclasses", "inspect", "json", "typing") if module not in sys.modules]
loaded = lambda: [module for module in WATCHED if module in sys.modules]
steps = {}
import ecsim
steps["import ecsim"] = (0, loaded())
import ecsim.cli
steps["import ecsim.cli"] = (0, loaded())
steps["ecsim modules"] = sorted(name for name in sys.modules if name.partition(".")[0] == "ecsim")
cases = dict(GOLDEN_CASES, single_qcrb=["qcrb", "--sweep", "r=0.3:0.3:1", "--sweep", "s=1:1:1"])
with tempfile.TemporaryDirectory() as tmp:
    cases["meta"] = ["hz", "--meta", os.path.join(tmp, "hz.json")]
    for name, argv in cases.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = ecsim.cli.main(argv)
        steps[name] = (code, loaded())
if not sys.flags.no_site:  # the Fock layer's names load numpy, which python -S does not find
    steps["names"] = [name for name in ecsim.__all__ if getattr(ecsim, name, None) is None]
import json
print(json.dumps(steps))
"""


def test_sweeps_run_without_numpy():
    """No CLI invocation loads numpy, dataclasses, inspect or typing, and
    only --meta loads json: these imports are most of what a cold run could
    add to its start-up.  typing is watched under python -S, whose
    interpreter does not load it before the probe."""
    for flags in ([], ["-S"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _IMPORT_PROBE],
            capture_output=True,
            text=True,
            env=_child_env(),
            cwd=os.path.dirname(os.path.abspath(__file__)),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        steps = json.loads(proc.stdout)
        assert steps.pop("names", None) == (None if flags else [])
        assert steps.pop("meta") == [0, ["json"]]
        # The CLI loads the scenario's records and the closed form, and no Fock module.
        assert steps.pop("ecsim modules") == [f"ecsim{name}" for name in (
            "", ".cli", ".coherent", ".config", ".errors", ".params", ".sweep")]
        # No command has a Fock route, qcrb included: none loads numpy.
        assert steps == {name: [0, []] for name in ["import ecsim", "import ecsim.cli", *GOLDEN_CASES, "single_qcrb"]}


def test_package_exports_its_26_public_names():
    # fock's dense operator layer (ModeOperator, displacement_matrix,
    # apply_to_mode) stays in ecsim.fock, outside the package namespace.
    assert sorted(ecsim.__all__) == sorted([
        "__version__", "CouplingParams", "DegeneratePostSelectionError", "EcsParams", "FockCutoff",
        "NumericalRangeError", "PostSelectedOutcome", "RangeSpec", "SqueezingReport", "TruncationWarning",
        "TwoModeState", "WeakMeasurementConfig", "WeakValueParams", "WignerGrid", "build_ecs",
        "build_pointer_state", "coherent_column", "default_config", "hz_correlation",
        "joint_wigner_grid", "qcrb", "qfi_analytic", "qfi_finite_difference",
        "squeezing_report", "weak_value_x", "weak_value_y",
    ])
    assert all(hasattr(ecsim, name) for name in ecsim.__all__)


def test_unknown_sweep_axis_exits_two(capsys):
    code = main(["probability", "--sweep", "bogus=0:1:2"])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["probability", "--sweep", "s=-1:0:2"], "s1 must be finite and >= 0, got -1.0"),
        (["squeezing", "--sweep", "s1=-1:0:2"], "s1 must be finite and >= 0, got -1.0"),
        (["hz", "--sweep", "s1=-1:0:2"], "s1 must be finite and >= 0, got -1.0"),
        (["hz", "--sweep", "s2=-0.5:1:3"], "s2 must be finite and >= 0, got -0.5"),
        (["squeezing", "--sweep", "s2=-1:0:2", "--sweep", "s1=-2:1:2"], "s1 must be finite and >= 0, got -2.0"),
        (["qcrb", "--sweep", "s=-1:0:2"], "s1 must be finite and >= 0, got -1.0"),
    ],
)
def test_negative_coupling_axis_exits_two(capsys, argv, message):
    code = main(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


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


def _assert_wigner_needs_no_cutoff(capsys, tmp_path, argv):
    meta = tmp_path / "meta.json"
    assert main(argv + ["--meta", str(meta)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for n_max in (12, 40):
        assert _csv_of_sidecar("wigner", json.loads(meta.read_text()), n_max_a=n_max, n_max_b=n_max) == captured.out


def test_overfilled_wigner_state_needs_no_cutoff(capsys, tmp_path):
    # The r = 1 state puts more than the default tail tolerance on level 12,
    # which the Fock route refused; the closed form prints the same grid
    # whatever cutoff an older sidecar recorded.
    argv = ["wigner", "--r", "1", "--sweep", "re_gamma=-0.01:0.01:2", "--sweep", "re_beta=-0.01:0.01:2"]
    _assert_wigner_needs_no_cutoff(capsys, tmp_path, argv)


def test_default_wigner_grid_needs_no_cutoff(capsys, tmp_path):
    # The default grid's displacements by 2 leave a cutoff of 12, which the
    # Fock route refused as out of range; the closed form has no range check.
    _assert_wigner_needs_no_cutoff(capsys, tmp_path, ["wigner", "--r", "1"])


@pytest.mark.parametrize(
    "coupling", [[], ["--theta1", NEAR_PI, "--theta2", NEAR_PI]], ids=["default", "degenerate"]
)
def test_one_point_wigner_axis_exits_two(capsys, coupling):
    # The axes are checked before the state is built, so a degenerate
    # coupling does not turn the bad axis into exit 4.
    assert main(["wigner", *coupling, "--sweep", "re_gamma=0:0:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 2 points" in captured.err


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
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "s,theta,P_s\n0.0,0.0,1.0\n"


def _read_text(path) -> str:
    # newline="" keeps "\r\n" visible to the comparison.
    with open(path, encoding="ascii", newline="") as fh:
        return fh.read()


HALF_PI = 0.5 * math.pi
DEFAULT_CONFIG_ECHO = {
    "r": 0.1, "mu": HALF_PI, "varphi": HALF_PI,
    "theta1": 0.8 * math.pi, "delta1": HALF_PI, "theta2": 0.8 * math.pi, "delta2": HALF_PI,
    "s1": 0.0, "s2": 0.0, "theta_big": HALF_PI, "qfi_gauge": "fixed-kappa",
}
COUPLING_AXES = [["s1", 0.0, 3.0, 16], ["s2", 0.0, 3.0, 16]]
# The --meta sidecar of each golden invocation.  grid_min is compared within
# the golden float bound, every other field exactly.
GOLDEN_METADATA = {
    "probability_default.csv": {
        "rows": 124,
        "na_rows": CLEAN_NA_ROWS,
        "axes": [["s", 0.0, 3.0, 31], ["theta", 0.2 * math.pi, 0.8 * math.pi, 4]],
    },
    "squeezing_default.csv": {"rows": 256, "na_rows": CLEAN_NA_ROWS, "axes": COUPLING_AXES},
    "wigner_coupled.csv": {
        "rows": 2601,
        "na_rows": CLEAN_NA_ROWS,
        "grid_min": -0.32515977428700416,
        "config": dict(DEFAULT_CONFIG_ECHO, s1=1.0, s2=1.0),
        "axes": [["re_gamma", -2.0, 2.0, 51], ["re_beta", -2.0, 2.0, 51]],
    },
    "hz_default.csv": {"rows": 256, "na_rows": CLEAN_NA_ROWS, "axes": COUPLING_AXES},
    "qcrb_default.csv": {
        "rows": 50,
        "na_rows": CLEAN_NA_ROWS,
        "axes": [["r", 0.05, 0.5, 10], ["s", 0.0, 2.0, 5]],
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_files_reproduce(tmp_path, name):
    """Rerunning the pinned invocation must reproduce the stored reference:
    exact structure, axis, integer and NA cells, floats within FLOAT_BOUND;
    and the pinned metadata."""
    fresh = tmp_path / name
    meta_path = tmp_path / "meta.json"
    code = main(GOLDEN_CASES[name] + ["--out", str(fresh), "--meta", str(meta_path)])
    assert code == 0
    golden = _read_text(os.path.join(GOLDEN_DIR, name))
    problems = golden_mismatches(name, golden, _read_text(fresh))
    assert not problems, "\n".join(problems)
    want = {"config": DEFAULT_CONFIG_ECHO, "version": __version__}
    want.update(GOLDEN_METADATA[name])
    meta = json.loads(meta_path.read_text())
    if "grid_min" in want:
        grid_min = want.pop("grid_min")
        assert abs(meta.pop("grid_min") - grid_min) <= cell_bound(grid_min)
    assert meta == want


@pytest.mark.parametrize("argv, builds", [
    pytest.param(["probability", "--sweep", "s=0:1:2", "--sweep", "theta=0.8pi:0.8pi:1"], 4, id="probability"),
    pytest.param(["squeezing", "--sweep", "s1=0:1:2", "--sweep", "s2=0:0:1"], 3, id="squeezing"),
    pytest.param(["hz", "--sweep", "s1=0:1:2", "--sweep", "s2=0:0:1"], 3, id="hz"),
    pytest.param(["probability"], 248, id="probability-default"),
    pytest.param(["squeezing"], 32, id="squeezing-default"),
    pytest.param(["hz"], 32, id="hz-default"),
])
def test_sweep_builds_the_probe_once(monkeypatch, tmp_path, argv, builds):
    # The sweeps build each side's Grams of the probe's coherent states once
    # per axis value and contract them per row: 2 + 1 builds on a 2 x 1
    # coupling grid and 16 + 16 on the default one, where building per row
    # would take 2 and 2 per row.  probability ties s and theta on both
    # sides, so each of its rows has its own pair.  At r = 2, where a Fock
    # probe at cutoff 10 is truncated, no row is NA.
    calls = []
    real = sweep.side_grams

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(sweep, "side_grams", counting)
    meta, out = tmp_path / "meta.json", tmp_path / "o.csv"
    argv = argv + ["--r", "2", "--out", str(out), "--meta", str(meta)]
    assert main(argv) == 0
    assert len(calls) == builds
    assert json.loads(meta.read_text())["na_rows"] == CLEAN_NA_ROWS
    assert "NA" not in out.read_text()


# Per command: its two axes, in canonical order, as small --sweep flags.
SMALL_GRIDS = {
    "probability": ([], "s=0:1:2", "theta=0.2pi:0.4pi:3"),
    "squeezing": ([], "s1=0:1:2", "s2=0:2:3"),
    "wigner": (["--s1", "1", "--s2", "1"], "re_gamma=-1:1:2", "re_beta=-1:1:3"),
    "hz": ([], "s1=0:1:2", "s2=0:2:3"),
    "qcrb": ([], "r=0.05:0.1:2", "s=0:1:3"),
}


@pytest.mark.parametrize("command", sorted(SMALL_GRIDS))
def test_reversed_declaration_transposes_the_canonical_rows(capsys, command):
    flags, outer, inner = SMALL_GRIDS[command]
    assert main([command, *flags, "--sweep", outer, "--sweep", inner]) == 0
    canonical = capsys.readouterr().out.splitlines()
    assert main([command, *flags, "--sweep", inner, "--sweep", outer]) == 0
    reversed_ = capsys.readouterr().out.splitlines()
    assert reversed_[0] == canonical[0]
    rows = canonical[1:]
    assert len(rows) == 6
    # 2 outer x 3 inner values: the first declared axis is now the outer loop.
    assert reversed_[1:] == [rows[3 * i + j] for j in range(3) for i in range(2)]


# Grids holding NA rows: flags, canonical outer and inner axes, the number of
# NA rows, and the --meta "na_rows" entry.
MIXED_GRIDS = {
    "probability": ([], "s=0:2:2", f"theta=0.5pi:{NEAR_PI}:2", 1, dict(CLEAN_NA_ROWS, degenerate=1)),
    "hz": (["--theta1", NEAR_PI, "--theta2", NEAR_PI], "s1=0:2:2", "s2=0:2:3", 4,
           dict(CLEAN_NA_ROWS, degenerate=4)),
    "qcrb": ([], "r=0:0.1:2", "s=0:1:3", 3, dict(CLEAN_NA_ROWS, zero_qfi=3)),
}


@pytest.mark.parametrize("command", sorted(MIXED_GRIDS))
def test_reversed_declaration_moves_na_rows_with_their_rows(capsys, tmp_path, command):
    flags, outer, inner, na_count, na_rows = MIXED_GRIDS[command]
    runs = []
    for first, second in ((outer, inner), (inner, outer)):
        meta = tmp_path / f"{len(runs)}.json"
        assert main([command, *flags, "--sweep", first, "--sweep", second, "--meta", str(meta)]) == 0
        runs.append((capsys.readouterr().out.splitlines(), json.loads(meta.read_text())))
    (canonical, canonical_meta), (reversed_, reversed_meta) = runs
    rows = canonical[1:]
    n_outer, n_inner = (int(spec.rsplit(":", 1)[1]) for spec in (outer, inner))
    assert sum("NA" in row.split(",") for row in rows) == na_count
    assert reversed_[1:] == [rows[n_inner * i + j] for j in range(n_inner) for i in range(n_outer)]
    assert canonical_meta.get("na_rows") == na_rows
    # The sidecars differ only in the axes' order.
    assert reversed_meta.pop("axes") == canonical_meta.pop("axes")[::-1]
    assert reversed_meta == canonical_meta


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


# Every config flag at a value other than its default.
REPLAY_FLAGS = [
    "--r", "0.4", "--mu", "0.3pi", "--varphi", "0.7pi", "--theta1", "0.6pi", "--delta1", "0.2pi",
    "--theta2", "0.5pi", "--delta2", "1.1pi", "--s1", "0.7", "--s2", "0.4", "--theta-big", "0.3pi",
]


def replay_argv(meta: dict) -> list[str]:
    """The argv tail of the run a --meta sidecar describes, from the sidecar alone."""
    config = {key: value for key, value in meta["config"].items() if key not in FOCK_KEYS}
    argv = [f"--{key.replace('_', '-')}={value}" for key, value in config.items()]
    for name, start, stop, points in meta["axes"]:
        argv += ["--sweep", f"{name}={start}:{stop}:{points}"]
    return argv


# Each command's axes, declared in reverse canonical order.
REPLAY_SWEEPS = {
    "probability": ["theta=0.1pi:0.3pi:2", "s=0.5:1:2"],
    "squeezing": ["s2=0:1:2", "s1=0.5:1.5:2"],
    "wigner": ["re_beta=-1:1:2", "re_gamma=-0.5:0.5:2"],
    "hz": ["s2=0:1:2", "s1=0.5:1.5:2"],
    "qcrb": ["s=0.5:1:2", "r=0.2:0.4:2"],
}


@pytest.mark.parametrize("command", sorted(REPLAY_SWEEPS))
def test_sidecar_replays_its_run(tmp_path, command):
    """A run rebuilt from its --meta sidecar alone writes the same CSV and
    sidecar bytes: each config key maps back to its flag, and the axes keep
    their declared order.  The 14-key config of an older sidecar, with its
    cutoff and tail tolerance, loads to the same config and CSV bytes."""
    argv = [command, *REPLAY_FLAGS]
    for flag in REPLAY_SWEEPS[command]:
        argv += ["--sweep", flag]
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(argv + ["--out", f"{first}.csv", "--meta", f"{first}.json"]) == 0
    meta = json.loads(_read_text(f"{first}.json"))
    defaults = default_config().to_dict()
    for key, value in defaults.items():
        assert (meta["config"][key] == value) == (key in FOCK_KEYS)
    assert main([command, *replay_argv(meta), "--out", f"{again}.csv", "--meta", f"{again}.json"]) == 0
    for suffix in (".csv", ".json"):
        assert _read_text(f"{again}{suffix}") == _read_text(f"{first}{suffix}")
    assert len(meta["config"]) == 11 and len({**meta["config"], **OLDER_FOCK_KEYS}) == 14
    assert _csv_of_sidecar(command, meta, **OLDER_FOCK_KEYS) == _read_text(f"{first}.csv")


def test_sidecar_of_a_tiny_negative_phase_replays_its_run(capsys, tmp_path):
    """--mu=-1e-20 reduces to 0.0, not to 2 pi, which the replay would
    reduce to 0.0 again: the replay prints the same bytes."""
    meta = tmp_path / "m.json"
    assert main(["hz", "--mu=-1e-20", "--meta", str(meta)]) == 0
    first = capsys.readouterr().out
    recorded = json.loads(_read_text(meta))
    assert recorded["config"]["mu"] == 0.0
    assert main(["hz", *replay_argv(recorded)]) == 0
    assert capsys.readouterr().out == first


def test_sidecar_with_a_displacement_convention_does_not_replay(capsys):
    """An older sidecar's displacement_convention key replays as a flag that
    no longer exists (every meter arm is s / 2): an argument error, exit 2."""
    with pytest.raises(SystemExit) as excinfo:
        main(["hz", "--displacement-convention=full"])
    assert excinfo.value.code == 2
    assert "--displacement-convention" in capsys.readouterr().err
