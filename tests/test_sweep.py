"""Tests for the sweep drivers and their CSV rendering."""

import json
import math
import warnings

import numpy as np
import pytest

from ecsim import __version__
from ecsim.config import RangeSpec, WeakMeasurementConfig, default_config
from ecsim.errors import TruncationWarning
from ecsim.measurement import CouplingParams, EcsParams, WeakValueParams
from ecsim.observables import hz_correlation, qfi_analytic, squeezing_report
from ecsim.sweep import (
    _COMMANDS,
    NA,
    SweepResult,
    cmd_hz,
    cmd_probability,
    cmd_qcrb,
    cmd_squeezing,
    cmd_wigner,
    format_cell,
)

HALF_PI = 0.5 * math.pi


def single(value):
    return RangeSpec(value, value, 1)


def test_format_cell():
    assert format_cell(0.1) == "0.1"
    assert format_cell(np.float64(1.0 / 3.0)) == "0.3333333333333333"
    assert format_cell(1.0) == "1.0"
    assert format_cell(3) == "3"
    assert format_cell(True) == "1"
    assert format_cell(np.bool_(False)) == "0"
    assert format_cell("NA") == "NA"
    # Shortest-round-trip text survives a parse back to the same float.
    for value in (0.1, 2.5132741228718345, 1e-17, -0.00912):
        assert float(format_cell(value)) == value


def test_sweep_result_csv_shape():
    result = SweepResult(
        header=("a", "b"), rows=((1.5, NA), (0.25, 2)), metadata={"rows": 2}
    )
    assert result.csv_text() == "a,b\n1.5,NA\n0.25,2\n"


def test_sweep_result_file_output(tmp_path):
    result = SweepResult(header=("x",), rows=((1.0,),), metadata={"rows": 1, "z": "y"})
    csv_path = tmp_path / "out.csv"
    meta_path = tmp_path / "meta.json"
    result.write_csv(str(csv_path))
    result.write_metadata(str(meta_path))
    assert csv_path.read_bytes() == b"x\n1.0\n"
    parsed = json.loads(meta_path.read_text())
    assert parsed == {"rows": 1, "z": "y"}


def test_cmd_probability_single_point_closed_form():
    result = cmd_probability(default_config(), single(0.0), single(0.8 * math.pi))
    assert result.header == ("s", "theta", "P_s")
    assert len(result.rows) == 1
    s, theta, p_s = result.rows[0]
    assert s == 0.0
    assert theta == 0.8 * math.pi
    # cos^4(2 pi / 5)
    assert abs(p_s - 0.00911862710939472) < 1e-12


def test_cmd_probability_trivial_point_is_one():
    result = cmd_probability(default_config(), single(0.0), single(0.0))
    assert abs(result.rows[0][2] - 1.0) < 1e-12


def test_cmd_probability_full_grid_bounds_and_order():
    config = default_config()
    result = cmd_probability(config, RangeSpec(0.0, 3.0, 7), RangeSpec(0.2 * math.pi, 0.8 * math.pi, 4))
    assert len(result.rows) == 28
    s_values = [row[0] for row in result.rows]
    assert s_values == sorted(s_values)  # s is the outer axis
    for _, _, p_s in result.rows:
        assert 0.0 <= p_s <= 1.0 + 1e-9
    assert result.metadata["rows"] == 28
    assert result.metadata["version"] == __version__


# Per command: its runner and a 2 x 2 grid over its canonical axes.
ORDER_GRIDS = {
    "probability": (cmd_probability, RangeSpec(0.0, 1.0, 2), RangeSpec(0.2, 0.4, 2)),
    "squeezing": (cmd_squeezing, RangeSpec(0.0, 1.0, 2), RangeSpec(0.5, 2.0, 2)),
    "wigner": (cmd_wigner, RangeSpec(-1.0, 1.0, 2), RangeSpec(-0.5, 0.5, 2)),
    "hz": (cmd_hz, RangeSpec(0.0, 1.0, 2), RangeSpec(0.5, 2.0, 2)),
    "qcrb": (cmd_qcrb, RangeSpec(0.1, 0.3, 2), RangeSpec(0.0, 1.0, 2)),
}


@pytest.mark.parametrize("command", sorted(ORDER_GRIDS))
def test_order_names_the_axes_outer_to_inner(command):
    runner, outer, inner = ORDER_GRIDS[command]
    first, second = _COMMANDS[command]["axes"]
    config = default_config()
    canonical = runner(config, outer, inner).rows
    assert runner(config, outer, inner, order=[first, second]).rows == canonical
    nested = runner(config, outer, inner, order=[second, first]).rows
    assert nested == tuple(canonical[i] for i in (0, 2, 1, 3))
    for bad in ([first], [first, first], [second, "bogus"]):
        with pytest.raises(ValueError, match="permutation"):
            runner(config, outer, inner, order=bad)


def test_cmd_probability_degenerate_rows_become_na():
    config = default_config()
    result = cmd_probability(config, single(0.0), single(math.pi - 1e-8))
    assert result.rows[0][2] == NA
    assert result.na_rows == {"degenerate": 1, "zero_qfi": 0}


def test_cmd_squeezing_zero_coupling_row_and_column_agreement():
    config = default_config()
    result = cmd_squeezing(config, RangeSpec(0.0, 3.0, 4), RangeSpec(0.0, 3.0, 4))
    assert result.header == ("s1", "s2", "S2s_direct", "S2s_normal")
    first = result.rows[0]
    assert first[0] == 0.0 and first[1] == 0.0
    assert abs(first[2]) < 1e-9
    for _, _, direct, normal in result.rows:
        assert abs(direct - normal) < 1e-9


def test_cmd_squeezing_vacuum_config():
    # r = 0 with closed meters gives a product of even cat states, which is
    # exactly unsqueezed only at zero coupling.
    config = default_config(
        ecs=EcsParams(0.0, 0.0, 0.0), wv=WeakValueParams(0.0, 0.0, 0.0, 0.0)
    )
    result = cmd_squeezing(config, RangeSpec(0.0, 1.0, 2), RangeSpec(0.0, 1.0, 2))
    rows = {(row[0], row[1]): row[2] for row in result.rows}
    assert abs(rows[(0.0, 0.0)]) < 1e-12
    assert abs(rows[(1.0, 1.0)] - (-0.104682506381)) < 1e-9


def test_cmd_squeezing_rows_match_direct_evaluation():
    config = default_config()
    result = cmd_squeezing(config, single(0.8), single(1.6))
    row = result.rows[0]
    outcome = config.replace(coupling=CouplingParams(0.8, 1.6)).pointer_outcome()
    report = squeezing_report(outcome.state, config.theta_big)
    # The sweep works on the pointer's factors, the report on its dense grid.
    assert abs(row[2] - report.s2s_direct) <= 1e-13
    assert abs(row[3] - report.s2s_normal_ordered) <= 1e-13


def test_cmd_wigner_vacuum_grid():
    config = default_config(
        ecs=EcsParams(0.0, 0.0, 0.0), wv=WeakValueParams(0.0, 0.0, 0.0, 0.0)
    )
    result = cmd_wigner(config, RangeSpec(-1.0, 1.0, 3), RangeSpec(-1.0, 1.0, 3))
    assert result.header == ("re_gamma", "re_beta", "P_J")
    assert len(result.rows) == 9
    values = {(row[0], row[1]): row[2] for row in result.rows}
    assert abs(values[(0.0, 0.0)] - 1.0) < 1e-12
    corner = math.exp(-2.0) * math.exp(-2.0)
    assert abs(values[(1.0, -1.0)] - corner) < 1e-9
    assert abs(result.metadata["grid_min"] - min(v for v in values.values())) < 1e-15


def test_cmd_hz_zero_amplitude_rows():
    # At r = 0 the pointer is a product of single-mode cats: E vanishes
    # exactly at zero coupling and stays non-negative (flag never fires)
    # because a product state cannot witness entanglement.
    config = default_config(ecs=EcsParams(0.0, HALF_PI, HALF_PI))
    result = cmd_hz(config, RangeSpec(0.0, 2.0, 3), RangeSpec(0.0, 2.0, 3))
    assert result.header == ("s1", "s2", "E", "entangled_flag")
    rows = {(row[0], row[1]): (row[2], row[3]) for row in result.rows}
    assert abs(rows[(0.0, 0.0)][0]) < 1e-12
    for e_val, flag in rows.values():
        assert e_val >= -1e-12
        assert flag == 0


def test_cmd_hz_witness_fires_at_negative_correlation():
    config = default_config(
        ecs=EcsParams(0.1, 0.0, 0.0),
        wv=WeakValueParams(HALF_PI, math.pi, HALF_PI, HALF_PI),
    )
    result = cmd_hz(config, single(1.0), single(1.0))
    _, _, e_val, flag = result.rows[0]
    assert abs(e_val - (-0.0012374373963562335)) < 1e-12
    assert flag == 1
    outcome = config.replace(coupling=CouplingParams(1.0, 1.0)).pointer_outcome()
    assert abs(e_val - hz_correlation(outcome.state)) <= 1e-13


def test_cmd_hz_flag_consistency_across_grid():
    result = cmd_hz(default_config(), RangeSpec(0.0, 3.0, 4), RangeSpec(0.0, 3.0, 4))
    for _, _, e_val, flag in result.rows:
        assert flag == int(e_val < 0.0)


def test_cmd_qcrb_values_and_sentinel():
    config = default_config()
    result = cmd_qcrb(config, single(0.3), RangeSpec(0.0, 1.0, 2))
    assert result.header == ("r", "s", "Q_fi", "delta_phi")
    for _, _, q, delta in result.rows:
        assert q > 0.0
        assert abs(delta - 1.0 / math.sqrt(q)) < 1e-15
    zero = cmd_qcrb(config, single(0.0), single(1.0))
    _, _, q0, delta0 = zero.rows[0]
    assert abs(q0) < 1e-12
    assert delta0 == NA
    assert zero.na_rows == {"degenerate": 0, "zero_qfi": 1}
    assert zero.metadata["na_rows"] == zero.na_rows


def test_cmd_qcrb_counts_na_rows_by_cause():
    near_pi = math.pi - 1e-8
    config = default_config(wv=WeakValueParams(near_pi, HALF_PI, near_pi, HALF_PI))
    result = cmd_qcrb(config, RangeSpec(0.1, 0.3, 2), single(0.0))
    assert [row[2:] for row in result.rows] == [(NA, NA), (NA, NA)]
    assert result.metadata["na_rows"] == {"degenerate": 2, "zero_qfi": 0}
    clean = cmd_qcrb(default_config(), single(0.3), single(1.0))
    assert clean.metadata["na_rows"] == {"degenerate": 0, "zero_qfi": 0}


def test_cmd_qcrb_gauges_agree():
    # The gauge picks only the scaling of the library's finite-difference
    # QFI; the sweep prints the closed form, the same bits under either.
    config = default_config()
    fixed = cmd_qcrb(config, single(0.3), single(1.0))
    renorm = cmd_qcrb(config.replace(qfi_gauge="renormalized"), single(0.3), single(1.0))
    assert renorm.rows == fixed.rows


def test_metadata_config_round_trip():
    config = default_config(coupling=CouplingParams(0.4, 0.9))
    result = cmd_probability(config, single(0.5), single(0.6))
    meta = result.metadata
    assert set(meta) == {"config", "axes", "version", "rows", "na_rows"}
    assert meta["axes"] == [["s", 0.5, 0.5, 1], ["theta", 0.6, 0.6, 1]]
    assert WeakMeasurementConfig.from_dict(meta["config"]) == config


def test_sweeps_ignore_the_fock_settings():
    # The closed-form sweeps read no QFI gauge, the one Fock setting that the
    # config holds: they give the same rows under either gauge, and nothing warns.
    config = default_config(ecs=EcsParams(1.5, HALF_PI, HALF_PI))
    fock_settings = config.replace(qfi_gauge="renormalized")
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        for command, ranges in (("qcrb", (single(1.5), single(0.0))), ("probability", (single(0.0), single(0.2 * math.pi)))):
            runner = _COMMANDS[command]["runner"]
            result = runner(fock_settings, *ranges)
            assert result.rows == runner(config, *ranges).rows
            assert NA not in result.rows[0]


def test_metadata_json_is_sorted_and_newline_terminated():
    result = cmd_probability(default_config(), single(0.0), single(0.0))
    text = result.metadata_text()
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)


@pytest.mark.parametrize("command", ["probability", "squeezing", "hz", "qcrb"])
def test_default_grid_rows_equal_their_single_point_runs(command):
    """Each row of a command's default grid equals, bit for bit, the row of
    the same command run at that point alone."""
    spec = _COMMANDS[command]
    config = default_config()
    grid = spec["runner"](config, *(spec["defaults"][axis] for axis in spec["axes"]))
    for row in grid.rows:
        alone = spec["runner"](config, *(single(value) for value in row[:len(spec["axes"])]))
        assert alone.rows == (row,)


def test_fixed_kappa_qcrb_rows_equal_qfi_analytic():
    """Each fixed-kappa row's Q_fi is, bit for bit, qfi_analytic at its point."""
    config = default_config()
    grid = cmd_qcrb(config, *_COMMANDS["qcrb"]["defaults"].values())
    assert len(grid.rows) == 50
    for r, s, q, _ in grid.rows:
        point = config.replace(ecs=EcsParams(r, config.ecs.mu, config.ecs.varphi), coupling=CouplingParams(s, s))
        assert q == qfi_analytic(point)
