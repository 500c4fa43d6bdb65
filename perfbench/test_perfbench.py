"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The short runs below take about two minutes on a 2-CPU machine.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import workloads
from tracing import TARGETS, Tracer, _bindings, self_times

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

workloads.use_checkout_source()


def short_run(workload, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=workloads.ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_run_emits_every_metric_with_its_unit(workload, trace):
    result = short_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_scan_counts_depend_only_on_the_seed_and_the_run_length():
    first, second = short_run("param_scan", 0, 1), short_run("param_scan", 0, 1)
    assert first["attempted"] == second["attempted"] == workloads.SCAN_POINTS_PER_SECOND
    assert first["failed"] == second["failed"]
    assert short_run("param_scan", 0, 2)["attempted"] == 2 * workloads.SCAN_POINTS_PER_SECOND


def _original(module_name, path):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def test_wrappers_replace_every_binding_and_restore_the_originals():
    import ecsim.cli
    from ecsim import measurement, observables

    originals = {target: _original(target[1], target[2]) for target in TARGETS}
    apply_to_mode = originals[("fock.apply_to_mode", "ecsim.fock", "apply_to_mode")]
    runner = ecsim.cli._COMMANDS["wigner"]["runner"]
    tracer = Tracer()
    with tracer.installed():
        assert measurement.apply_to_mode is not apply_to_mode
        assert observables.apply_to_mode is measurement.apply_to_mode
        assert ecsim.cli._COMMANDS["wigner"]["runner"] is not runner
        for key, original in originals.items():
            assert _bindings(original) == [], f"{key[0]} still has an unwrapped binding"
    assert measurement.apply_to_mode is apply_to_mode
    assert observables.apply_to_mode is apply_to_mode
    assert ecsim.cli._COMMANDS["wigner"]["runner"] is runner
    for key, original in originals.items():
        assert _original(key[1], key[2]) is original
        assert len(_bindings(original)) >= 1


def test_traced_self_times_sum_to_no_more_than_wall_time():
    import ecsim.cli

    argv = ["probability", "--sweep", "s=0:1:4", "--sweep", "theta=0.2pi:0.8pi:2"]
    tracer = Tracer()
    walls = []
    with tracer.installed():
        for op in range(3):
            tracer.op = op
            start = time.perf_counter()
            code, _ = workloads.run_cli_in_process(ecsim.cli, argv)
            walls.append(time.perf_counter() - start)
            assert code == 0
    own = self_times(tracer.spans)
    assert all(t >= 0.0 for t in own)
    for op, wall in enumerate(walls):
        total = sum(t for span, t in zip(tracer.spans, own) if span[4] == op)
        assert 0.0 < total <= wall
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "sweep.cmd", "measurement.build_pointer_state", "fock.apply_to_mode"} <= names


def test_self_time_subtracts_child_coverage():
    spans = [
        ("root", 0.0, 10.0, -1, 0, False, None),
        ("child", 1.0, 4.0, 0, 0, False, None),
        ("grandchild", 2.0, 3.0, 1, 0, False, None),
        ("child", 5.0, 6.0, 0, 0, False, None),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_golden_gate_tolerates_kernel_drift_but_not_wrong_values():
    golden = "s,P_s\n0.0,0.5\n0.1,NA\n"
    assert workloads.csv_matches("s,P_s\n0.0,0.5000000000001\n0.1,NA\n", golden)
    assert not workloads.csv_matches("s,P_s\n0.0,0.5001\n0.1,NA\n", golden)
    assert not workloads.csv_matches("s,P_s\n0.0,0.5\n0.1,0.2\n", golden)
    assert not workloads.csv_matches("s,P\n0.0,0.5\n0.1,NA\n", golden)
    assert not workloads.csv_matches("s,P_s\n0.0,nan\n0.1,NA\n", golden)


def test_scan_inputs_depend_only_on_the_seed():
    import random

    a = workloads.draw_points(random.Random(7), 5)
    assert a == workloads.draw_points(random.Random(7), 5)
    assert a != workloads.draw_points(random.Random(8), 5)
    for point in a:
        for key, (lo, hi) in workloads.SCAN_BOX.items():
            assert lo <= point[key] <= hi
