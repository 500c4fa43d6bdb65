"""The names perfbench/tracing.py wraps must keep resolving, and the
library calls of perfbench/workloads.py must keep passing its gates.

The benchmark's tracer looks up every TARGETS entry with vars(owner)[attr]
and rebinds module globals, plain-dict values and class attributes only, so
a renamed function or a command table that is not a plain dict would break
or blind every traced run.  TARGETS and the param_scan workload are read
from the benchmark's files, not copied.
"""

import importlib
import importlib.util
import os
import warnings

import pytest

import ecsim.cli
from ecsim import sweep
from ecsim.config import RangeSpec

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(_PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", _load("tracing").TARGETS, ids=lambda target: target[2])
def test_every_traced_target_resolves(target):
    _, module_name, path = target
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner)[attr])


def test_cli_calls_each_runner_through_its_table(monkeypatch):
    assert type(ecsim.cli._COMMANDS) is dict
    for name, info in ecsim.cli._COMMANDS.items():
        assert info["runner"] is getattr(sweep, f"cmd_{name}")
    calls = []

    def recording(config, *ranges, **kwargs):
        calls.append(ranges)
        return sweep.cmd_probability(config, *ranges, **kwargs)

    monkeypatch.setitem(ecsim.cli._COMMANDS["probability"], "runner", recording)
    argv = ["probability", "--sweep", "s=0:0:1", "--sweep", "theta=0:0:1", "--out", os.devnull]
    assert ecsim.cli.main(argv) == 0
    assert calls == [(RangeSpec(0.0, 0.0, 1), RangeSpec(0.0, 0.0, 1))]


def test_param_scan_points_pass_the_benchmark_gates():
    # The library calls of param_scan on ten points of seed 1: each must
    # evaluate and pass the workload's own checks (finite values, the two
    # squeezing routes and the two QFI routes agreeing).
    workloads = _load("workloads")
    scan = workloads.ParamScan(seed=1, seconds=10 / workloads.SCAN_POINTS_PER_SECOND)
    scan.prepare()
    assert len(scan.points) == 10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        statuses = [scan.check(scan.evaluate(point)) for point in scan.points]
    assert statuses == [(workloads.OK, None)] * 10
