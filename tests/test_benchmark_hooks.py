"""The names perfbench/tracing.py wraps must keep resolving.

The benchmark's tracer looks up every TARGETS entry with vars(owner)[attr]
and rebinds module globals, plain-dict values and class attributes only, so
a renamed function or a command table that is not a plain dict would break
or blind every traced run.  TARGETS is read from the benchmark's file, not
copied.
"""

import importlib
import importlib.util
import os

import pytest

import ecsim.cli
from ecsim import sweep
from ecsim.config import RangeSpec

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda target: target[2])
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
