"""Tests for RangeSpec and the aggregated run configuration."""

import math

import numpy as np
import pytest

from ecsim.config import QFI_GAUGES, RangeSpec, WeakMeasurementConfig, default_config
from ecsim.fock import FockCutoff
from ecsim.measurement import CouplingParams, EcsParams, WeakValueParams

HALF_PI = 0.5 * math.pi


def test_range_spec_values_and_flags():
    spec = RangeSpec(0.0, 3.0, 4)
    assert np.allclose(spec.values(), [0.0, 1.0, 2.0, 3.0])
    assert not spec.is_single
    single = RangeSpec(1.5, 1.5, 1)
    assert single.is_single
    assert np.array_equal(single.values(), [1.5])


def test_range_spec_values_are_numpy_linspace_bit_for_bit():
    """values() is a pure-Python linspace: every default axis of the sweep
    commands, 2,000 random ranges and a width whose step underflows."""
    from ecsim.sweep import _COMMANDS

    rng = np.random.default_rng(22)
    specs = [spec for command in _COMMANDS.values() for spec in command["defaults"].values()]
    for _ in range(2000):
        start = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3))
        stop = start + float(10.0 ** rng.uniform(-12, 4))
        specs.append(RangeSpec(start, stop, int(rng.integers(2, 200))))
    specs.append(RangeSpec(0.0, 5e-324, 3))
    for spec in specs:
        values = spec.values()
        assert all(type(value) is float for value in values)
        assert np.array(values).tobytes() == np.linspace(spec.start, spec.stop, spec.points).tobytes(), spec


def test_range_spec_validation():
    with pytest.raises(ValueError):
        RangeSpec(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        RangeSpec(0.0, 1.0, 2.5)
    with pytest.raises(ValueError):
        RangeSpec(1.0, 0.0, 3)
    with pytest.raises(ValueError):
        RangeSpec(1.0, 1.0, 3)
    with pytest.raises(ValueError):
        RangeSpec(0.0, 2.0, 1)
    with pytest.raises(ValueError):
        RangeSpec(0.0, float("inf"), 2)
    # Finite endpoints whose width overflows a double.
    with pytest.raises(ValueError):
        RangeSpec(-1e308, 1e308, 2)


def test_default_config_baseline_values():
    cfg = default_config()
    assert cfg.ecs == EcsParams(0.1, HALF_PI, HALF_PI)
    assert cfg.wv == WeakValueParams(0.8 * math.pi, HALF_PI, 0.8 * math.pi, HALF_PI)
    assert cfg.coupling == CouplingParams(0.0, 0.0)
    assert cfg.theta_big == HALF_PI
    assert cfg.cutoff == FockCutoff(40, 40)
    assert cfg.tail_tolerance == 1e-10
    assert cfg.qfi_gauge == "fixed-kappa"
    override = default_config(theta_big=0.0)
    assert override.theta_big == 0.0


def test_config_validation():
    base = default_config()
    assert QFI_GAUGES == ("fixed-kappa", "renormalized")
    with pytest.raises(ValueError):
        base.replace(qfi_gauge="other")
    with pytest.raises(ValueError):
        base.replace(tail_tolerance=0.0)
    with pytest.raises(ValueError):
        base.replace(tail_tolerance=1e-3)
    with pytest.raises(ValueError):
        base.replace(theta_big=float("nan"))
    assert base.replace(cutoff=FockCutoff(1000, 10)).cutoff.n_max_a == 1000
    with pytest.raises(ValueError, match="at most 1000 per mode"):
        base.replace(cutoff=FockCutoff(10, 1001))


def test_config_dict_round_trip_fixpoint():
    cfg = default_config(
        coupling=CouplingParams(0.7, 1.3),
        cutoff=FockCutoff(30, 35),
        qfi_gauge="renormalized",
    )
    data = cfg.to_dict()
    again = WeakMeasurementConfig.from_dict(data)
    assert again == cfg
    assert again.to_dict() == data


def test_config_state_builders():
    cfg = default_config(coupling=CouplingParams(0.5, 0.5))
    ecs = cfg.ecs_state()
    assert abs(np.linalg.norm(ecs.amplitudes) - 1.0) < 1e-12
    shifted = cfg.replace(ecs=EcsParams(0.1, HALF_PI, 0.3)).ecs_state()
    assert abs(np.linalg.norm(shifted.amplitudes) - 1.0) < 1e-12
    assert np.max(np.abs(ecs.amplitudes - shifted.amplitudes)) > 1e-4

    raw = cfg.raw_pointer_state()
    outcome = cfg.pointer_outcome()
    assert abs(np.linalg.norm(raw.amplitudes) ** 2 - outcome.success_probability) < 1e-14
    assert abs(np.linalg.norm(outcome.state.amplitudes) - 1.0) < 1e-12
