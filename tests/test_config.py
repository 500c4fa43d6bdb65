"""Tests for RangeSpec and the aggregated run configuration."""

import copy
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from ecsim.config import QFI_GAUGES, RangeSpec, WeakMeasurementConfig, default_config
from ecsim.errors import TruncationWarning
from ecsim import fock
from ecsim.fock import FockCutoff, ModeOperator, TwoModeState, coherent_column
from ecsim.measurement import (
    CouplingParams,
    EcsParams,
    PostSelectedOutcome,
    WeakValueParams,
    build_ecs,
    build_pointer_state,
)
from ecsim.observables import SqueezingReport, WignerGrid, qfi_finite_difference
from ecsim.sweep import SweepResult

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
    with pytest.raises(ValueError, match="points must be an integer >= 1, got True"):
        RangeSpec(0.0, 0.0, True)
    # A numpy integer passes and is stored as a Python int, which JSON takes;
    # a numpy float does not.
    spec = RangeSpec(0.0, 1.0, np.int64(3))
    assert spec == RangeSpec(0.0, 1.0, 3) and type(spec.points) is int
    with pytest.raises(ValueError, match=re.escape(f"points must be an integer >= 1, got {np.int64(0)!r}")):
        RangeSpec(0.0, 1.0, np.int64(0))
    with pytest.raises(ValueError, match="points must be an integer >= 1"):
        RangeSpec(0.0, 1.0, np.float64(3.0))
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
    assert cfg.qfi_gauge == "fixed-kappa"
    # The config holds the scenario alone; the Fock routes take the cutoff
    # as their one argument.
    assert WeakMeasurementConfig.__slots__ == ("ecs", "wv", "coupling", "theta_big", "qfi_gauge")
    assert len(cfg.to_dict()) == 11
    override = default_config(theta_big=0.0)
    assert override.theta_big == 0.0


def test_config_validation():
    base = default_config()
    assert QFI_GAUGES == ("fixed-kappa", "renormalized")
    with pytest.raises(ValueError):
        base.replace(qfi_gauge="other")
    with pytest.raises(ValueError):
        base.replace(theta_big=float("nan"))


_BASE = default_config(coupling=CouplingParams(0.5, 0.5))
# Each public Fock route at _BASE, called with a cutoff.
FOCK_ROUTES = {
    "coherent_column": lambda cutoff: coherent_column(_BASE.ecs.alpha, cutoff.n_max_a),
    "build_ecs": lambda cutoff: build_ecs(_BASE.ecs, cutoff),
    "build_pointer_state": lambda cutoff: build_pointer_state(build_ecs(_BASE.ecs, cutoff), _BASE.wv, _BASE.coupling),
    "ecs_state": lambda cutoff: _BASE.ecs_state(cutoff),
    "raw_pointer_state": lambda cutoff: _BASE.raw_pointer_state(cutoff),
    "pointer_outcome": lambda cutoff: _BASE.pointer_outcome(cutoff),
    "qfi_finite_difference": lambda cutoff: qfi_finite_difference(_BASE, cutoff),
}


@pytest.mark.parametrize("route", FOCK_ROUTES.values(), ids=FOCK_ROUTES)
def test_every_fock_route_warns_past_the_fixed_tail_tolerance(route):
    # At two levels per mode the r = 0.1 probe leaves about 1.7e-7 of its
    # coherent column above the cutoff; at the default cutoff nothing is left.
    assert fock.TAIL_TOL == 1e-10
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        route(FockCutoff(2, 2))
    assert caught and all(w.category is TruncationWarning for w in caught)
    assert all("exceeds tolerance 1.0e-10" in str(w.message) for w in caught)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        route(fock.DEFAULT_CUTOFF)


def test_config_dict_round_trip_fixpoint():
    cfg = default_config(coupling=CouplingParams(0.7, 1.3), qfi_gauge="renormalized")
    data = cfg.to_dict()
    again = WeakMeasurementConfig.from_dict(data)
    assert again == cfg
    assert again.to_dict() == data
    # -1e-20, which float % alone reduces to 2 pi itself, -0.0 and the
    # largest double below 2 pi: each is stored as a phase in [0, 2 pi)
    # that reduces to itself, bit for bit.
    for phase in (-1e-20, -0.0, math.nextafter(2.0 * math.pi, 0.0)):
        for field in ("mu", "varphi"):
            cfg = default_config(ecs=EcsParams(0.1, **{field: phase}))
            data = cfg.to_dict()
            assert 0.0 <= data[field] < 2.0 * math.pi
            assert WeakMeasurementConfig.from_dict(data) == cfg
            assert cfg.replace() == cfg and cfg.ecs.replace() == cfg.ecs
            assert repr(cfg.ecs.replace()) == repr(cfg.ecs)
            assert WeakMeasurementConfig.from_dict(data).to_dict() == data


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


_AMPLITUDES = np.arange(4).reshape(2, 2) * (1 + 1j)
_STATE_TEXT = f"TwoModeState(amplitudes={_AMPLITUDES!r})"
_CONFIG_TEXT = (
    "WeakMeasurementConfig(ecs=EcsParams(r=0.1, mu=0.0, varphi=0.0), wv=WeakValueParams(theta1=0.5, delta1=0.0, "
    "theta2=0.5, delta2=0.0), coupling=CouplingParams(s1=1.0, s2=2.0), theta_big=0.25, qfi_gauge='fixed-kappa')"
)

# Per record class: a factory of equal records, the repr of one,
# a change that replace must reject with the constructor's ValueError (None
# for the records that validate nothing), and whether records compare by
# identity, as the array holders do.
RECORD_CASES = {
    "FockCutoff": (lambda: FockCutoff(3, 4), "FockCutoff(n_max_a=3, n_max_b=4)",
                   ({"n_max_a": 0}, "n_max_a must be an integer >= 1, got 0"), False),
    # mu just below 0 reduces to 0.0, where float % alone gives 2 pi itself.
    "EcsParams": (lambda: EcsParams(0.1, -1e-20), "EcsParams(r=0.1, mu=0.0, varphi=0.0)",
                  ({"r": -1.0}, "r must be >= 0 with a finite square, got -1.0"), False),
    "WeakValueParams": (lambda: WeakValueParams(0.1, 0.2, 0.3, 0.4),
                        "WeakValueParams(theta1=0.1, delta1=0.2, theta2=0.3, delta2=0.4)",
                        ({"delta2": 7.0}, "delta2 must lie in [0, 2 pi], got 7.0"), False),
    "CouplingParams": (lambda: CouplingParams(0.5, 1.5), "CouplingParams(s1=0.5, s2=1.5)",
                       ({"s2": -1.0}, "s2 must be finite and >= 0, got -1.0"), False),
    "RangeSpec": (lambda: RangeSpec(0.0, 1.0, 3), "RangeSpec(start=0.0, stop=1.0, points=3)",
                  ({"points": 0}, "points must be an integer >= 1, got 0"), False),
    "WeakMeasurementConfig": (
        lambda: WeakMeasurementConfig(EcsParams(0.1), WeakValueParams(0.5, 0.0, 0.5, 0.0), CouplingParams(1.0, 2.0),
                                      0.25),
        _CONFIG_TEXT, ({"qfi_gauge": "other"}, "qfi_gauge must be one of ('fixed-kappa', 'renormalized')"), False),
    "SweepResult": (lambda: SweepResult(("x",), ((1.0,),), {"rows": 1}),
                    "SweepResult(header=('x',), rows=((1.0,),), metadata={'rows': 1})",
                    None, False),
    "SqueezingReport": (lambda: SqueezingReport(-0.1, -0.2, 0.3),
                        "SqueezingReport(s2s_direct=-0.1, s2s_normal_ordered=-0.2, theta_big=0.3)", None, False),
    "TwoModeState": (lambda: TwoModeState(_AMPLITUDES), _STATE_TEXT,
                     ({"amplitudes": np.zeros(3)}, "amplitude grid must be 2-D, got shape (3,)"), True),
    "ModeOperator": (lambda: ModeOperator(np.eye(2)), f"ModeOperator(matrix={np.eye(2, dtype=complex)!r})",
                     ({"matrix": np.ones(3)}, "operator matrix must be square, got shape (3,)"), True),
    "PostSelectedOutcome": (lambda: PostSelectedOutcome(TwoModeState(_AMPLITUDES), 0.25),
                            f"PostSelectedOutcome(state={_STATE_TEXT}, success_probability=0.25)", None, True),
    "WignerGrid": (lambda: WignerGrid([0.0, 1.0], [2.0], [[1.0], [2.0]]),
                   f"WignerGrid(re_gamma_axis={np.array([0.0, 1.0])!r}, re_beta_axis={np.array([2.0])!r}, "
                   f"values={np.array([[1.0], [2.0]])!r})",
                   ({"values": [[1.0]]}, "grid value shape does not match its axes"), True),
}


@pytest.mark.parametrize("make, text, bad, by_identity", RECORD_CASES.values(), ids=RECORD_CASES)
def test_records_are_immutable_values(make, text, bad, by_identity):
    """Every record of the package is an immutable value: no assignment,
    deletion or new attribute; equality and hash by type and fields (by
    identity for the array holders); a repr in the dataclass format; replace
    validates again; copy, deepcopy and pickle give an equal record."""
    record, twin = make(), make()
    first = type(record).__slots__[0]
    for mutate in (lambda: setattr(record, first, getattr(twin, first)), lambda: delattr(record, first),
                   lambda: setattr(record, "extra", 1)):
        with pytest.raises(AttributeError):
            mutate()
    assert repr(record) == text
    if by_identity:
        assert record == record and record != twin and len({record, twin}) == 2
    else:
        assert record == twin and not record != twin
        # Another type is not an equal record: __eq__ leaves it to the other operand.
        assert record.__eq__(text) is NotImplemented and record != text
        if isinstance(record, SweepResult):
            # Its dict fields are unhashable, so the record is too.
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin)
    if bad is not None:
        change, message = bad
        with pytest.raises(ValueError, match=re.escape(message)):
            record.replace(**change)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and repr(clone) == text
        assert by_identity or clone == record
