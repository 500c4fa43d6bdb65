"""Two-mode truncated Fock-space simulator for post-selected weak
measurements on entangled coherent states, with non-classicality and
metrology diagnostics and a deterministic sweep CLI.

The names of the Fock routes load their module, and numpy with it, on first
use (PEP 562), so importing the package, or its sweep CLI, does not import
numpy.
"""

import importlib
import sys

from .config import RangeSpec, WeakMeasurementConfig, default_config
from .errors import DegeneratePostSelectionError, NumericalRangeError, TruncationWarning
from .params import CouplingParams, EcsParams, WeakValueParams

__version__ = "0.1.0"

# Each public name of a numpy module and the module that defines it.
_LAZY = {
    name: module
    for module, names in {
        "fock": ("FockCutoff", "TwoModeState", "coherent_column"),
        "measurement": ("PostSelectedOutcome", "build_ecs", "build_pointer_state", "weak_value_x", "weak_value_y"),
        "observables": ("SqueezingReport", "WignerGrid", "hz_correlation", "joint_wigner_grid", "qcrb",
                        "qfi_analytic", "qfi_finite_difference", "squeezing_report"),
    }.items()
    for name in names
}

__all__ = [
    "__version__",
    "CouplingParams",
    "DegeneratePostSelectionError",
    "EcsParams",
    "NumericalRangeError",
    "RangeSpec",
    "TruncationWarning",
    "WeakMeasurementConfig",
    "WeakValueParams",
    "default_config",
    *_LAZY,
]


def __getattr__(name: str):
    # Looked up on every access and never cached here, so a name rebound in
    # its module (by a tracer or a test) is seen through the package too.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    path = f"{__name__}.{_LAZY[name]}"
    return getattr(sys.modules.get(path) or importlib.import_module(path), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
