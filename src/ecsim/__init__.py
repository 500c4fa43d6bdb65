"""Two-mode truncated Fock-space simulator for post-selected weak
measurements on entangled coherent states, with non-classicality and
metrology diagnostics and a deterministic sweep CLI."""

__version__ = "0.1.0"

from .config import RangeSpec, WeakMeasurementConfig, default_config
from .errors import (
    DegeneratePostSelectionError,
    NumericalRangeError,
    TruncationWarning,
)
from .fock import FockCutoff, TwoModeState, coherent_column
from .measurement import (
    CouplingParams,
    EcsParams,
    PostSelectedOutcome,
    WeakValueParams,
    build_ecs,
    build_pointer_state,
    weak_value_x,
    weak_value_y,
)
from .observables import (
    SqueezingReport,
    WignerGrid,
    hz_correlation,
    joint_wigner_grid,
    joint_wigner_point,
    qcrb,
    qfi_analytic,
    qfi_finite_difference,
    squeezing_report,
)

__all__ = [
    "__version__",
    "CouplingParams",
    "DegeneratePostSelectionError",
    "EcsParams",
    "FockCutoff",
    "NumericalRangeError",
    "PostSelectedOutcome",
    "RangeSpec",
    "SqueezingReport",
    "TruncationWarning",
    "TwoModeState",
    "WeakMeasurementConfig",
    "WeakValueParams",
    "WignerGrid",
    "build_ecs",
    "build_pointer_state",
    "coherent_column",
    "default_config",
    "hz_correlation",
    "joint_wigner_grid",
    "joint_wigner_point",
    "qcrb",
    "qfi_analytic",
    "qfi_finite_difference",
    "squeezing_report",
    "weak_value_x",
    "weak_value_y",
]
