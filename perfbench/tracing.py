"""Span tracing of ecsim's public functions, installed from outside the package.

`Tracer.install()` replaces every binding of each traced function inside the
loaded `ecsim` modules (module globals, class attributes and dicts such as the
CLI's command table) with a wrapper that records one span per call, and
`Tracer.restore()` puts the original objects back.  ecsim imports functions by
name, so `measurement.apply_to_mode` and `observables.apply_to_mode` are two
bindings of one function and both must be replaced.

A span is (name, start, end, parent index, operation id, failed, extra); times
come from `time.perf_counter`, so spans recorded in one process share a clock.
Spans stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute path).  All five sweep commands share one name.
TARGETS = (
    ("cli.main", "ecsim.cli", "main"),
    ("sweep.cmd", "ecsim.sweep", "cmd_probability"),
    ("sweep.cmd", "ecsim.sweep", "cmd_squeezing"),
    ("sweep.cmd", "ecsim.sweep", "cmd_wigner"),
    ("sweep.cmd", "ecsim.sweep", "cmd_hz"),
    ("sweep.cmd", "ecsim.sweep", "cmd_qcrb"),
    ("sweep.csv_text", "ecsim.sweep", "SweepResult.csv_text"),
    ("config.ecs_state", "ecsim.config", "WeakMeasurementConfig.ecs_state"),
    ("config.raw_pointer_state", "ecsim.config", "WeakMeasurementConfig.raw_pointer_state"),
    ("config.pointer_outcome", "ecsim.config", "WeakMeasurementConfig.pointer_outcome"),
    ("measurement.build_ecs", "ecsim.measurement", "build_ecs"),
    ("measurement.apply_displacement_branches", "ecsim.measurement", "apply_displacement_branches"),
    ("measurement.build_pointer_state", "ecsim.measurement", "build_pointer_state"),
    ("observables.squeezing_report", "ecsim.observables", "squeezing_report"),
    ("observables.hz_correlation", "ecsim.observables", "hz_correlation"),
    ("observables.joint_wigner_grid", "ecsim.observables", "joint_wigner_grid"),
    ("observables.qfi_analytic", "ecsim.observables", "qfi_analytic"),
    ("observables.qfi_finite_difference", "ecsim.observables", "qfi_finite_difference"),
    ("fock.coherent_column", "ecsim.fock", "coherent_column"),
    ("fock.displacement_matrix", "ecsim.fock", "displacement_matrix"),
    ("fock.apply_to_mode", "ecsim.fock", "apply_to_mode"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _gemm_flops(args, kwargs):
    """Computed flops of one apply_to_mode: 8 m k n for an (m x k)(k x n) complex GEMM."""
    op = _arg(args, kwargs, 0, "op")
    state = _arg(args, kwargs, 2, "state")
    return 8 * op.matrix.shape[0] * state.amplitudes.size


def _displacement_key(args, kwargs):
    gamma = complex(_arg(args, kwargs, 0, "gamma"))
    return (gamma.real, gamma.imag, int(_arg(args, kwargs, 1, "n_max")))


# Per-call detail kept in a span's `extra` slot.
EXTRAS = {"fock.apply_to_mode": _gemm_flops, "fock.displacement_matrix": _displacement_key}


def _ecsim_modules():
    return [m for n, m in list(sys.modules.items()) if n == "ecsim" or n.startswith("ecsim.")]


def _bindings(original):
    """Every (setter, getter) pair in the loaded ecsim modules that holds `original`."""
    found = []
    seen = set()

    def scan_dict(d):
        if id(d) in seen:
            return
        seen.add(id(d))
        for key, value in list(d.items()):
            if value is original:
                found.append((functools.partial(d.__setitem__, key), functools.partial(d.__getitem__, key)))
            elif isinstance(value, dict):
                scan_dict(value)
            elif isinstance(value, type) and value.__module__.startswith("ecsim") and id(value) not in seen:
                seen.add(id(value))
                for attr, member in list(vars(value).items()):
                    if member is original:
                        found.append((functools.partial(setattr, value, attr), functools.partial(getattr, value, attr)))

    for module in _ecsim_modules():
        scan_dict(vars(module))
    return found


class Tracer:
    """Records spans around ecsim calls; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._installed = []

    @contextmanager
    def span(self, name):
        """Record a span around a block of benchmark code, e.g. the package import."""
        index = self._open()
        start = time.perf_counter()
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(index, name, start, failed, None)

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index, name, start, failed, extra):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.op, failed, extra)

    def _wrap(self, name, fn):
        extra_of = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = extra_of(args, kwargs) if extra_of else None
            index = self._open()
            start = time.perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._close(index, name, start, failed, extra)

        return wrapper

    def install(self):
        """Replace every binding of every traced function with a recording wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            for setter, getter in _bindings(original):
                setter(wrapper)
                self._installed.append((setter, getter, original, wrapper))

    def restore(self):
        """Put every original function back where install() found it."""
        while self._installed:
            setter, getter, original, wrapper = self._installed.pop()
            if getter() is not wrapper:
                raise RuntimeError("a traced binding was rebound while the tracer was installed")
            setter(original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def self_times(spans):
    """Per span: duration minus the part of its interval that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children[index]):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result
