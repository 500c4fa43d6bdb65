"""The benchmark's workloads, their correctness gates and their set-up.

Every workload drives ecsim from outside, through `python -m ecsim.cli`,
`ecsim.cli.main` or the library functions the README shows.  Each one runs
passes of operations; `measure()` repeats passes until the time is up.
This module imports only the standard library at import time, so that
`child.py` can use it before timing `import ecsim.cli`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
CHILD = HERE / "child.py"
OUT = HERE / "out"

# The pinned CLI invocations whose output is stored under tests/golden/.
CLI_CASES = {
    "probability_default.csv": ("probability",),
    "squeezing_default.csv": ("squeezing",),
    "wigner_coupled.csv": ("wigner", "--s1", "1", "--s2", "1"),
    "hz_default.csv": ("hz",),
    "qcrb_default.csv": ("qcrb",),
}
WARM_CASES = ("squeezing_default.csv", "hz_default.csv", "wigner_coupled.csv")

# A CSV cell passes when it is within REL_TOL of its golden value.  Output
# bytes differ between OpenBLAS kernels by up to 1.4e-12 relative, so byte
# equality is only counted, not required.  ABS_TOL admits cells that are zero
# up to rounding, such as S2s_direct = 2.2e-16 against a golden 0.0.
REL_TOL = 1e-9
ABS_TOL = 1e-13

# param_scan cross-checks.  The two squeezing routes agree to rounding
# (about 1e-15 seen); the finite-difference QFI has O(h^2) + O(eps/h) error,
# about 1e-10 relative at the default step.
SQUEEZING_GAP_TOL = 1e-9
QFI_REL_GAP_TOL = 1e-6

# Parameter box of the random scan.
TWO_PI = 2.0 * math.pi
SCAN_BOX = {
    "r": (0.05, 1.0),
    "mu": (0.0, TWO_PI),
    "varphi": (0.0, TWO_PI),
    "theta1": (0.0, 0.9 * math.pi),
    "delta1": (0.0, TWO_PI),
    "theta2": (0.0, 0.9 * math.pi),
    "delta2": (0.0, TWO_PI),
    "s1": (0.0, 3.0),
    "s2": (0.0, 3.0),
}
# A param_scan run gates a fixed list of SCAN_POINTS_PER_SECOND * seconds
# points drawn from the seed, so that the same seed and length give the same
# points and the same failures, however fast the program is.  At this rate the
# first pass over the list takes about the whole run on a 2-CPU machine.
SCAN_POINTS_PER_SECOND = 11

# peak_rss_mb is read after this many operations, so that it measures the same
# amount of work whatever the speed; a faster program must not read as one that
# holds more displacement matrices only because it got further in a run.
RSS_AFTER_OPS = 100

OK, REFUSED, WRONG = "ok", "refused", "wrong"


def child_env(**extra):
    """Environment for a child process that must import ecsim from this checkout."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def use_checkout_source():
    """Import ecsim from this checkout's src/, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_json(*args, env=None):
    """Run child.py with `args` and return the JSON object on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        capture_output=True, text=True, env=env or child_env(), cwd=ROOT, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cli_in_process(cli, argv):
    """Call ecsim.cli.main(argv) and return (exit code, CSV text written to stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def csv_matches(text, golden):
    """Header, NA cells and every value within tolerance of the golden CSV."""
    got, want = text.splitlines(), golden.splitlines()
    if not got or got[0] != want[0] or len(got) != len(want):
        return False
    for got_row, want_row in zip(got[1:], want[1:]):
        got_cells, want_cells = got_row.split(","), want_row.split(",")
        if len(got_cells) != len(want_cells):
            return False
        for a, b in zip(got_cells, want_cells):
            if (a == "NA") != (b == "NA"):
                return False
            if a == "NA":
                continue
            try:
                if not math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=ABS_TOL):
                    return False
            except ValueError:
                return False
    return True


def load_golden():
    # Decoded without newline translation, so that text equality is byte equality.
    return {name: (GOLDEN / name).read_bytes().decode() for name in CLI_CASES}


def draw_points(rng, n):
    return [{k: rng.uniform(lo, hi) for k, (lo, hi) in SCAN_BOX.items()} for _ in range(n)]


def displacement_cache_info():
    """(hits, misses) of ecsim's displacement cache, or None if it has none."""
    from ecsim import fock

    raw = getattr(fock, "_displacement_raw", None)
    info = getattr(raw, "cache_info", None)
    if info is None:
        return None
    info = info()
    return info.hits, info.misses


class Workload:
    """Shared accounting: statuses, rows, displacement-cache deltas of traced ops."""

    # True: a pass is finished even when the time is up, so that every run
    # weighs the operations of a pass alike.
    whole_passes = True

    def __init__(self, seed, seconds):
        self.seed = seed
        self.seconds = seconds
        self.rng = random.Random(seed)
        self.status = Counter()
        self.info = Counter()
        self.cache = Counter()
        self.rows = 0
        self.import_samples = []

    def record(self, status, rows):
        self.status[status] += 1
        if status == OK:
            self.rows += rows

    def check_cli(self, name, code, text):
        """Gate one CLI operation against its golden CSV."""
        golden = self.golden[name]
        if code != 0:
            self.record(REFUSED, 0)
        elif csv_matches(text, golden):
            self.info["byte_equal"] += text == golden
            self.record(OK, golden.count("\n") - 1)
        else:
            self.record(WRONG, 0)

    def timed(self, op, tracer):
        """Run one operation, traced when `tracer` is given; return its latency in seconds."""
        if tracer is None:
            return self.run(op, None)
        before = displacement_cache_info()
        with tracer.installed():
            latency = self.run(op, tracer)
        after = displacement_cache_info()
        if before and after:
            self.cache["hits"] += after[0] - before[0]
            self.cache["misses"] += after[1] - before[1]
        return latency

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Each workload's op_ms_tail percentile is the highest that leaves at least ten
# samples beyond it at the operation count a 35-second run reaches on a 2-CPU
# machine: 25 or 30 on cli_cold (five whole passes of about 7 s), about 210 on
# sweep_warm and 430 on param_scan.  It is fixed per workload so that a change
# in speed does not change its definition.


class CliCold(Workload):
    """Each pinned invocation in a fresh `python -m ecsim.cli` process."""

    setup_samples = 5
    tail_percentile = 60

    def prepare(self):
        self.golden = load_golden()

    def setup_sample(self):
        import_s = child_json("import")["import_s"]
        self.import_samples.append(import_s)
        return import_s

    def next_pass(self):
        return self.rng.sample(sorted(CLI_CASES), len(CLI_CASES))

    def timed(self, op, tracer):
        return self.run(op, tracer)  # tracing happens inside the child process

    def run(self, name, tracer):
        argv = CLI_CASES[name]
        if tracer is None:
            cmd = [sys.executable, "-m", "ecsim.cli", *argv]
        else:
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / "child-spans.json"
            cmd = [sys.executable, str(CHILD), "cli", str(spans_path), *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT, timeout=120)
        latency = time.perf_counter() - start
        if tracer is not None and spans_path.exists():
            self.merge_child_spans(tracer, spans_path)
        self.check_cli(name, proc.returncode, proc.stdout.decode(errors="replace"))
        return latency

    def merge_child_spans(self, tracer, spans_path):
        data = json.loads(spans_path.read_text())
        spans_path.unlink()
        offset = len(tracer.spans)
        for name, start, end, parent, _op, failed, extra in data["spans"]:
            extra = tuple(extra) if isinstance(extra, list) else extra
            parent = parent + offset if parent >= 0 else -1
            tracer.spans.append((name, start, end, parent, tracer.op, failed, extra))
        # Each child starts with an empty cache, so its totals are this op's deltas.
        for key, value in data["cache"].items():
            self.cache[key] += value

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class SweepWarm(Workload):
    """Golden sweeps re-run through ecsim.cli.main in one process with a full cache."""

    setup_samples = 3
    tail_percentile = 90

    def prepare(self):
        self.golden = load_golden()
        use_checkout_source()
        import ecsim.cli

        self.cli = ecsim.cli
        for name in WARM_CASES:  # the untimed pass that fills the displacement cache
            run_cli_in_process(self.cli, CLI_CASES[name])

    def setup_sample(self):
        child = child_json("warm")
        self.import_samples.append(child["import_s"])
        return child["import_s"] + child["fill_s"]

    def next_pass(self):
        return self.rng.sample(WARM_CASES, len(WARM_CASES))

    def run(self, name, tracer):
        start = time.perf_counter()
        try:
            code, text = run_cli_in_process(self.cli, CLI_CASES[name])
        except (SystemExit, Exception) as exc:  # a crashing sweep is a failed operation
            self.info[f"error_{type(exc).__name__}"] += 1
            code, text = 1, ""
        latency = time.perf_counter() - start
        self.check_cli(name, code, text)
        return latency


class ParamScan(Workload):
    """Random parameter points through the library API; no two points share a displacement.

    A pass evaluates the run's fixed list of points once, with an empty
    displacement cache.  `attempted` and `failed` count distinct points, from
    their first evaluation; a later pass only adds latencies, and fails a point
    whose outcome it does not reproduce.
    """

    setup_samples = 5
    tail_percentile = 95
    whole_passes = False

    def prepare(self):
        self.n_points = max(1, round(SCAN_POINTS_PER_SECOND * self.seconds))
        self.points = draw_points(random.Random(self.seed), self.n_points)
        self.first = {}  # point index -> (status, outcome) of its first evaluation
        use_checkout_source()
        import ecsim
        from ecsim.errors import DegeneratePostSelectionError, NumericalRangeError

        self.ecsim = ecsim
        self.degenerate_error = DegeneratePostSelectionError
        self.range_error = NumericalRangeError

    def setup_sample(self):
        import_s = child_json("import")["import_s"]
        self.import_samples.append(import_s)
        start = time.perf_counter()
        draw_points(random.Random(self.seed), self.n_points)
        return import_s + time.perf_counter() - start

    def next_pass(self):
        from ecsim import fock

        # A repeated point must build its displacements again, as a new one does.
        clear = getattr(getattr(fock, "_displacement_raw", None), "cache_clear", None)
        if clear is not None:
            clear()
        return range(self.n_points)

    def evaluate(self, p):
        e = self.ecsim
        config = e.default_config(
            ecs=e.EcsParams(r=p["r"], mu=p["mu"], varphi=p["varphi"]),
            wv=e.WeakValueParams(
                theta1=p["theta1"], delta1=p["delta1"], theta2=p["theta2"], delta2=p["delta2"]
            ),
            coupling=e.CouplingParams(s1=p["s1"], s2=p["s2"]),
        )
        outcome = config.pointer_outcome()
        squeezing = e.squeezing_report(outcome.state, config.theta_big)
        hz = e.hz_correlation(outcome.state)
        q_analytic = e.qfi_analytic(config)
        q_fd = e.qfi_finite_difference(config.replace(qfi_gauge="renormalized"))
        return (outcome.success_probability, squeezing.s2s_direct,
                squeezing.s2s_normal_ordered, hz, q_analytic, q_fd)

    def run(self, index, tracer):
        start = time.perf_counter()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                values = self.evaluate(self.points[index])
        except Exception as exc:  # every failure is counted and the scan goes on
            latency = time.perf_counter() - start
            status, reason = self.classify(exc)
            outcome = type(exc).__name__
        else:
            latency = time.perf_counter() - start
            status, reason = self.check(values)
            outcome = values
        if index not in self.first:
            self.first[index] = (status, outcome)
            self.info["warnings"] += len(caught)
            if reason:
                self.info[reason] += 1
            self.record(status, 1)
            return latency
        if status == OK:
            self.rows += 1
        first_status, first_outcome = self.first[index]
        if first_status != WRONG and not same_outcome(outcome, first_outcome):
            self.info["unreproduced"] += 1
            self.status[first_status] -= 1
            self.status[WRONG] += 1
            self.first[index] = (WRONG, first_outcome)
        return latency

    def classify(self, error):
        """(status, reason) of an evaluation that raised `error`."""
        if isinstance(error, self.degenerate_error):
            return OK, "degenerate"
        if isinstance(error, self.range_error):
            return REFUSED, "richardson_trips"
        return REFUSED, f"error_{type(error).__name__}"

    def check(self, values):
        """(status, reason) of an evaluation that returned `values`."""
        p_s, s_direct, s_normal, _hz, q_analytic, q_fd = values
        if not all(math.isfinite(v) for v in values):
            return WRONG, "non_finite"
        if abs(s_direct - s_normal) > SQUEEZING_GAP_TOL:
            return WRONG, "squeezing_gap"
        if abs(q_analytic - q_fd) > QFI_REL_GAP_TOL * abs(q_analytic):
            return WRONG, "qfi_gap"
        return OK, None


def same_outcome(a, b):
    """Two evaluations of one point agree: the same error, or values within REL_TOL."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return all(math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL) for x, y in zip(a, b))


WORKLOADS = {"cli_cold": CliCold, "sweep_warm": SweepWarm, "param_scan": ParamScan}


def measure(workload, seconds, tracer=None):
    """Run passes for `seconds` of operation time; with a tracer, every other pass is traced.

    The first pass, and with a tracer the second, always run to the end.  A
    later pass stops when the time is up, unless the workload asks for whole
    passes.  The set-up samples are taken at even steps of the operation time,
    outside of it, so that their median sees the same machine as the
    operations do: on a shared VM the speed of Python code drifts over tens of
    seconds.

    Returns the latencies of the untraced and of the traced operations, the
    set-up samples, and the peak resident memory in MB after RSS_AFTER_OPS
    operations or at the end.
    """
    untraced, traced, setup = [], [], []
    rss_mb = None
    busy = 0.0
    passes = 0
    min_passes = 2 if tracer else 1
    while passes < min_passes or busy < seconds:
        tracing = tracer is not None and passes % 2 == 1
        for op in workload.next_pass():
            if passes >= min_passes and busy >= seconds and not workload.whole_passes:
                break
            if len(setup) < workload.setup_samples and busy >= len(setup) * seconds / workload.setup_samples:
                setup.append(workload.setup_sample())
            start = time.perf_counter()
            if tracing:
                tracer.op += 1
                traced.append(workload.timed(op, tracer))
            else:
                untraced.append(workload.timed(op, None))
            busy += time.perf_counter() - start
            if rss_mb is None and len(untraced) + len(traced) == RSS_AFTER_OPS:
                rss_mb = workload.peak_rss_mb()
        passes += 1
    while len(setup) < workload.setup_samples:
        setup.append(workload.setup_sample())
    return untraced, traced, setup, rss_mb or workload.peak_rss_mb()
