#!/usr/bin/env python3
"""Time two ecsim trees against each other in one process, point by point.

    python3 scripts/pair_points.py PARENT_SRC CHANGE_SRC --seed N --rounds R

PARENT_SRC and CHANGE_SRC are the `src` directories (or the checkouts that
hold them) of two versions of ecsim.  Each tree's `ecsim` package is copied
under its own name, ecsim_parent and ecsim_change, into a temporary
directory and imported from there, so both versions run in one process on
one clock.  The points are the param_scan workload's: perfbench/workloads.py
draw_points at the seed, as many as a run of BENCHMARK.json's run_seconds
evaluates.  Every round walks all points and evaluates each with both
versions back to back, the parent first at even points and the change first
at odd ones, so a slow stretch of the machine weighs on both alike.

Each evaluation is param_scan's: the config build, pointer_outcome,
squeezing_report, hz_correlation, qfi_analytic and the renormalized
qfi_finite_difference.  The script prints the median time of each stage and
of the whole point for both versions with their ratio (change / parent),
the worst relative gap between the two versions' values, for each of the
six values and overall, and the number of points whose outcomes do not
match (one raises and the other does not, they raise different errors, or
a value is NaN in one only).  The gap is |a - b| / max(|a|, |b|) for P_s
and the two QFIs, and |a - b| / max(1, |a|, |b|) for the squeezing values
and E, as the oracle tests measure them: those are differences of O(1)
moments, so a value near 0 carries absolute, not relative, rounding.  For
each version it also prints the finite-difference accuracy, the median and
worst |Q_fd - Q_analytic| / Q_analytic over the points where both are
finite and Q_analytic is not zero, so one run compares the two trees'
finite differences against the closed form.
"""

import argparse
import importlib
import importlib.util
import json
import math
import random
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
STAGES = ("config", "pointer_outcome", "squeezing_report", "hz_correlation", "qfi_analytic",
          "qfi_finite_difference")
VALUES = ("P_s", "S2s_direct", "S2s_normal", "E", "Q_analytic", "Q_fd")
# The values whose gap is measured against max(1, |a|, |b|).
UNIT_FLOOR = {"S2s_direct", "S2s_normal", "E"}


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def import_copy(src: str, name: str, into: Path):
    """Copy the ecsim package of a src directory (or of a checkout's src/) as `name` and import it."""
    root = Path(src)
    package = root / "ecsim" if (root / "ecsim").is_dir() else root / "src" / "ecsim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no ecsim package under {src}")
    shutil.copytree(package, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def evaluate(e, p):
    """(values or the error's name, seconds per stage) of param_scan's evaluation of point p."""
    times, values = [], []
    clock = time.perf_counter()

    def lap():
        nonlocal clock
        now = time.perf_counter()
        times.append(now - clock)
        clock = now

    try:
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            config = e.default_config(
                ecs=e.EcsParams(r=p["r"], mu=p["mu"], varphi=p["varphi"]),
                wv=e.WeakValueParams(theta1=p["theta1"], delta1=p["delta1"], theta2=p["theta2"], delta2=p["delta2"]),
                coupling=e.CouplingParams(s1=p["s1"], s2=p["s2"]),
            )
            lap()
            outcome = config.pointer_outcome()
            values.append(outcome.success_probability)
            lap()
            squeezing = e.squeezing_report(outcome.state, config.theta_big)
            values += [squeezing.s2s_direct, squeezing.s2s_normal_ordered]
            lap()
            values.append(e.hz_correlation(outcome.state))
            lap()
            values.append(e.qfi_analytic(config))
            lap()
            values.append(e.qfi_finite_difference(config.replace(qfi_gauge="renormalized")))
            lap()
    except Exception as exc:  # a failing point is compared by its error's type
        lap()
        return type(exc).__name__, times
    return values, times


def relative_gap(a: float, b: float, floor: float = 0.0) -> float:
    scale = max(floor, abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def fd_accuracy(results) -> tuple[float, float, int]:
    """(median, worst, count) of |Q_fd - Q_analytic| / Q_analytic over one version's evaluated points."""
    pairs = [(v[VALUES.index("Q_fd")], v[VALUES.index("Q_analytic")]) for v in results if not isinstance(v, str)]
    gaps = [abs(fd - an) / abs(an) for fd, an in pairs if math.isfinite(fd) and math.isfinite(an) and an != 0.0]
    return (statistics.median(gaps), max(gaps), len(gaps)) if gaps else (math.nan, math.nan, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    workloads = load_workloads()
    seconds = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    points = workloads.draw_points(random.Random(args.seed), round(workloads.SCAN_POINTS_PER_SECOND * seconds))
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        versions = {name: import_copy(src, f"ecsim_{name}", Path(tmp))
                    for name, src in (("parent", args.parent_src), ("change", args.change_src))}
        samples = {name: {stage: [] for stage in (*STAGES, "point")} for name in versions}
        outcomes = {}
        for _ in range(args.rounds):
            for index, point in enumerate(points):
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                for name in order:
                    result, times = evaluate(versions[name], point)
                    for stage, seconds_taken in zip(STAGES, times):
                        samples[name][stage].append(seconds_taken)
                    samples[name]["point"].append(sum(times))
                    outcomes.setdefault(index, {})[name] = result

    mismatches, worst = 0, [(0.0, None)] * len(VALUES)
    for index, pair in outcomes.items():
        a, b = pair["parent"], pair["change"]
        if isinstance(a, str) or isinstance(b, str):
            mismatches += a != b
            continue
        if [math.isnan(x) for x in a] != [math.isnan(x) for x in b]:
            mismatches += 1
            continue
        for k, (x, y) in enumerate(zip(a, b)):
            gap = 0.0 if math.isnan(x) else relative_gap(x, y, 1.0 if VALUES[k] in UNIT_FLOOR else 0.0)
            if gap > worst[k][0]:
                worst[k] = (gap, index)
    print(f"# seed {args.seed}, {len(points)} points, {args.rounds} rounds; median us per stage")
    print(f"{'stage':<24}{'parent':>10}{'change':>10}{'ratio':>8}")
    for stage in (*STAGES, "point"):
        parent, change = (1e6 * statistics.median(samples[name][stage]) for name in ("parent", "change"))
        print(f"{stage:<24}{parent:>10.1f}{change:>10.1f}{change / parent:>8.3f}")
    print("worst relative gap per value: " + ", ".join(
        f"{value} {gap:.1e}" + ("" if index is None else f" (point {index})") for value, (gap, index) in zip(VALUES, worst)
    ))
    print(f"worst relative gap {max(gap for gap, _ in worst):.2e}")
    print(f"outcome mismatches {mismatches}")
    for name in ("parent", "change"):
        median, worst_fd, count = fd_accuracy(pair[name] for pair in outcomes.values())
        print(f"fd accuracy {name}: |Q_fd - Q_analytic| / Q_analytic median {median:.2e}, worst {worst_fd:.2e},"
              f" over {count} points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
