"""ecsim benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {cli_cold,sweep_warm,param_scan} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  With --trace 0 the last stdout line holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
run.  The line before it is the full record: machine context, counts and
set-up samples.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from collections import Counter

import workloads
from tracing import Tracer, self_times
from workloads import OK, REFUSED, WRONG, WORKLOADS

# Spans reported as calls and self time per operation; then self time only.
CALLS_AND_SELF = (
    "fock.displacement_matrix",
    "fock.apply_to_mode",
    "fock.coherent_column",
    "measurement.build_ecs",
    "measurement.apply_displacement_branches",
    "measurement.build_pointer_state",
    "config.ecs_state",
    "config.raw_pointer_state",
    "config.pointer_outcome",
    "observables.squeezing_report",
    "observables.hz_correlation",
    "observables.joint_wigner_grid",
    "observables.qfi_analytic",
    "observables.qfi_finite_difference",
)
SELF_ONLY = ("sweep.cmd", "sweep.csv_text", "cli.main")
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_CORETYPE")


def checkout_problem():
    """Why this directory cannot be benchmarked, or None."""
    needed = [workloads.SRC / "ecsim" / "__init__.py", workloads.SRC / "ecsim" / "cli.py"]
    needed += [workloads.GOLDEN / name for name in workloads.CLI_CASES]
    missing = [str(p.relative_to(workloads.ROOT)) for p in needed if not p.is_file()]
    return f"not an ecsim checkout, missing {', '.join(missing)}" if missing else None


def machine_context(load_at_start):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    blas_config = blas.get("openblas configuration", "")
    # e.g. "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64"
    core = [t for t in blas_config.split()[2:] if not re.fullmatch(r"[A-Z0-9_]+(=\S*)?", t)]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": core[0] if core else None,
        "blas_config": blas_config,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV_VARS},
    }


def percentile(latencies, pct):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end_metrics(workload, latencies, setup, rss_mb):
    attempted = sum(workload.status.values())
    tail_s, _ = percentile(latencies, workload.tail_percentile)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "op_ms_tail": (1e3 * tail_s, "ms"),
        "points_per_s": (workload.rows / sum(latencies), "1/s"),
        "pass_ratio": (workload.status[OK] / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def layer_metrics(workload, tracer, untraced, traced, blas1_ms):
    n = len(traced)
    calls, own, failures = Counter(), Counter(), Counter()
    flops = 0
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] += 1
        own[span[0]] += self_s
        failures[span[0]] += span[5]
        if span[0] == "fock.apply_to_mode":
            flops += span[6]
    cache = workload.cache
    if "keys" not in cache:  # in-process: one cache for every traced operation
        cache["keys"] = len({s[6] for s in tracer.spans if s[0] == "fock.displacement_matrix"})
    lookups = cache["hits"] + cache["misses"]
    metrics = {}
    for name in CALLS_AND_SELF:
        metrics[f"{name}.calls"] = (calls[name] / n, "calls/op")
        metrics[f"{name}.self_ms"] = (1e3 * own[name] / n, "ms/op")
    for name in SELF_ONLY:
        metrics[f"{name}.self_ms"] = (1e3 * own[name] / n, "ms/op")
    metrics.update({
        "fock.apply_to_mode.gflop_computed": (flops / 1e9 / n, "GFLOP/op"),
        "fock.displacement_cache.misses": (cache["misses"] / n, "misses/op"),
        "fock.displacement_cache.hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "fock.displacement_cache.miss_per_key": (
            cache["misses"] / cache["keys"] if cache["keys"] else 0.0, "ratio"),
        "observables.qfi_finite_difference.failures": (
            failures["observables.qfi_finite_difference"] / n, "failures/op"),
        "cli.import_s": (statistics.median(workload.import_samples), "s"),
        "trace.ops": (n, "count"),
        "trace.overhead_pct": (
            100.0 * (statistics.fmean(traced) / statistics.fmean(untraced) - 1.0), "%"),
        "reference.blas1_op_ms_p50": (blas1_ms, "ms"),
    })
    return metrics


def blas1_reference(args):
    """op_ms_p50 of a short untraced run of the same workload with OPENBLAS_NUM_THREADS=1."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "3", "--trace", "0"],
        capture_output=True, text=True, cwd=workloads.ROOT, timeout=150,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"single-thread reference run failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["op_ms_p50"]["value"]


def write_spans(tracer, args):
    workloads.OUT.mkdir(exist_ok=True)
    path = workloads.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for name, start, end, parent, op, failed, _extra in tracer.spans:
            fh.write(json.dumps([name, start, end, parent, op, failed]) + "\n")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = checkout_problem()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.prepare()
    tracer = Tracer() if args.trace else None
    untraced, traced, setup, rss_mb = workloads.measure(workload, args.seconds, tracer)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": machine_context(load_at_start),
        "status": dict(workload.status),
        "counts": dict(workload.info),
        "ops_untraced": len(untraced),
        "ops_traced": len(traced),
        "tail_percentile": workload.tail_percentile,
        "tail_samples_beyond": percentile(untraced, workload.tail_percentile)[1],
        "setup_samples_s": setup,
        "latencies_ms": [round(1e3 * t, 3) for t in untraced],
    }
    if args.trace:
        metrics = layer_metrics(workload, tracer, untraced, traced, blas1_reference(args))
        record["spans_file"] = str(write_spans(tracer, args).relative_to(workloads.ROOT))
    else:
        metrics = end_to_end_metrics(workload, untraced, setup, rss_mb)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    record["metrics"] = metrics
    print(json.dumps(record))
    print(json.dumps({
        "correct": workload.status[WRONG] == 0,
        "attempted": sum(workload.status.values()),
        "failed": workload.status[REFUSED] + workload.status[WRONG],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
