#!/usr/bin/env python3
"""Time the golden CLI invocations of two ecsim trees in fresh processes.

    python3 scripts/pair_cli.py PARENT CHANGE --rounds R

PARENT and CHANGE are checkouts of two versions of ecsim (or their `src`
directories).  Each round runs every invocation of tests/golden_cases.py as
`python -m ecsim.cli ARGV` once per tree, each in a fresh process, the
parent first in even rounds and the change first in odd ones, so that a
slow stretch of the machine weighs on both alike.  It is the cold-start
counterpart of scripts/pair_points.py: a CLI run pays for the interpreter,
the imports and the sweep.

The script prints, per invocation, the median wall time and its quartiles
for both trees, their ratio (change / parent), and whether every timed run
of both trees wrote the same stdout bytes ("same") or not ("DIFFER").  A
DIFFER row also gives, from the first run of each tree, how many float cells
differ, the worst absolute and relative gap and the largest share of the
golden bound used, as scripts/golden_drift.py measures them with the parent's
stdout in place of the golden file.
Then, per tree, it prints where a cold run spends that time: from one more
fresh process per invocation and round, the medians of `import ecsim.cli`
and of the run through ecsim.cli.main.  The import is timed as
perfbench/child.py times it, between two perf_counter calls in a fresh
process, but with only sys and time imported before it, so it is the
import that a CLI run pays.  Exits 1 when any run exits non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))

from golden_cases import GOLDEN_CASES  # noqa: E402
from golden_drift import float_drift  # noqa: E402

# One fresh process: the in-process split of one invocation, as JSON seconds.
# The modules that the split itself needs load after the import it times.
SPLIT = """
import sys, time
start = time.perf_counter()
import ecsim.cli
import_s = time.perf_counter() - start
import contextlib, io
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = ecsim.cli.main(sys.argv[1:])
run_s = time.perf_counter() - start
import json
print(json.dumps({"ecsim": import_s, "run": run_s, "code": code}))
"""
PARTS = ("ecsim", "run")


def src_dir(tree: str) -> str:
    """The directory that holds the ecsim package of a checkout or a src directory."""
    root = Path(tree).resolve()
    for candidate in (root, root / "src"):
        if (candidate / "ecsim" / "__init__.py").is_file():
            return str(candidate)
    raise SystemExit(f"no ecsim package under {tree}")


def timed_cli(src: str, argv: list[str], cwd: str) -> tuple[float, int, bytes]:
    """(wall seconds, exit code, stdout bytes) of `python -m ecsim.cli argv` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ecsim.cli", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, env=env, cwd=cwd, timeout=300)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def split(src: str, argv: list[str], cwd: str) -> dict:
    """The in-process split of one invocation in a fresh process."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", SPLIT, *argv], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"split of {argv} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gap(parent: bytes, change: bytes) -> str:
    """The float gap between the parent's and the change's stdout of one invocation."""
    if not (parent and change):
        return "no output"
    _, differ, worst_abs, worst_rel, share = float_drift(parent.decode(), change.decode())
    return f"{differ} cells, worst abs {worst_abs:.2g}, rel {worst_rel:.2g}, {100.0 * share:.2f}% of bound"


def summary(samples: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) in ms."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return 1e3 * median, 1e3 * q1, 1e3 * q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 for quartiles")

    trees = {"parent": src_dir(args.parent), "change": src_dir(args.change)}
    wall = {name: {case: [] for case in GOLDEN_CASES} for name in trees}
    parts = {name: {case: {part: [] for part in PARTS} for case in GOLDEN_CASES} for name in trees}
    outputs = {case: {name: [] for name in trees} for case in GOLDEN_CASES}
    failures = 0
    with tempfile.TemporaryDirectory() as cwd:
        for round_index in range(args.rounds):
            order = ("parent", "change") if round_index % 2 == 0 else ("change", "parent")
            for case, cli_argv in GOLDEN_CASES.items():
                for name in order:
                    seconds, code, stdout = timed_cli(trees[name], cli_argv, cwd)
                    wall[name][case].append(seconds)
                    outputs[case][name].append(stdout)
                    failures += code != 0
                for name in order:
                    sample = split(trees[name], cli_argv, cwd)
                    failures += sample["code"] != 0
                    for part in PARTS:
                        parts[name][case][part].append(sample[part])

    print(f"# {args.rounds} rounds; wall ms per fresh `python -m ecsim.cli` run, median [quartiles]")
    print(f"{'invocation':<26}{'parent':>24}{'change':>24}{'ratio':>8}{'stdout':>8}")
    for case in GOLDEN_CASES:
        (p, p1, p3), (c, c1, c3) = (summary(wall[name][case]) for name in ("parent", "change"))
        runs = outputs[case]
        same = "same" if len(set(runs["parent"] + runs["change"])) == 1 else "DIFFER"
        row = f"{case:<26}{p:>8.1f} [{p1:6.1f}, {p3:6.1f}]{c:>8.1f} [{c1:6.1f}, {c3:6.1f}]{c / p:>8.3f}{same:>8}"
        print(row if same == "same" else f"{row}  {gap(runs['parent'][0], runs['change'][0])}")
    for name in trees:
        print(f"# {name}: in-process median ms of `import ecsim.cli` and of the run")
        for case in GOLDEN_CASES:
            medians = [1e3 * statistics.median(parts[name][case][part]) for part in PARTS]
            print(f"{case:<26}" + "".join(f"{part} {value:7.1f}  " for part, value in zip(PARTS, medians)))
    print(f"failed runs {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
