"""Fresh-process helper of the benchmark; the parent puts src/ on PYTHONPATH.

    python3 perfbench/child.py import            time `import ecsim.cli`
    python3 perfbench/child.py warm              time the import and the cache-filling pass
    python3 perfbench/child.py cli SPANS ARGV... run `ecsim ARGV...` traced, spans to SPANS

The first two print one JSON object.  `cli` writes the CSV to stdout as the
CLI does, exits with the CLI's code and writes its spans and displacement
cache counts to the file SPANS.
"""

import json
import sys
import time

import workloads


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return traced_cli(rest[0], rest[1:])
    start = time.perf_counter()
    import ecsim.cli

    result = {"import_s": time.perf_counter() - start}
    if mode == "warm":
        start = time.perf_counter()
        for name in workloads.WARM_CASES:
            workloads.run_cli_in_process(ecsim.cli, workloads.CLI_CASES[name])
        result["fill_s"] = time.perf_counter() - start
    elif mode != "import":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


def traced_cli(spans_path, cli_argv):
    from tracing import Tracer

    tracer = Tracer()
    with tracer.span("cli.import"):
        import ecsim.cli
    with tracer.installed():
        code = ecsim.cli.main(cli_argv)
    sys.stdout.flush()
    cache = workloads.displacement_cache_info() or (0, 0)
    keys = {s[6] for s in tracer.spans if s[0] == "fock.displacement_matrix"}
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "cache": {"hits": cache[0], "misses": cache[1], "keys": len(keys)}}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
