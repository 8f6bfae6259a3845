"""One round of one workload, in a fresh process; `run.py` starts it.

    python3 perfbench/worker.py WORKLOAD SEED MODE FULL

MODE is `setup` (set-up only), `run` (the measured round), `base` (the
untraced baseline of a traced round; for `cli` the session runs in this
process, as the traced round does) or `trace`.  FULL is 1 to add the slow
oracle checks.  The last line of stdout is one JSON record.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main():
    name, seed, mode, full = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4] == "1"
    wl = workloads.WORKLOADS[name]()
    record = {}
    if wl.uses_numpy:
        # numpy's own import (0.07-0.17 s here, mostly loading its C
        # extension) drifts with the host far more than the program's set-up
        # does, so it happens before the set-up clock starts
        import numpy  # noqa: F401
    start = time.perf_counter()
    inp = wl.setup(seed)
    record["setup_s"] = wl.probe() if name == "cli" else time.perf_counter() - start
    if mode == "setup":
        print(json.dumps(record))
        return

    ops = workloads.Ops()
    tracer = tracing.Tracer() if mode == "trace" else tracing.NullTracer()
    solve = wl.solve
    if name == "cli" and mode in ("base", "trace"):
        import dendrokit.cli  # noqa: F401  imported before the clock starts

        solve = wl.solve_in_process
    if mode == "trace":
        tracer.install()
    start = time.perf_counter()
    try:
        out = solve(inp, ops, tracer)
    finally:
        record["solve_s"] = time.perf_counter() - start
        if mode == "trace":
            tracer.uninstall()
    in_process = name != "cli" or mode != "run"
    record["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    record.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors)
    record["problems"], record["digest"] = wl.check(inp, out, seed, full)
    if mode == "trace":
        record["trace"] = tracer.summary()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
