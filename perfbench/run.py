"""dendrokit benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dendrokit checkout; the program is imported from its
`src/` and the oracles from `tests/oracles.py`.  A run starts one fresh
worker process per round, one at a time, so the program's process-lifetime
caches start empty in every round, as they do for a user's job.

`--trace 0` starts seven set-up-only workers, then measured rounds for
`--seconds` (see `repeat`), and prints the end-to-end metrics as medians over
them.  `--trace 1` alternates an untraced round and a traced round for
`--seconds`, and prints the per-layer metrics of the traced rounds with the
tracing overhead.  The first round of a run also runs
the slow oracle checks; later rounds must give the same output digest.

The last line of stdout is the result; the rounds' raw records go to
`perfbench/out/`.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("tree_maps", "operad_laws", "nerves", "cli")
SETUP_PROBES = 7
RUN_LIMIT_S = 170  # every run ends within 180 s


def _self(span):
    return lambda t: t["spans"].get(span, {}).get("self_s", 0.0)


def _calls(span):
    return lambda t: t["spans"].get(span, {}).get("calls", 0)


def _counter(name):
    return lambda t: t["counters"].get(name, 0)


def _percentile_ms(span, q):
    def get(t):
        xs = sorted(t["per_call_s"].get(span, []))
        return 1000.0 * xs[min(len(xs) - 1, int(q * len(xs)))] if xs else 0.0

    return get


def _median_per_call(span):
    return lambda t: statistics.median(t["per_call_s"][span]) if t["per_call_s"].get(span) else 0.0


#: (name, unit, value of one traced round's summary).  Times are self times
#: of the named spans; counts must repeat exactly between traced rounds.
PER_LAYER = [
    ("trees.enumerate_s", "s", _self("trees.enumerate")),
    ("trees.trees_enumerated", "count", _counter("trees.trees_enumerated")),
    ("trees.automorphisms_s", "s", _self("trees.automorphisms")),
    ("trees.automorphism_calls", "count", _calls("trees.automorphisms")),
    ("morphisms.hom_set_s", "s", _self("morphisms.hom_set")),
    ("morphisms.maps_enumerated", "count", _counter("morphisms.maps_enumerated")),
    ("morphisms.elementary_faces_s", "s", _self("morphisms.elementary_faces")),
    ("morphisms.faces_calls", "count", _calls("morphisms.elementary_faces")),
    ("morphisms.faces_cache_hits", "count", _counter("morphisms.faces_cache_hits")),
    ("morphisms.factorize_s", "s", _self("morphisms.factorize")),
    ("morphisms.maps_factorized", "count", _calls("morphisms.factorize")),
    ("morphisms.factorize_p50_ms", "ms", _percentile_ms("morphisms.factorize", 0.50)),
    ("morphisms.factorize_p99_ms", "ms", _percentile_ms("morphisms.factorize", 0.99)),
    ("morphisms.subtrees_s", "s", _self("morphisms.subtrees")),
    ("morphisms.subtrees_found", "count", _counter("morphisms.subtrees_found")),
    ("operads.check_axioms_s", "s", _self("operads.check_axioms")),
    ("operads.axiom_instances", "count", _counter("operads.axiom_instances")),
    ("operads.compose_s", "s", _self("operads.compose")),
    ("operads.compose_calls", "count", _calls("operads.compose")),
    ("operads.end_evaluate_calls", "count", _counter("operads.end_evaluate_calls")),
    ("dendroidal.values_s", "s", _self("dendroidal.values")),
    ("dendroidal.values_built", "count", _counter("dendroidal.values_built")),
    ("dendroidal.nerve_cache_values", "count", _counter("dendroidal.nerve_cache_values")),
    ("dendroidal.segal_s", "s", _self("dendroidal.segal")),
    ("dendroidal.segal_trees_checked", "count", _counter("dendroidal.segal_trees_checked")),
    ("dendroidal.round_trip_s", "s", _self("dendroidal.round_trip")),
    ("dendroidal.reconstruct_compose_calls", "count", _counter("dendroidal.reconstruct_compose_calls")),
    ("dendroidal.iso_instances", "count", _counter("dendroidal.iso_instances")),
    ("dendroidal.materialize_s", "s", _self("dendroidal.materialize")),
    ("dendroidal.table_json_s", "s", _self("dendroidal.table_json")),
    ("dendroidal.table_json_bytes", "count", _counter("dendroidal.table_json_bytes")),
    ("strata.psi_s", "s", _self("strata.psi")),
    ("strata.strata_built", "count", _counter("strata.strata_built")),
    ("strata.covers_s", "s", _self("strata.covers")),
    ("strata.export_bytes", "count", _counter("strata.export_bytes")),
    ("strata.fm_s", "s", _self("strata.fm")),
    ("strata.fm_configurations", "count", _counter("strata.fm_configurations")),
    ("cli.commands_run", "count", _counter("cli.commands_run")),
    ("cli.command_p50_s", "s", _median_per_call("cli.command")),
    ("cli.emit_s", "s", _self("cli.emit")),
    ("cli.stdout_bytes", "count", _counter("cli.stdout_bytes")),
]


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("DENDRO_BUDGET", None)
    return env


def spawn(argv, deadline):
    """Run a child in its own process group and return its stdout; on
    timeout the whole group is killed and waited for."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{argv[1:]} did not end before the run's time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {err[-2000:]}")
    return out


def round_record(workload, seed, mode, full, deadline):
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, "1" if full else "0"]
    return json.loads(spawn(argv, deadline).strip().splitlines()[-1])


def import_seconds(deadline):
    """`import dendrokit.cli` in a fresh process, timed inside it."""
    code = ("import time; t = time.perf_counter(); import dendrokit.cli; "
            "print(time.perf_counter() - t)")
    return float(spawn([sys.executable, "-c", code], deadline).strip())


def repeat(seconds, one_round):
    """`one_round(first)` over and over for about `seconds`, at least once.
    A run ends at the round boundary nearest to `seconds`: another round
    starts only if half of it would end in time, taking the last round's
    wall time for the next one's.  So a run measures close to `seconds`
    whatever the round length, and never a whole round more."""
    records, last = [], 0.0
    start = time.monotonic()
    while not records or time.monotonic() - start + last / 2 < seconds:
        began = time.monotonic()
        records.append(one_round(not records))
        last = time.monotonic() - began
    return records


def measured(workload, seed, seconds, deadline):
    probes = [round_record(workload, seed, "setup", False, deadline) for _ in range(SETUP_PROBES)]
    rounds = repeat(seconds, lambda first: round_record(workload, seed, "run", first, deadline))
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in probes + rounds), "s"),
        "solve_s": (statistics.median(r["solve_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    return metrics, rounds, {"setup_probes": probes}


def traced(workload, seed, seconds, deadline):
    pairs = repeat(seconds, lambda first: (round_record(workload, seed, "base", first, deadline),
                                           round_record(workload, seed, "trace", False, deadline)))
    base, trace = [b for b, _ in pairs], [t for _, t in pairs]
    summaries = [r["trace"] for r in trace]
    metrics, repeats = {}, True
    for name, unit, get in PER_LAYER:
        values = [get(s) for s in summaries]
        if unit == "count":
            repeats &= len(set(values)) == 1
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    imports = [import_seconds(deadline) for _ in range(3)] if workload == "cli" else [0.0]
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["trace.coverage"] = (statistics.median(s["root_s"] / r["solve_s"]
                                                   for s, r in zip(summaries, trace)), "share")
    metrics["trace.overhead_s"] = (statistics.median(r["solve_s"] for r in trace)
                                   - statistics.median(r["solve_s"] for r in base), "s")
    extra = {"counts_repeat": repeats, "missing_entry_points": summaries[0]["missing"]}
    return metrics, base + trace, extra


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/dendrokit/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not in a dendrokit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    run = traced if args.trace else measured
    try:
        metrics, rounds, extra = run(args.workload, args.seed, args.seconds, deadline)
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    problems = [p for r in rounds for p in r["problems"]]
    digests = sorted({r["digest"] for r in rounds})
    if len(digests) > 1:
        problems.append(f"rounds gave different outputs: digests {digests}")
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    raw = dict(vars(args), result=result, problems=problems, rounds=rounds, **extra)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw, indent=1))
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
