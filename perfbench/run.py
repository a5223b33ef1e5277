"""hyperfind benchmark: time-to-verdict on fixed inputs, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

One caller sends its next search only after the previous verdict returns:
each pass calls `driver.analyze_source` once per instance of the workload
(see `workloads.py`), and passes repeat until `--seconds` have elapsed. The
program spawns its own solver child per search, as it does for a user, so
solver start-up is timed on every search and never warmed away.

Every verdict and detection bound is checked against the hand-written table
in `workloads.py`. A wrong answer, an exception, or a search over the
instance's time limit counts as a failed search.

`--trace 0` reports the end-to-end metrics:

  setup_s          process start to first search call (interpreter start,
                   `import hyperfind`, `smt.resolve_solver`, reading the
                   inputs), median of fresh processes spread over the run
  wall_s           one pass over the workload's instances: the sum over
                   the instances of each one's fastest call
  verdict_ms.p50   one `analyze_source` call: the median over the
                   workload's instances of each one's fastest call
  cpu_s            CPU of one pass, this process plus its solver children:
                   the sum over the instances of each one's cheapest call
  peak_rss_mb      peak resident memory of this process

Times are taken from the fastest call of each instance, as `timeit` takes
them, because the machine's other load only ever adds time. On a shared
2-vCPU VM the same search swings by a third from one call to the next, in
slow spells that last from seconds to a minute or more. The fastest of many
short calls is therefore steadier than the fastest of a few long ones: in
one seven-minute stream that alternated a 0.07 s loop with a 2.5 s search,
the minima of 30 s windows spread (IQR over median) 0.06 for the loop and
0.17 for the search. The fastest and the median whole pass are printed as
notes.

`--trace 1` alternates untraced passes with traced passes (see `spans.py`)
and reports per-layer figures per pass from the traced ones. Its
`trace.overhead_share` is the time the tracing adds (the measured cost of a
span or a counted call, times their number in the pass) as a share of the
traced pass;
`trace.layer_share` is the share of the traced pass that falls in named
layers rather than in the driver's own remainder.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it are for
people: the environment (solver argv, Python version, nproc), a row per
instance, and figures that are not gated metrics (`verdict_ms.tail`,
`combinations_per_s`, `failed_share`, and the traced run's wall time over
the untraced one's). Metric names and units are those of `BENCHMARK.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import List, NamedTuple, Optional

import spans
import workloads
from workloads import LIMIT_S, Instance

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
INPUTS = os.path.join(ROOT, "benchmarks")

# Fresh processes timed for `setup_s`, after one untimed process that lets
# the interpreter write its bytecode cache (which a user pays only once).
# They are spread over the run, between passes, so that a slow moment of
# the machine weighs on set-up no more than on the other metrics.
SETUP_PROBES = 20

_SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from hyperfind import driver, smt
smt.resolve_solver()
for path in sys.argv[2:]:
    with open(path) as handle:
        handle.read()
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def probe_setup(paths) -> float:
    """Seconds from a fresh process's start until it could search."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SETUP_PROBE, SRC, *paths],
        stdout=subprocess.PIPE, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        fail("set-up probe failed")
    return elapsed


def declared_units(trace: int) -> dict:
    """Name to unit of the metrics `BENCHMARK.json` declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def verdict_of(result):
    from hyperfind.driver import BugFound, NoBugUpTo
    verdict = result.verdict
    if isinstance(verdict, BugFound):
        return "bug-found", verdict.k
    if isinstance(verdict, NoBugUpTo):
        return "no-bug", verdict.n
    return f"inconclusive:{verdict.reason}", None


class Search(NamedTuple):
    instance: Instance
    verdict: str
    k: Optional[int]
    combinations: Optional[int]
    sat_calls: Optional[int]
    ms: float
    cpu_s: float
    failure: Optional[str]


class Pass(NamedTuple):
    """One closed-loop pass over a workload's instances."""
    wall_s: float
    searches: List[Search]


def run_pass(instances, sources) -> Pass:
    from hyperfind import driver
    searches = []
    wall_start = time.perf_counter()
    for inst in instances:
        opts = driver.SearchOptions(step_budget=inst.step_budget)
        cpu_before = cpu_s()
        start = time.perf_counter()
        try:
            # Looked up at call time, so that the traced run's wrapper is used.
            result = driver.analyze_source(sources[inst.file], n=inst.n, opts=opts)
        except Exception as exc:  # a crash is a failed search, not a crashed run
            ms = 1000.0 * (time.perf_counter() - start)
            searches.append(Search(inst, "error", None, None, None, ms,
                                   cpu_s() - cpu_before,
                                   f"{type(exc).__name__}: {exc}"))
            continue
        ms = 1000.0 * (time.perf_counter() - start)
        # The search has closed its solver child, so the child's CPU is in.
        call_cpu_s = cpu_s() - cpu_before
        verdict, k = verdict_of(result)
        failure = None
        expected = inst.answer
        if (verdict, k) != (expected.verdict, expected.k):
            failure = f"got {verdict} k={k}, expected {expected.verdict} k={expected.k}"
        elif ms > 1000.0 * LIMIT_S:
            failure = f"took {ms / 1000.0:.1f} s, limit {LIMIT_S:g} s"
        searches.append(Search(inst, verdict, k, result.stats.combinations,
                               result.stats.sat_calls, ms, call_cpu_s, failure))
    wall_s = time.perf_counter() - wall_start
    return Pass(wall_s, searches)


def run_traced_pass(instances, sources, costs):
    """A pass with spans installed; returns it with its per-layer figures."""
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    children_before = spans.children_cpu_s()
    try:
        traced = run_pass(instances, sources)
    finally:
        uninstall()
    layers = spans.layer_metrics(tracer, spans.children_cpu_s() - children_before)
    layers["trace.wall_s"] = traced.wall_s
    layers["trace.overhead_share"] = spans.overhead_s(tracer, costs) / traced.wall_s
    # Whatever no named layer's span covers is left in the root span, as
    # driver.self_ms; the rest of the pass is in named layers.
    layers["trace.layer_share"] = 1.0 - layers["driver.self_ms"] / (1000.0 * traced.wall_s)
    return traced, layers


def report_searches(searches) -> None:
    """A row per instance; flags a drift of the exact counts from the seed."""
    by_name = {}
    for search in searches:
        by_name.setdefault(search.instance.name, []).append(search)
    for name, runs in by_name.items():
        expected = runs[0].instance.answer
        ms = statistics.median(search.ms for search in runs)
        outcomes = {(s.verdict, s.k, s.combinations, s.sat_calls) for s in runs}
        for verdict, k, combinations, sat_calls in sorted(outcomes, key=str):
            print(f"instance {name:<26} {verdict:<20} k={k} combinations={combinations} "
                  f"sat_calls={sat_calls} median_ms={ms:.1f}")
            if (combinations, sat_calls) != (expected.combinations, expected.sat_calls):
                print(f"DRIFT {name}: combinations={combinations} sat_calls={sat_calls}, "
                      f"seed {expected.combinations} and {expected.sat_calls}")
        for reason in sorted({s.failure for s in runs if s.failure}):
            print(f"FAILED {name}: {reason}")


def tail_percentile(samples):
    """Highest of the usual percentiles with at least 10 samples beyond it."""
    for pct in (99.9, 99, 95, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return pct, cuts[round(pct * 10) - 1]
    return None


def environment(solver_argv) -> dict:
    program = os.path.basename(solver_argv[0])
    return {
        # The program by name only: a path would tie results to one machine.
        "solver_argv": [program, *solver_argv[1:]],
        "solver_backend": "bundled" if "hyperfind.refsolver" in solver_argv
        else program,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "hyperfind")) or not os.path.isdir(INPUTS):
        fail(f"no hyperfind sources under {ROOT}: run from a full checkout")
    try:
        known = workloads.load(INPUTS)
    except (OSError, KeyError, ValueError) as exc:
        fail(f"cannot read the workloads: {exc}")
    if args.workload not in known:
        fail(f"unknown workload {args.workload!r}; one of {sorted(known)}")
    workload = known[args.workload]
    units = declared_units(args.trace)

    paths = sorted({os.path.join(INPUTS, inst.file) for inst in workload})
    setup = []
    if not args.trace:  # set-up is an end-to-end metric only
        probe_setup(paths)  # untimed: writes the bytecode cache

    sys.path.insert(0, SRC)
    from hyperfind import smt
    env = environment(smt.resolve_solver())
    sources = {}
    for path in paths:
        with open(path) as handle:
            sources[os.path.basename(path)] = handle.read()

    costs = spans.wrapper_costs_s() if args.trace else None
    rng = random.Random(args.seed)
    passes, traced, layers = [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    # At least one pass of each kind, however short the run.
    while not (passes and (traced or not args.trace)
               and time.perf_counter() >= deadline):
        instances = list(workload)
        rng.shuffle(instances)
        if args.trace and len(passes) > len(traced):
            traced_pass, layer = run_traced_pass(instances, sources, costs)
            traced.append(traced_pass)
            layers.append(layer)
        else:
            passes.append(run_pass(instances, sources))
            # Keep the set-up probes in step with the run's elapsed time.
            elapsed = (time.perf_counter() - start) / args.seconds
            while not args.trace and len(setup) < min(1.0, elapsed) * SETUP_PROBES:
                setup.append(probe_setup(paths))
    while not args.trace and len(setup) < SETUP_PROBES:
        setup.append(probe_setup(paths))

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"passes={len(passes)} traced_passes={len(traced)}")
    print("env " + json.dumps(env, sort_keys=True))
    searches = [s for p in passes + traced for s in p.searches]
    report_searches(searches)
    failed = sum(1 for s in searches if s.failure)

    samples = [s.ms for p in passes for s in p.searches]
    fastest, cheapest = {}, {}
    for search in (s for p in passes for s in p.searches):
        name = search.instance.name
        fastest[name] = min(search.ms, fastest.get(name, search.ms))
        cheapest[name] = min(search.cpu_s, cheapest.get(name, search.cpu_s))
    wall_s = sum(fastest.values()) / 1000.0
    median_wall_s = statistics.median(p.wall_s for p in passes)
    notes = {
        "verdict_ms.samples": len(samples),
        "failed_share": failed / len(searches),
        "wall_s.fastest_pass": min(p.wall_s for p in passes),
        "wall_s.median_pass": median_wall_s,
        "verdict_ms.median_call": statistics.median(samples),
    }
    tail = tail_percentile(samples)
    if tail is not None:
        notes[f"verdict_ms.p{tail[0]:g}"] = tail[1]
    combinations = sum(s.combinations or 0 for s in passes[0].searches)
    if combinations:
        notes["combinations_per_s"] = combinations / wall_s

    if args.trace:
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        notes["trace.wall_ratio"] = metrics["trace.wall_s"] / median_wall_s
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "verdict_ms.p50": statistics.median(fastest.values()),
            "cpu_s": sum(cheapest.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for name, value in notes.items():
        print(f"note {name} {value:.6g}")
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
             f"measured and declared in BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": len(searches),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    for name, entry in result["metrics"].items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
