"""Steadiness mode and comparison for the hyperfind benchmark.

    python3 perfbench/steady.py run --runs 10 \\
        --out perfbench/results/mine.json [--workloads suite,factorial-deep]
    python3 perfbench/steady.py compare perfbench/results/a.json \\
        perfbench/results/b.json

`run` runs `run.py` repeatedly on each workload, one run at a time, each
for `run_seconds` of `BENCHMARK.json` and with its own seed (1, 2, ...),
and reports per metric the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance between
the quartiles as a share of the median. The bounds in
`BENCHMARK.json` rest on these spreads. With `--trace 1` it does the same
for the per-layer metrics of the traced run.

`compare` sets the medians of two such result files side by side against
the bounds. It refuses results whose solver backend differs, because a
solver found on PATH changes every number; a differing Python version or
core count is reported but not refused.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# Run i of a workload uses seed FIRST_SEED + i.
FIRST_SEED = 1


def bounds() -> dict:
    return {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_once(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run.py failed on {workload} seed {seed}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    return env, result


def cmd_run(args) -> None:
    spec = benchmark_spec()
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    limits = bounds()
    out = {"env": None, "seconds": seconds, "trace": args.trace, "workloads": {}}
    for name in names:
        runs = []
        for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
            env, result = run_once(name, seed, seconds, args.trace)
            if out["env"] is not None and env["solver_backend"] != out["env"]["solver_backend"]:
                raise SystemExit("solver backend changed between runs")
            out["env"] = env
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} searches failed", file=sys.stderr)
            runs.append({"seed": seed, **result})
        metrics = {m: summary([r["metrics"][m]["value"] for r in runs])
                   for m in runs[0]["metrics"]}
        out["workloads"][name] = {"runs": runs, "summary": metrics}
        for metric, s in metrics.items():
            bound = limits.get(metric)
            note = "" if bound is None else f"  bound {bound:g}  spread/bound {s['spread'] / bound:.2f}"
            print(f"{name:<18} {metric:<15} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.3f}{note}",
                  flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(out, handle, indent=1)


def cmd_compare(args) -> None:
    with open(args.before) as handle:
        before = json.load(handle)
    with open(args.after) as handle:
        after = json.load(handle)
    if before["env"]["solver_backend"] != after["env"]["solver_backend"]:
        raise SystemExit(
            f"refusing to compare: solver backend {before['env']['solver_backend']!r} "
            f"vs {after['env']['solver_backend']!r}")
    for key in ("python", "nproc"):
        if before["env"][key] != after["env"][key]:
            print(f"warning: {key} differs: {before['env'][key]} vs {after['env'][key]}")
    limits = bounds()
    worse = 0
    for name, data in before["workloads"].items():
        if name not in after["workloads"]:
            continue
        for metric, s in data["summary"].items():
            new = after["workloads"][name]["summary"][metric]["median"]
            change = new / s["median"] - 1.0 if s["median"] else 0.0
            bound = limits.get(metric)
            flag = ""
            if bound is not None and change > bound:
                flag, worse = "  WORSE THAN BOUND", worse + 1
            print(f"{name:<18} {metric:<15} {s['median']:<12.6g} -> {new:<12.6g} "
                  f"{change:+.3f}{flag}")
    sys.exit(1 if worse else 0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workloads", default="")
    run.add_argument("--runs", type=int, default=10, help="at least 2")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True)
    run.set_defaults(fn=cmd_run)
    compare = sub.add_parser("compare")
    compare.add_argument("before")
    compare.add_argument("after")
    compare.set_defaults(fn=cmd_compare)
    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
