"""Command-line interface.

Exit codes: 0 no bug up to the bound, 1 bug found, 2 inconclusive (also
when the solver fails or a counterexample does not replay), 3 usage or
parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import concrete, driver, frontend, graph as graphs, smt


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperfind",
        description="Detect violations of forall/exists safety hyperproperties "
                    "of imperative programs by symbolic execution.")
    parser.add_argument("file", help="input file (program definitions + specification), "
                                     "or a JSON manifest with --bench")
    parser.add_argument("--algorithm", choices=("lazy", "naive"), default="lazy")
    parser.add_argument("--max-observations", type=int, default=10, metavar="N")
    parser.add_argument("--step-budget", type=int, default=None, metavar="N")
    parser.add_argument("--solver", default=None, metavar="PATH",
                        help="SMT solver binary (default: yices-smt2/z3/cvc5 from "
                             "PATH, else the bundled reference solver)")
    parser.add_argument("--timeout-ms", type=int, default=smt.DEFAULT_QUERY_TIMEOUT_MS,
                        metavar="N", help="per-query solver timeout")
    parser.add_argument("--feas-timeout-ms", type=int,
                        default=smt.DEFAULT_FEASIBILITY_TIMEOUT_MS, metavar="N",
                        help="per-feasibility-check solver timeout")
    parser.add_argument("--emit-smt", default=None, metavar="DIR",
                        help="dump every solver query into DIR before solving")
    parser.add_argument("--oracle", action="store_true",
                        help="run the finite-domain concrete oracle instead of "
                             "the symbolic search")
    parser.add_argument("--domain", default="0..1", metavar="A..B",
                        help="havoc domain for --oracle (inclusive range)")
    parser.add_argument("--report", choices=("json", "text"), default="json")
    parser.add_argument("--dump-graphs", action="store_true",
                        help="print the lowered program graphs and exit")
    parser.add_argument("--bench", action="store_true",
                        help="treat FILE as a benchmark manifest and run the harness")
    parser.add_argument("--repetitions", type=int, default=10, metavar="R",
                        help="repetitions per --bench instance")
    return parser


def _parse_domain(text: str) -> Optional[List[int]]:
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        return None
    if hi < lo:
        return None
    return list(range(lo, hi + 1))


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0

    if args.bench:
        return _run_bench(args)

    try:
        with open(args.file) as handle:
            source = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    try:
        loaded = frontend.load(source)
    except frontend.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if args.dump_graphs:
        for name, lowered in loaded.programs.items():
            observed = frozenset().union(*lowered.labels.values()) if lowered.labels else frozenset()
            print(graphs.dump(lowered.graph, observed))
            print()
        gen = driver.generalize(loaded)
        for side in (gen.universal, gen.existential):
            if side is not None and side.origin is not None:
                print(graphs.dump(side.graph, side.observed))
                print()
        return 0

    if args.oracle:
        domain = _parse_domain(args.domain)
        if domain is None:
            print(f"error: bad domain {args.domain!r}, expected A..B", file=sys.stderr)
            return 3
        result = concrete.oracle_check(driver.oracle_quantifiers(loaded),
                                       loaded.spec.body, args.max_observations,
                                       domain, args.step_budget)
        if args.report == "json":
            print(json.dumps({"verdict": result.verdict, "k": result.k}, indent=2))
        else:
            print(f"oracle: {result.verdict}"
                  + (f" at k={result.k}" if result.k is not None else ""))
        return {"holds": 0, "violated": 1, "inconclusive": 2}[result.verdict]

    opts = driver.SearchOptions(
        solver_argv=smt.resolve_solver(args.solver),
        step_budget=args.step_budget,
        query_timeout_ms=args.timeout_ms,
        feas_timeout_ms=args.feas_timeout_ms,
        emit_smt_dir=args.emit_smt,
    )
    gen = driver.generalize(loaded)
    search = driver.lazy_search if args.algorithm == "lazy" else driver.naive_search
    result = search(gen, args.max_observations, opts)

    if args.report == "json":
        print(json.dumps(driver.report_dict(result), indent=2))
    else:
        _print_text_report(result)

    verdict = result.verdict
    if isinstance(verdict, driver.BugFound):
        return 1
    if isinstance(verdict, driver.NoBugUpTo):
        return 0
    return 2


def _print_text_report(result: driver.SearchResult) -> None:
    verdict = result.verdict
    stats = result.stats
    if isinstance(verdict, driver.BugFound):
        print(f"bug found at k={verdict.k} "
              f"(combinations={stats.combinations}, sat_calls={stats.sat_calls}, "
              f"wall={stats.wall_ms:.1f} ms)")
        if verdict.counterexample is not None:
            cex = verdict.counterexample
            print("counterexample (observed trace of the universal program):")
            for loc, mem in cex.concrete_observed:
                values = ", ".join(f"{k}={v}" for k, v in sorted(mem.items()))
                print(f"  at {loc}: {values}")
            if cex.model:
                print("model: " + ", ".join(f"{k}={v}" for k, v in sorted(cex.model.items())))
    elif isinstance(verdict, driver.NoBugUpTo):
        print(f"no bug up to {verdict.n} observations "
              f"(combinations={stats.combinations}, sat_calls={stats.sat_calls}, "
              f"wall={stats.wall_ms:.1f} ms)")
    else:
        reason = f"{verdict.reason}: {verdict.detail}" if verdict.detail else verdict.reason
        print(f"inconclusive ({reason}) (wall={stats.wall_ms:.1f} ms)")


def _run_bench(args) -> int:
    opts = driver.SearchOptions(
        solver_argv=smt.resolve_solver(args.solver),
        step_budget=args.step_budget,
        query_timeout_ms=args.timeout_ms,
        feas_timeout_ms=args.feas_timeout_ms,
    )
    try:
        rows = driver.bench(args.file, opts, default_repetitions=args.repetitions)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.report == "json":
        print(json.dumps([row.__dict__ for row in rows], indent=2))
    else:
        print(driver.bench_table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
