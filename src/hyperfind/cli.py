"""Command-line interface.

Exit codes: 0 no bug up to the bound, 1 bug found, 2 inconclusive (also
when the solver fails or a counterexample does not replay), 3 usage or
parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import concrete, driver, frontend, graph as graphs, smt


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperfind",
        description="Detect violations of forall/exists safety hyperproperties "
                    "of imperative programs by symbolic execution.")
    parser.add_argument("file", help="input file (program definitions + specification), "
                                     "or a JSON manifest with --bench")
    parser.add_argument("--algorithm", choices=("lazy", "naive"), default="lazy")
    parser.add_argument("--max-observations", type=_int_at_least(1),
                        default=driver.DEFAULT_MAX_OBSERVATIONS, metavar="N")
    parser.add_argument("--step-budget", type=_int_at_least(1), default=None, metavar="N")
    parser.add_argument("--solver", default=None, metavar="PATH",
                        help="SMT solver binary, run as a child process that a "
                             "timeout kills (default: yices-smt2/z3/cvc5 from PATH, "
                             "else the bundled reference solver in this process, "
                             "with a cooperative timeout; "
                             "--solver $(command -v hyperfind-smt) runs it as a child)")
    parser.add_argument("--timeout-ms", type=_int_at_least(0),
                        default=smt.DEFAULT_QUERY_TIMEOUT_MS,
                        metavar="N", help="per-query solver timeout")
    parser.add_argument("--feas-timeout-ms", type=_int_at_least(0),
                        default=smt.DEFAULT_FEASIBILITY_TIMEOUT_MS, metavar="N",
                        help="per-feasibility-check solver timeout")
    parser.add_argument("--emit-smt", default=None, metavar="DIR",
                        help="dump every query into DIR before solving it, "
                             "its provenance in a leading comment (a query "
                             "decided without the solver names its witness)")
    parser.add_argument("--oracle", action="store_true",
                        help="run the finite-domain concrete oracle instead of "
                             "the symbolic search")
    parser.add_argument("--domain", default="0..1", metavar="A..B",
                        help="havoc domain for --oracle (inclusive range, "
                             f"at most {MAX_DOMAIN_VALUES} values)")
    parser.add_argument("--report", choices=("json", "text"), default="json")
    parser.add_argument("--dump-graphs", action="store_true",
                        help="print the lowered program graphs and exit")
    parser.add_argument("--bench", action="store_true",
                        help="treat FILE as a benchmark manifest and run the harness")
    parser.add_argument("--repetitions", type=_int_at_least(1),
                        default=driver.DEFAULT_REPETITIONS, metavar="R",
                        help="repetitions per --bench instance")
    return parser


# The oracle enumerates every domain value at each havoc, so its work grows
# with a power of the domain's size: 100 values check `voting_buggy.hyp` at
# two observations in about a second, 1,000 values run past two minutes, and
# a domain of 2e9 values could never finish. Wider domains are rejected.
MAX_DOMAIN_VALUES = 100


def _parse_domain(text: str) -> Optional[range]:
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        return None
    if hi < lo:
        return None
    return range(lo, hi + 1)


def main(argv: Optional[List[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # Python 3.11+ caps int/str conversion at 4,300 digits; literals,
        # models and reports here may have any number of digits.
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0

    if args.bench:
        return _run_bench(args)

    try:
        with open(args.file, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnicodeDecodeError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 3

    try:
        loaded = frontend.load(source)
    except frontend.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if args.dump_graphs:
        try:
            for name, lowered in loaded.programs.items():
                observed = frozenset().union(*lowered.labels.values()) if lowered.labels else frozenset()
                print(graphs.dump(lowered.graph, observed))
                print()
            gen = driver.generalize(loaded)
            for side in (gen.universal, gen.existential):
                # A side that is not one of the written quantifiers is a product.
                if side is not None and side not in loaded.quantifiers:
                    print(graphs.dump(side.graph, side.observed))
                    print()
        except RecursionError:
            # `graphs.dump` formats terms recursively, once per nesting level.
            print("error: input nests too deeply to print "
                  "(Python's recursion limit was exceeded)", file=sys.stderr)
            return 3
        return 0

    if args.oracle:
        domain = _parse_domain(args.domain)
        if domain is None:
            print(f"error: bad domain {args.domain!r}, expected A..B", file=sys.stderr)
            return 3
        if len(domain) > MAX_DOMAIN_VALUES:
            print(f"error: domain {args.domain!r} has {len(domain)} values; the oracle "
                  f"enumerates each of them, so at most {MAX_DOMAIN_VALUES} are allowed",
                  file=sys.stderr)
            return 3
        result = concrete.oracle_check(loaded.quantifiers, loaded.body,
                                       args.max_observations, domain, args.step_budget)
        if args.report == "json":
            print(json.dumps({"verdict": result.verdict, "k": result.k}, indent=2))
        else:
            print(f"oracle: {result.verdict}"
                  + (f" at k={result.k}" if result.k is not None else ""))
        return {"holds": 0, "violated": 1, "inconclusive": 2}[result.verdict]

    if args.emit_smt:
        try:
            os.makedirs(args.emit_smt, exist_ok=True)
        except OSError as exc:
            print(f"error: --emit-smt: {exc}", file=sys.stderr)
            return 3
    gen = driver.generalize(loaded)
    search = driver.lazy_search if args.algorithm == "lazy" else driver.naive_search
    result = search(gen, args.max_observations, _search_options(args, args.emit_smt))

    if args.report == "json":
        print(json.dumps(driver.report_dict(result), indent=2))
    else:
        _print_text_report(result)
    return {"no-bug": 0, "bug-found": 1, "inconclusive": 2}[
        driver.verdict_name(result.verdict)[0]]


def _search_options(args, emit_smt_dir: Optional[str] = None) -> driver.SearchOptions:
    return driver.SearchOptions(
        solver_argv=smt.resolve_solver(args.solver),
        step_budget=args.step_budget,
        query_timeout_ms=args.timeout_ms,
        feas_timeout_ms=args.feas_timeout_ms,
        emit_smt_dir=emit_smt_dir,
    )


def _print_text_report(result: driver.SearchResult) -> None:
    verdict = result.verdict
    stats = result.stats
    if isinstance(verdict, driver.BugFound):
        print(f"bug found at k={verdict.k} "
              f"(combinations={stats.combinations}, sat_calls={stats.sat_calls}, "
              f"decided={stats.decided}, "
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
              f"decided={stats.decided}, "
              f"wall={stats.wall_ms:.1f} ms)")
    else:
        reason = f"{verdict.reason}: {verdict.detail}" if verdict.detail else verdict.reason
        print(f"inconclusive ({reason}) (wall={stats.wall_ms:.1f} ms)")


def _run_bench(args) -> int:
    try:
        rows = driver.bench(args.file, _search_options(args),
                            default_repetitions=args.repetitions)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # not UTF-8, not JSON, or not a list of objects
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 3
    if args.report == "json":
        print(json.dumps([row.__dict__ for row in rows], indent=2))
    else:
        print(driver.bench_table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
