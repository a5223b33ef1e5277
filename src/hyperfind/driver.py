"""Top-level search algorithms and the benchmark harness.

`generalize` reduces a forall+/exists* prefix of `graph.Quantifier`s to at
most one quantifier per kind. A block of one quantifier passes through as
it is; a longer block becomes one quantifier, named `a&b` after its trace
variables, over the asynchronous product of its programs (component
variables get their trace variable as a prefix, and the invariant body is
rewritten accordingly). `lazy_search` streams universal symbolic traces
and asks, per trace, whether some instantiation admits no matching
existential trace; the first satisfiable query yields a concrete,
replay-validated counterexample. Before it asks, it looks for a witness
(`encode.ExistentialSide.witness`): an existential trace whose path is
proved satisfiable and whose body instances all fold to true under the
universal memory. Such a trace matches the universal trace on every
input, so the query is unsat: it is counted as decided
(`SearchStats.decided`) and never sent, though `--emit-smt` still writes
it, its provenance naming the witness. The instances come from the
side's per-bound memo, keyed by the universal trace's images, which the
queries sent read too. `naive_search` checks, per bound, the
negated closed encoding instead: the disjunction of every universal
trace's lazy query under an exists, which has no witness to report.

Both searches raise the bound k = 1..n and take each bound's traces from
one `symexec.Walk` per distinct side, made once per search: a memoized
symbolic execution tree that each bound searches breadth-first afresh,
extending only the nodes no earlier bound reached. The existential side
uses the universal side's walk when both range over the same program and
observation set (see `_walks`, the one place that decides it). Each side
still reads each bound from its own stream of its walk: a shared walk is
searched once per bound, and the second stream replays the list the walk
kept of the first (`symexec.ObserveStream`). Each search builds one
`encode.ExistentialSide` and prepares it at every bound from that bound's
existential traces. The side carries its work from one bound to the next:
each existential trace's classes come from its ancestor at the bound
before, and each universal trace's witness candidates from its ancestor's
(see `encode`). The lazy search counts a bound's combinations from its
existential trace count, so counting builds no block.

A search that runs out of memory or is interrupted (KeyboardInterrupt)
ends as `Inconclusive("memory" | "interrupted")`, its detail naming the
last bound checked to the end.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import concrete, encode, frontend, graph as graphs, logic, smt, symexec
from .frontend import LoadedSpec
from .graph import Quantifier
from .logic import Formula, Record
from .symexec import Feasibility, FreshSupply, SymTrace


# The defaults of the CLI and the benchmark harness: the bound on
# observations of a search, and the repetitions of a manifest instance.
DEFAULT_MAX_OBSERVATIONS = 10
DEFAULT_REPETITIONS = 10


class GeneralizedSpec(Record):
    __slots__ = ("universal", "existential", "body")  # existential may be None


def generalize(loaded: LoadedSpec) -> GeneralizedSpec:
    """Fold each quantifier block into a single program via products."""
    universals = [q for q in loaded.quantifiers if q.kind == "forall"]
    existentials = [q for q in loaded.quantifiers if q.kind == "exists"]
    if not universals:
        raise ValueError("specification has no universal quantifier")

    body = loaded.body
    sides = []
    for block in (universals, existentials):
        if len(block) < 2:
            sides.append(block[0] if block else None)
            continue
        graph = graphs.rename_vars(block[0].graph, block[0].trace_var)
        observed = block[0].observed
        for q in block[1:]:
            product = graphs.async_product(
                graph, observed, graphs.rename_vars(q.graph, q.trace_var), q.observed)
            graph, observed = product.graph, product.observed
        block_var = "&".join(q.trace_var for q in block)
        sigma = {}
        for name in logic.free_vars(body):
            var, trace = name.rsplit("@", 1)
            if any(q.trace_var == trace for q in block):
                sigma[name] = logic.Var(f"{trace}.{var}@{block_var}")
        body = logic.substitute(body, sigma)
        sides.append(Quantifier(block[0].kind, block_var, graph, observed))

    return GeneralizedSpec(universal=sides[0], existential=sides[1], body=body)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

class Counterexample(Record):
    # The model, the concrete full and observed traces of the universal
    # program as (location, memory) pairs, and the "no matching trace" part.
    __slots__ = ("model", "concrete_full", "concrete_observed", "explanation")


class BugFound(Record):
    __slots__ = ("k", "counterexample")  # counterexample is None for naive search


class NoBugUpTo(Record):
    __slots__ = ("n",)


class Inconclusive(Record):
    # reason: "budget" | "solver-unknown" | "solver-error" (the solver failed
    # twice in a row) | "replay-failed" (a model did not replay on the
    # program) | "recursion-limit" (a term nests deeper than Python's
    # recursion limit) | "memory" (Python ran out of memory) | "interrupted"
    # (KeyboardInterrupt, as on SIGINT)
    __slots__ = ("reason", "detail")
    _defaults = {"detail": ""}


Verdict = Union[BugFound, NoBugUpTo, Inconclusive]


class SearchStats(Record):
    # combinations: (universal trace, existential trace) pairs examined;
    # sat_calls: lazy/naive queries sent to the solver; decided: lazy queries
    # answered (unsat) without the solver; checked: the last bound whose
    # check ran to the end
    __slots__ = ("combinations", "sat_calls", "decided", "feasibility_calls", "wall_ms",
                 "checked")
    _defaults = dict(combinations=0, sat_calls=0, decided=0, feasibility_calls=0,
                     wall_ms=0.0, checked=0)


class SearchResult(Record):
    __slots__ = ("verdict", "stats")


class SearchOptions(Record):
    # domain: (lo, hi), embedded as finite-domain constraints
    __slots__ = ("solver_argv", "step_budget", "node_budget", "query_timeout_ms",
                 "feas_timeout_ms", "emit_smt_dir", "domain")
    _defaults = dict(solver_argv=None, step_budget=None,
                     node_budget=symexec.DEFAULT_NODE_BUDGET,
                     query_timeout_ms=smt.DEFAULT_QUERY_TIMEOUT_MS,
                     feas_timeout_ms=smt.DEFAULT_FEASIBILITY_TIMEOUT_MS,
                     emit_smt_dir=None, domain=None)


def _emit_query(opts: SearchOptions, name: str, formula: Formula,
                wanted: Sequence[str], provenance: str) -> None:
    """Write the query as a standalone script, its provenance in a leading
    comment line."""
    if not opts.emit_smt_dir:
        return
    os.makedirs(opts.emit_smt_dir, exist_ok=True)
    path = os.path.join(opts.emit_smt_dir, name)
    with open(path, "w") as handle:
        handle.write(f"; {provenance}\n" + smt.query_script(formula, wanted))


def _walks(gen: GeneralizedSpec, n: int, supply: FreshSupply, feas: Feasibility,
           opts: SearchOptions):
    """One walk per distinct side, for bounds 1..n: the existential side
    shares the universal side's walk when both range over the same program
    and observation set."""
    def walk(side: Quantifier) -> symexec.Walk:
        return symexec.Walk(side.graph, side.observed, n, supply, feas,
                            opts.step_budget, opts.node_budget)

    universal = walk(gen.universal)
    existential = None
    if gen.existential is not None:
        same = ((gen.existential.graph, gen.existential.observed)
                == (gen.universal.graph, gen.universal.observed))
        existential = universal if same else walk(gen.existential)
    return universal, existential


def _materialize(walk: symexec.Walk, k: int):
    stream = walk.stream(k)
    return list(stream), stream.incomplete


def _run(search, gen: GeneralizedSpec, n: int,
         opts: Optional[SearchOptions]) -> SearchResult:
    """Give `search` one solver, time it, and end a failed solver, a
    search out of memory and an interrupted one in a verdict."""
    if n < 1:
        raise ValueError(f"the bound on observations must be at least 1, got {n}")
    opts = opts or SearchOptions()
    stats = SearchStats()
    started = time.perf_counter()
    solver = smt.Solver(opts.solver_argv, opts.query_timeout_ms)
    feas = Feasibility(solver, opts.feas_timeout_ms)
    try:
        verdict = search(gen, n, opts, solver, feas, stats)
    except smt.SolverError as exc:
        verdict = Inconclusive("solver-error", str(exc))
    except RecursionError as exc:
        # A term nested deeper than the recursion limit: the term walks
        # recurse once per nesting level.
        verdict = Inconclusive("recursion-limit", f"a term nests too deeply: {exc}")
    except (MemoryError, KeyboardInterrupt) as exc:
        # What was proved so far still stands: name the bounds checked.
        reason, stopped = (("memory", "ran out of memory") if isinstance(exc, MemoryError)
                           else ("interrupted", "was interrupted"))
        checked = (f"bounds up to k={stats.checked} were checked to the end"
                   if stats.checked else "no bound was checked to the end")
        verdict = Inconclusive(reason, f"bound {stats.checked + 1} {stopped}; {checked}")
    finally:
        stats.wall_ms = (time.perf_counter() - started) * 1000.0
        solver.close()
    stats.feasibility_calls = feas.solver_calls
    return SearchResult(verdict, stats)


def lazy_search(gen: GeneralizedSpec, n: int,
                opts: Optional[SearchOptions] = None) -> SearchResult:
    return _run(_lazy, gen, n, opts)


def naive_search(gen: GeneralizedSpec, n: int,
                 opts: Optional[SearchOptions] = None) -> SearchResult:
    return _run(_naive, gen, n, opts)


def _existential_traces(walk: Optional[symexec.Walk],
                        k: int) -> Optional[List[SymTrace]]:
    """Bound k's existential traces, none without an existential side; None
    when a budget cut them short. The "no matching trace" part must be
    complete for any query at this or any larger bound to be trustworthy."""
    if walk is None:
        return []
    etraces, incomplete = _materialize(walk, k)
    return None if incomplete else etraces


def _lazy(gen: GeneralizedSpec, n: int, opts: SearchOptions, solver: smt.Solver,
          feas: Feasibility, stats: SearchStats) -> Verdict:
    universal_walk, existential_walk = _walks(gen, n, FreshSupply(), feas, opts)
    existential = encode.ExistentialSide(
        gen.universal.trace_var, gen.existential and gen.existential.trace_var,
        gen.body, opts.domain)
    budget_seen = False
    unknown_seen = False
    for k in range(1, n + 1):
        etraces = _existential_traces(existential_walk, k)
        if etraces is None:
            return Inconclusive("budget")
        existential.prepare(k, etraces)
        stream = universal_walk.stream(k)
        index = 0
        for trace in stream:
            index += 1
            stats.combinations += max(1, len(existential.classes))
            witness = existential.witness(trace, feas)
            if witness is not None:
                # The query is unsat: no solver check. A dump still writes
                # it, naming the witness, so the decision can be re-checked.
                stats.decided += 1
                if not opts.emit_smt_dir:
                    continue
            query = encode.lazy_query(trace, existential)
            if opts.emit_smt_dir:
                decided = ("" if witness is None else f" decided: existential trace "
                           f"{witness + 1} matches on every input")
                _emit_query(opts, f"query_k{k}_{index:04d}.smt2", query.formula,
                            query.free_vars, f"k={k} universal-trace={index}{decided}")
            if witness is not None:
                continue
            stats.sat_calls += 1
            result = solver.check(query.formula, query.free_vars)
            if isinstance(result, smt.Sat):
                return _counterexample_verdict(gen, k, trace, result.model, query)
            if isinstance(result, smt.Unknown):
                unknown_seen = True
        if stream.incomplete:
            budget_seen = True
        stats.checked = k
    if budget_seen:
        return Inconclusive("budget")
    if unknown_seen:
        return Inconclusive("solver-unknown")
    return NoBugUpTo(n)


def _naive(gen: GeneralizedSpec, n: int, opts: SearchOptions, solver: smt.Solver,
           feas: Feasibility, stats: SearchStats) -> Verdict:
    universal_walk, existential_walk = _walks(gen, n, FreshSupply(), feas, opts)
    existential = encode.ExistentialSide(
        gen.universal.trace_var, gen.existential and gen.existential.trace_var,
        gen.body, opts.domain)
    unknown_seen = False
    for k in range(1, n + 1):
        utraces, u_incomplete = _materialize(universal_walk, k)
        if u_incomplete:
            return Inconclusive("budget")
        etraces = _existential_traces(existential_walk, k)
        if etraces is None:
            return Inconclusive("budget")
        existential.prepare(k, etraces)
        # The negated closed encoding: some universal trace has an
        # instantiation that no existential trace matches.
        query = logic.disj(
            logic.exists(trace.free_vars(), encode.lazy_query(trace, existential).formula)
            for trace in utraces)
        _emit_query(opts, f"naive_k{k}.smt2", query, (), f"naive k={k}")
        stats.sat_calls += 1
        stats.combinations += 1
        result = solver.check(query)
        if isinstance(result, smt.Sat):
            # The query is closed, so there is no model to report.
            return BugFound(k, None)
        if isinstance(result, smt.Unknown):
            unknown_seen = True
        stats.checked = k
    if unknown_seen:
        return Inconclusive("solver-unknown")
    return NoBugUpTo(n)


def _counterexample_verdict(gen: GeneralizedSpec, k: int, trace: SymTrace,
                            model: Dict[str, int],
                            query: encode.EncodedQuery) -> Verdict:
    """BugFound with the model's concrete trace, if that trace replays."""
    full = symexec.concretize(trace.states, model)
    observed = symexec.concretize(trace.observed, model)
    reason = concrete.replay(gen.universal.graph, gen.universal.observed, full, observed)
    if reason is not None:
        return Inconclusive("replay-failed", reason)
    return BugFound(k, Counterexample(
        model={name: model[name] for name in query.free_vars},
        concrete_full=full,
        concrete_observed=observed,
        explanation=query.explanation,
    ))


# ---------------------------------------------------------------------------
# Whole-file entry points
# ---------------------------------------------------------------------------

def analyze_source(source: str, n: int = DEFAULT_MAX_OBSERVATIONS,
                   algorithm: str = "lazy",
                   opts: Optional[SearchOptions] = None) -> SearchResult:
    loaded = frontend.load(source)
    gen = generalize(loaded)
    if algorithm == "naive":
        return naive_search(gen, n, opts)
    if algorithm == "lazy":
        return lazy_search(gen, n, opts)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def verdict_name(verdict: Verdict) -> Tuple[str, Optional[int]]:
    """The verdict's name in reports, and its bound: the bound a bug was
    found at, or the bound checked without one."""
    if isinstance(verdict, BugFound):
        return "bug-found", verdict.k
    if isinstance(verdict, NoBugUpTo):
        return "no-bug", verdict.n
    return "inconclusive", None


def report_dict(result: SearchResult) -> dict:
    verdict = result.verdict
    name, k = verdict_name(verdict)
    out = {
        "verdict": name,
        "k": k,
        "counterexample": None,
        "stats": {
            "combinations": result.stats.combinations,
            "sat_calls": result.stats.sat_calls,
            "decided": result.stats.decided,
            "feasibility_calls": result.stats.feasibility_calls,
            "wall_ms": round(result.stats.wall_ms, 3),
        },
    }
    if isinstance(verdict, BugFound) and verdict.counterexample is not None:
        cex = verdict.counterexample
        out["counterexample"] = {
            "observed_trace": [
                {"location": loc, "memory": mem} for loc, mem in cex.concrete_observed
            ],
            "full_trace": [
                {"location": loc, "memory": mem} for loc, mem in cex.concrete_full
            ],
            "model": cex.model,
            "explanation_smt": smt.formula_to_smt(cex.explanation),
        }
    elif isinstance(verdict, Inconclusive):
        out["reason"] = verdict.reason
        if verdict.detail:
            out["detail"] = verdict.detail
        out["checked"] = result.stats.checked  # the last bound checked to the end
    return out


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------

class BenchRow(Record):
    # No __slots__: `row.__dict__` is the row, for the JSON report.
    _fields = ("name", "verdict", "k", "combinations", "median_wall_ms", "error")
    _defaults = {"error": None}


def bench(manifest_path: str, opts: Optional[SearchOptions] = None,
          default_repetitions: int = DEFAULT_REPETITIONS) -> List[BenchRow]:
    import json
    import statistics

    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not (isinstance(manifest, list) and all(isinstance(entry, dict) for entry in manifest)):
        raise ValueError("a manifest is a JSON list of objects")
    base = os.path.dirname(os.path.abspath(manifest_path))
    rows: List[BenchRow] = []
    for entry in manifest:
        name = entry.get("name", entry.get("file", "?"))
        try:
            path = entry["file"]
            if not os.path.isabs(path):
                path = os.path.join(base, path)
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            n = int(entry.get("max_observations", DEFAULT_MAX_OBSERVATIONS))
            reps = int(entry.get("repetitions", default_repetitions))
            for field, value in (("max_observations", n), ("repetitions", reps)):
                if value < 1:
                    raise ValueError(f"{field} must be at least 1, got {value}")
            walls = []
            last: Optional[SearchResult] = None
            for _ in range(reps):
                last = analyze_source(source, n=n, opts=opts)
                if isinstance(last.verdict, Inconclusive) and last.verdict.reason == "interrupted":
                    raise KeyboardInterrupt  # the user stops the harness, not one search
                walls.append(last.stats.wall_ms)
            label, k = verdict_name(last.verdict)
            if isinstance(last.verdict, Inconclusive):
                label += f":{last.verdict.reason}"
            rows.append(BenchRow(name, label, k, last.stats.combinations,
                                 statistics.median(walls)))
        except Exception as exc:  # per-instance isolation: never abort the harness
            rows.append(BenchRow(name, "error", None, None, None, error=str(exc)))
    return rows


def bench_table(rows: Sequence[BenchRow]) -> str:
    header = f"{'instance':<28} {'verdict':<22} {'k':>4} {'combinations':>13} {'median ms':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        if row.error is not None:
            lines.append(f"{row.name:<28} {'error':<22} {'-':>4} {'-':>13} {'-':>10}  {row.error}")
            continue
        k = "-" if row.k is None else str(row.k)
        combos = "-" if row.combinations is None else str(row.combinations)
        wall = "-" if row.median_wall_ms is None else f"{row.median_wall_ms:.1f}"
        lines.append(f"{row.name:<28} {row.verdict:<22} {k:>4} {combos:>13} {wall:>10}")
    return "\n".join(lines)
