"""Top-level search algorithms and the benchmark harness.

`generalize` reduces a forall+/exists* prefix to at most one quantifier per
kind by folding the asynchronous product over each block (component
variables get their trace variable as a prefix, and the invariant body is
rewritten accordingly). `lazy_search` streams universal symbolic traces
and asks, per trace, whether some instantiation admits no matching
existential trace; the first satisfiable query yields a concrete,
replay-validated counterexample. `naive_search` checks the negation of
the full closed encoding instead and therefore produces no witness.

The searches are single-threaded, but the per-trace queries of the inner
loop are mutually independent and all shared data (graphs, traces,
formulas) is immutable, so the loop could be distributed across solver
processes without redesign.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from . import concrete, encode, frontend, graph as graphs, logic, smt, symexec
from .frontend import LoadedSpec
from .graph import ProgramGraph
from .logic import Formula
from .symexec import Feasibility, FreshSupply, SymTrace


@dataclass
class QuantSide:
    trace_var: str
    graph: ProgramGraph
    observed: FrozenSet[int]
    origin: Optional[Dict[int, tuple]] = None  # product location metadata


@dataclass
class GeneralizedSpec:
    universal: QuantSide
    existential: Optional[QuantSide]
    body: Formula


def generalize(loaded: LoadedSpec) -> GeneralizedSpec:
    """Fold each quantifier block into a single program via products."""
    quants = loaded.spec.quantifiers
    universals = [q for q in quants if q.kind == "forall"]
    existentials = [q for q in quants if q.kind == "exists"]
    if not universals:
        raise ValueError("specification has no universal quantifier")

    body = loaded.spec.body
    sides = []
    for block in (universals, existentials):
        if not block:
            sides.append(None)
            continue
        if len(block) == 1:
            q = block[0]
            sides.append(QuantSide(q.trace_var, loaded.quantifier_graph(q),
                                   loaded.quantifier_obs(q)))
            continue
        parts = []
        for q in block:
            renamed = graphs.rename_vars(loaded.quantifier_graph(q), q.trace_var)
            parts.append((renamed, loaded.quantifier_obs(q)))
        cur_graph, cur_obs = parts[0]
        origin = None
        for nxt_graph, nxt_obs in parts[1:]:
            product = graphs.async_product(cur_graph, cur_obs, nxt_graph, nxt_obs)
            cur_graph, cur_obs = product.graph, product.observed
            origin = product.origin
        block_var = "&".join(q.trace_var for q in block)
        sigma = {}
        for name in logic.free_vars(body):
            var, trace = name.rsplit("@", 1)
            if any(q.trace_var == trace for q in block):
                sigma[name] = logic.Var(f"{trace}.{var}@{block_var}")
        body = logic.substitute(body, sigma)
        sides.append(QuantSide(block_var, cur_graph, cur_obs, origin))

    return GeneralizedSpec(universal=sides[0], existential=sides[1], body=body)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass
class Counterexample:
    k: int
    universal_trace: SymTrace
    model: Dict[str, int]
    concrete_full: List[Tuple[int, Dict[str, int]]]
    concrete_observed: List[Tuple[int, Dict[str, int]]]
    explanation: Formula


@dataclass
class BugFound:
    k: int
    counterexample: Optional[Counterexample]


@dataclass
class NoBugUpTo:
    n: int


@dataclass
class Inconclusive:
    # "budget" | "solver-unknown" | "solver-error" (the solver failed twice
    # in a row) | "replay-failed" (a model did not replay on the program)
    reason: str
    detail: str = ""


Verdict = Union[BugFound, NoBugUpTo, Inconclusive]


@dataclass
class SearchStats:
    combinations: int = 0  # (universal trace, existential trace) pairs examined
    sat_calls: int = 0     # lazy/naive queries issued
    feasibility_calls: int = 0
    wall_ms: float = 0.0


@dataclass
class SearchResult:
    verdict: Verdict
    stats: SearchStats


@dataclass
class SearchOptions:
    solver_argv: Optional[Sequence[str]] = None
    step_budget: Optional[int] = None
    node_budget: Optional[int] = symexec.DEFAULT_NODE_BUDGET
    query_timeout_ms: int = smt.DEFAULT_QUERY_TIMEOUT_MS
    feas_timeout_ms: int = smt.DEFAULT_FEASIBILITY_TIMEOUT_MS
    emit_smt_dir: Optional[str] = None
    domain: Optional[Tuple[int, int]] = None  # embed finite-domain constraints


def _emit_query(opts: SearchOptions, name: str, formula: Formula,
                wanted: Sequence[str]) -> None:
    if not opts.emit_smt_dir:
        return
    os.makedirs(opts.emit_smt_dir, exist_ok=True)
    path = os.path.join(opts.emit_smt_dir, name)
    with open(path, "w") as handle:
        handle.write(smt.query_script(formula, wanted))


def _materialize(side: QuantSide, k: int, supply: FreshSupply, feas: Feasibility,
                 opts: SearchOptions):
    stream = symexec.observe(side.graph, side.observed, k, supply, feas,
                             opts.step_budget, opts.node_budget)
    return list(stream), stream.incomplete


def _run(search, gen: GeneralizedSpec, n: int,
         opts: Optional[SearchOptions]) -> SearchResult:
    """Give `search` one solver, time it, and end a failed solver in a verdict."""
    opts = opts or SearchOptions()
    stats = SearchStats()
    started = time.perf_counter()
    solver = smt.Solver(opts.solver_argv, opts.query_timeout_ms)
    feas = Feasibility(solver, opts.feas_timeout_ms)
    try:
        verdict = search(gen, n, opts, solver, feas, stats)
    except smt.SolverError as exc:
        verdict = Inconclusive("solver-error", str(exc))
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


def _lazy(gen: GeneralizedSpec, n: int, opts: SearchOptions, solver: smt.Solver,
          feas: Feasibility, stats: SearchStats) -> Verdict:
    supply = FreshSupply()
    budget_seen = False
    unknown_seen = False
    for k in range(1, n + 1):
        etraces: List[SymTrace] = []
        if gen.existential is not None:
            etraces, incomplete = _materialize(gen.existential, k, supply, feas, opts)
            if incomplete:
                # The "no matching trace" side must be complete for any
                # query at this or any larger bound to be trustworthy.
                return Inconclusive("budget")

        stream = symexec.observe(gen.universal.graph, gen.universal.observed,
                                 k, supply, feas, opts.step_budget,
                                 opts.node_budget)
        index = 0
        for trace in stream:
            index += 1
            query = encode.lazy_query(
                trace, gen.universal.trace_var,
                gen.existential.trace_var if gen.existential else None,
                etraces, gen.body, k, domain=opts.domain,
                provenance=f"k={k} universal-trace={index}")
            _emit_query(opts, f"query_k{k}_{index:04d}.smt2",
                        query.formula, query.free_vars)
            stats.sat_calls += 1
            stats.combinations += max(1, len(etraces)) if gen.existential else 1
            result = solver.check(query.formula, query.free_vars)
            if isinstance(result, smt.Sat):
                return _counterexample_verdict(gen, k, trace, result.model, query)
            if isinstance(result, smt.Unknown):
                unknown_seen = True
        if stream.incomplete:
            budget_seen = True
    if budget_seen:
        return Inconclusive("budget")
    if unknown_seen:
        return Inconclusive("solver-unknown")
    return NoBugUpTo(n)


def _naive(gen: GeneralizedSpec, n: int, opts: SearchOptions, solver: smt.Solver,
           feas: Feasibility, stats: SearchStats) -> Verdict:
    supply = FreshSupply()
    unknown_seen = False
    for k in range(1, n + 1):
        utraces, u_incomplete = _materialize(gen.universal, k, supply, feas, opts)
        if u_incomplete:
            return Inconclusive("budget")
        quantified = [encode.QuantifiedTraces("forall", gen.universal.trace_var,
                                              tuple(utraces))]
        if gen.existential is not None:
            etraces, e_incomplete = _materialize(gen.existential, k, supply, feas, opts)
            if e_incomplete:
                return Inconclusive("budget")
            quantified.append(encode.QuantifiedTraces(
                "exists", gen.existential.trace_var, tuple(etraces)))
        encoding = encode.encode(quantified, gen.body, k, domain=opts.domain)
        negated = logic.negate(encoding)
        _emit_query(opts, f"naive_k{k}.smt2", negated, ())
        stats.sat_calls += 1
        stats.combinations += 1
        result = solver.check(negated)
        if isinstance(result, smt.Sat):
            # The encoding is closed, so there is no model to report.
            return BugFound(k, None)
        if isinstance(result, smt.Unknown):
            unknown_seen = True
    if unknown_seen:
        return Inconclusive("solver-unknown")
    return NoBugUpTo(n)


def _counterexample_verdict(gen: GeneralizedSpec, k: int, trace: SymTrace,
                            model: Dict[str, int],
                            query: encode.EncodedQuery) -> Verdict:
    """BugFound with the model's concrete trace, if that trace replays."""
    rho = dict(model)
    for name in query.free_vars:
        rho.setdefault(name, 0)
    full = symexec.concretize(trace.states, rho)
    observed = symexec.concretize(trace.observed, rho)
    replayed = concrete.replay(gen.universal.graph, gen.universal.observed,
                               full, observed)
    if not replayed.ok:
        return Inconclusive("replay-failed", replayed.reason)
    return BugFound(k, Counterexample(
        k=k,
        universal_trace=trace,
        model={name: rho[name] for name in query.free_vars},
        concrete_full=full,
        concrete_observed=observed,
        explanation=query.explanation,
    ))


# ---------------------------------------------------------------------------
# Whole-file entry points
# ---------------------------------------------------------------------------

def analyze_source(source: str, n: int = 10, algorithm: str = "lazy",
                   opts: Optional[SearchOptions] = None) -> SearchResult:
    loaded = frontend.load(source)
    gen = generalize(loaded)
    if algorithm == "naive":
        return naive_search(gen, n, opts)
    if algorithm == "lazy":
        return lazy_search(gen, n, opts)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def oracle_quantifiers(loaded: LoadedSpec) -> List[concrete.OracleQuantifier]:
    return [
        concrete.OracleQuantifier(q.kind, q.trace_var,
                                  loaded.quantifier_graph(q),
                                  loaded.quantifier_obs(q))
        for q in loaded.spec.quantifiers
    ]


def oracle_source(source: str, k: int, domain: Sequence[int],
                  step_budget: Optional[int] = None) -> concrete.OracleResult:
    loaded = frontend.load(source)
    return concrete.oracle_check(oracle_quantifiers(loaded), loaded.spec.body,
                                 k, domain, step_budget)


def report_dict(result: SearchResult) -> dict:
    verdict = result.verdict
    out = {
        "verdict": None,
        "k": None,
        "counterexample": None,
        "stats": {
            "combinations": result.stats.combinations,
            "sat_calls": result.stats.sat_calls,
            "wall_ms": round(result.stats.wall_ms, 3),
        },
    }
    if isinstance(verdict, BugFound):
        out["verdict"] = "bug-found"
        out["k"] = verdict.k
        if verdict.counterexample is not None:
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
    elif isinstance(verdict, NoBugUpTo):
        out["verdict"] = "no-bug"
        out["k"] = verdict.n
    else:
        out["verdict"] = "inconclusive"
        out["reason"] = verdict.reason
        if verdict.detail:
            out["detail"] = verdict.detail
    return out


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------

@dataclass
class BenchRow:
    name: str
    verdict: str
    k: Optional[int]
    combinations: Optional[int]
    median_wall_ms: Optional[float]
    error: Optional[str] = None


def bench(manifest_path: str, opts: Optional[SearchOptions] = None,
          default_repetitions: int = 10) -> List[BenchRow]:
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    base = os.path.dirname(os.path.abspath(manifest_path))
    rows: List[BenchRow] = []
    for entry in manifest:
        name = entry.get("name", entry.get("file", "?"))
        try:
            path = entry["file"]
            if not os.path.isabs(path):
                path = os.path.join(base, path)
            with open(path) as handle:
                source = handle.read()
            n = int(entry.get("max_observations", 10))
            reps = int(entry.get("repetitions", default_repetitions))
            walls = []
            last: Optional[SearchResult] = None
            for _ in range(max(reps, 1)):
                last = analyze_source(source, n=n, opts=opts)
                walls.append(last.stats.wall_ms)
            verdict = last.verdict
            if isinstance(verdict, BugFound):
                rows.append(BenchRow(name, "bug-found", verdict.k,
                                     last.stats.combinations,
                                     statistics.median(walls)))
            elif isinstance(verdict, NoBugUpTo):
                rows.append(BenchRow(name, "no-bug", verdict.n,
                                     last.stats.combinations,
                                     statistics.median(walls)))
            else:
                rows.append(BenchRow(name, f"inconclusive:{verdict.reason}", None,
                                     last.stats.combinations,
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
