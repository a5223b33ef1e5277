"""Concrete trace semantics and a finite-domain brute-force oracle.

The oracle finitizes havoc over an explicit integer domain and enumerates
observed traces by breadth-first search, which makes it an independent
cross-check for the symbolic pipeline at desk scale: it checks the same
`graph.Quantifier`s that the search folds, in the order they are written.
Observed traces are canonical minimal prefixes: a trace is cut at its k-th
observation.

`step` is the one concrete transition function: the oracle expands states
with it, and `replay` accepts a counterexample's step only if `step` offers it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from . import logic
from .logic import Record
from .graph import Assign, Havoc, ProgramGraph, Quantifier, default_step_budget

Memory = Dict[str, int]
# Hashable snapshot of a state: (location, sorted memory items).
StateKey = Tuple[int, Tuple[Tuple[str, int], ...]]
ObservedTrace = Tuple[StateKey, ...]


def initial_memory(graph: ProgramGraph) -> Memory:
    return {v: 0 for v in graph.variables}


def freeze_state(loc: int, mem: Memory) -> StateKey:
    return (loc, tuple(sorted(mem.items())))


def step(graph: ProgramGraph, loc: int, mem: Memory,
         domain: Sequence[int]) -> List[Tuple[int, Memory]]:
    """All successor states; havoc branches once per domain value."""
    if not domain:
        raise ValueError("havoc domain must be nonempty")
    successors: List[Tuple[int, Memory]] = []
    for edge in graph.out_edges(loc):
        if not logic.eval_formula(edge.guard, mem):
            continue
        if isinstance(edge.effect, Assign):
            new = dict(mem)
            new[edge.effect.target] = logic.eval_term(edge.effect.expr, mem)
            successors.append((edge.dst, new))
        elif isinstance(edge.effect, Havoc):
            for value in domain:
                new = dict(mem)
                new[edge.effect.target] = value
                successors.append((edge.dst, new))
        else:  # Skip
            successors.append((edge.dst, dict(mem)))
    return successors


class Enumeration(Record):
    __slots__ = ("observed", "complete")  # observed: a set of observed traces


def enumerate_observed(graph: ProgramGraph, observed: FrozenSet[int], k: int,
                       domain: Sequence[int],
                       step_budget: Optional[int] = None) -> Enumeration:
    """All observed traces of length exactly k reachable within the budget.

    The budget bounds the transition depth of explored full traces; if any
    unfinished trace is cut off by it, the result is flagged incomplete.
    """
    if k < 1:
        raise ValueError("observation count must be >= 1")
    if step_budget is None:
        step_budget = default_step_budget(graph, k)
    if step_budget < 1:
        raise ValueError("step budget must be >= 1")

    init = (graph.initial, initial_memory(graph))
    result: Set[ObservedTrace] = set()
    complete = True

    # Queue items: (loc, mem, observed prefix, transitions used).
    # Two paths reaching the same state with the same observation history
    # have identical futures, so they are merged (keeps havoc loops from
    # exploding before the depth budget cuts them off).
    start_obs: Tuple[StateKey, ...] = ()
    if graph.initial in observed:
        start_obs = (freeze_state(*init),)
    queue = deque([(init[0], init[1], start_obs, 0)])
    visited = {(freeze_state(*init), start_obs)}
    while queue:
        loc, mem, obs_prefix, depth = queue.popleft()
        if len(obs_prefix) == k:
            result.add(obs_prefix)
            continue
        if depth >= step_budget:
            complete = False
            continue
        for new_loc, new_mem in step(graph, loc, mem, domain):
            key = freeze_state(new_loc, new_mem)
            new_obs = obs_prefix + (key,) if new_loc in observed else obs_prefix
            if (key, new_obs) in visited:
                continue
            visited.add((key, new_obs))
            queue.append((new_loc, new_mem, new_obs, depth + 1))

    return Enumeration(result, complete)


# ---------------------------------------------------------------------------
# Oracle for the bounded semantics
# ---------------------------------------------------------------------------

class OracleResult(Record):
    # verdict: "holds" | "violated" | "inconclusive"; k: the earliest violated bound
    __slots__ = ("verdict", "k")
    _defaults = {"k": None}


def _fragments(trace_var: str, trace: ObservedTrace) -> List[Dict[str, int]]:
    """Per index of `trace`, its memory under the body's names `var@trace_var`."""
    return [{f"{var}@{trace_var}": value for var, value in mem_items}
            for _, mem_items in trace]


def check_at(quantifiers: Sequence[Quantifier], body: logic.Formula, k: int,
             domain: Sequence[int],
             step_budget: Optional[int] = None) -> OracleResult:
    """Decide the bound-k semantics by direct quantifier expansion."""
    # Each quantifier's traces, sorted once, as their per-index fragments
    # of the body's environment.
    trace_sets: List[List[List[Dict[str, int]]]] = []
    for q in quantifiers:
        enum = enumerate_observed(q.graph, q.observed, k, domain, step_budget)
        if not enum.complete:
            return OracleResult("inconclusive")
        trace_sets.append([_fragments(q.trace_var, trace) for trace in sorted(enum.observed)])
    # The body's environment at each index. Every trace of a quantifier
    # has the same names, so binding one overwrites the last one's values.
    envs: List[Dict[str, int]] = [{} for _ in range(k)]
    holds = logic.evaluator(body)  # compiled once: it runs per tuple and index

    def recurse(i: int) -> bool:
        if i == len(quantifiers):
            return all(map(holds, envs))
        # A false instance settles a forall, a true one an exists.
        settles = quantifiers[i].kind != "forall"
        for fragments in trace_sets[i]:
            for env, fragment in zip(envs, fragments):
                env.update(fragment)
            if recurse(i + 1) == settles:
                return settles
        return not settles

    if recurse(0):
        return OracleResult("holds", k=k)
    return OracleResult("violated", k=k)


def oracle_check(quantifiers: Sequence[Quantifier], body: logic.Formula,
                 k: int, domain: Sequence[int],
                 step_budget: Optional[int] = None) -> OracleResult:
    """Decide the upper-bounded semantics for all bounds up to k.

    Returns the earliest violated bound, `holds` when every bound from 1
    to k holds, or `inconclusive` when enumeration hits its budget.
    """
    for bound in range(1, k + 1):
        result = check_at(quantifiers, body, bound, domain, step_budget)
        if result.verdict != "holds":
            return result
    return OracleResult("holds", k=k)


# ---------------------------------------------------------------------------
# Counterexample replay
# ---------------------------------------------------------------------------

def replay(graph: ProgramGraph, observed: FrozenSet[int],
           full_trace: Sequence[Tuple[int, Memory]],
           claimed_observed: Sequence[Tuple[int, Memory]]) -> Optional[str]:
    """Why a claimed concrete trace is not a run of the graph whose observed
    projection is `claimed_observed`, or None when it is."""
    if not full_trace:
        return "empty trace"
    loc0, mem0 = full_trace[0]
    if loc0 != graph.initial:
        return (f"trace does not start at the initial location "
                f"{graph.initial} (starts at {loc0})")
    if dict(mem0) != initial_memory(graph):
        return "trace does not start in the all-zero initial memory"
    for i, ((loc, mem), (nxt_loc, nxt_mem)) in enumerate(zip(full_trace, full_trace[1:])):
        nxt = (nxt_loc, dict(nxt_mem))
        # Any value a havoc took is one the next memory holds, so offer those.
        if nxt not in step(graph, loc, dict(mem), list(nxt[1].values()) or [0]):
            return f"no edge justifies step {i} -> {i + 1} ({loc} -> {nxt_loc})"
    projection = [(loc, dict(mem)) for loc, mem in full_trace if loc in observed]
    if projection != [(loc, dict(mem)) for loc, mem in claimed_observed]:
        return "observed projection does not match the claimed observed trace"
    return None
