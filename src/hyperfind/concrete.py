"""Concrete trace semantics and a finite-domain brute-force oracle.

The oracle finitizes havoc over an explicit integer domain and enumerates
observed traces by breadth-first search, which makes it an independent
cross-check for the symbolic pipeline at desk scale. Observed traces are
canonical minimal prefixes: a trace is cut at its k-th observation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from . import logic
from .graph import Assign, Havoc, ProgramGraph, Skip, default_step_budget

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


@dataclass
class Enumeration:
    observed: Set[ObservedTrace]
    complete: bool
    # one full trace per observed projection, for replay-style checks
    witnesses: Dict[ObservedTrace, Tuple[StateKey, ...]]


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
    witnesses: Dict[ObservedTrace, Tuple[StateKey, ...]] = {}
    complete = True

    # Queue items: (loc, mem, observed prefix, full prefix, transitions used).
    # Two paths reaching the same state with the same observation history
    # have identical futures, so they are merged (keeps havoc loops from
    # exploding before the depth budget cuts them off).
    start_obs: Tuple[StateKey, ...] = ()
    start_full = (freeze_state(*init),)
    if graph.initial in observed:
        start_obs = (freeze_state(*init),)
    queue = deque([(init[0], init[1], start_obs, start_full, 0)])
    visited = {(freeze_state(*init), start_obs)}
    while queue:
        loc, mem, obs_prefix, full_prefix, depth = queue.popleft()
        if len(obs_prefix) == k:
            if obs_prefix not in result:
                result.add(obs_prefix)
                witnesses[obs_prefix] = full_prefix
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
            queue.append((new_loc, new_mem, new_obs, full_prefix + (key,), depth + 1))

    return Enumeration(result, complete, witnesses)


# ---------------------------------------------------------------------------
# Oracle for the bounded semantics
# ---------------------------------------------------------------------------

@dataclass
class OracleQuantifier:
    kind: str  # "forall" | "exists"
    trace_var: str
    graph: ProgramGraph
    observed: FrozenSet[int]


@dataclass
class OracleResult:
    verdict: str  # "holds" | "violated" | "inconclusive"
    k: Optional[int] = None  # earliest violated bound
    witness: Optional[Dict[str, ObservedTrace]] = None  # universal prefix at failure


def _body_env(binding: Dict[str, ObservedTrace], index: int) -> Dict[str, int]:
    env: Dict[str, int] = {}
    for trace_var, trace in binding.items():
        _, mem_items = trace[index]
        for var, value in mem_items:
            env[f"{var}@{trace_var}"] = value
    return env


def check_at(quantifiers: Sequence[OracleQuantifier], body: logic.Formula, k: int,
             domain: Sequence[int],
             step_budget: Optional[int] = None) -> OracleResult:
    """Decide the bound-k semantics by direct quantifier expansion."""
    trace_sets: Dict[str, Enumeration] = {}
    for q in quantifiers:
        enum = enumerate_observed(q.graph, q.observed, k, domain, step_budget)
        if not enum.complete:
            return OracleResult("inconclusive")
        trace_sets[q.trace_var] = enum

    witness: Dict[str, ObservedTrace] = {}

    def recurse(i: int, binding: Dict[str, ObservedTrace]) -> bool:
        if i == len(quantifiers):
            return all(logic.eval_formula(body, _body_env(binding, j)) for j in range(k))
        q = quantifiers[i]
        traces = sorted(trace_sets[q.trace_var].observed)
        if q.kind == "forall":
            for trace in traces:
                binding[q.trace_var] = trace
                if not recurse(i + 1, binding):
                    witness.setdefault(q.trace_var, trace)
                    del binding[q.trace_var]
                    return False
                del binding[q.trace_var]
            return True
        for trace in traces:
            binding[q.trace_var] = trace
            if recurse(i + 1, binding):
                del binding[q.trace_var]
                return True
            del binding[q.trace_var]
        return False

    if recurse(0, {}):
        return OracleResult("holds", k=k)
    return OracleResult("violated", k=k, witness=dict(witness))


def oracle_check(quantifiers: Sequence[OracleQuantifier], body: logic.Formula,
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

@dataclass
class ReplayResult:
    ok: bool
    reason: str = ""


def replay(graph: ProgramGraph, observed: FrozenSet[int],
           full_trace: Sequence[Tuple[int, Memory]],
           claimed_observed: Optional[Sequence[Tuple[int, Memory]]] = None) -> ReplayResult:
    """Validate a claimed concrete trace against the transition semantics."""
    if not full_trace:
        return ReplayResult(False, "empty trace")
    loc0, mem0 = full_trace[0]
    if loc0 != graph.initial:
        return ReplayResult(False, f"trace does not start at the initial location "
                                   f"{graph.initial} (starts at {loc0})")
    if dict(mem0) != initial_memory(graph):
        return ReplayResult(False, "trace does not start in the all-zero initial memory")
    for i in range(len(full_trace) - 1):
        loc, mem = full_trace[i]
        nxt_loc, nxt_mem = full_trace[i + 1]
        if not _step_ok(graph, loc, dict(mem), nxt_loc, dict(nxt_mem)):
            return ReplayResult(False, f"no edge justifies step {i} -> {i + 1} "
                                       f"({loc} -> {nxt_loc})")
    if claimed_observed is not None:
        projection = [(loc, dict(mem)) for loc, mem in full_trace if loc in observed]
        claimed = [(loc, dict(mem)) for loc, mem in claimed_observed]
        if projection != claimed:
            return ReplayResult(False, "observed projection does not match the "
                                       "claimed observed trace")
    return ReplayResult(True)


def _step_ok(graph: ProgramGraph, loc: int, mem: Memory,
             nxt_loc: int, nxt_mem: Memory) -> bool:
    for edge in graph.out_edges(loc):
        if edge.dst != nxt_loc:
            continue
        if not logic.eval_formula(edge.guard, mem):
            continue
        if isinstance(edge.effect, Assign):
            expected = dict(mem)
            expected[edge.effect.target] = logic.eval_term(edge.effect.expr, mem)
            if expected == nxt_mem:
                return True
        elif isinstance(edge.effect, Havoc):
            expected = dict(mem)
            expected[edge.effect.target] = nxt_mem.get(edge.effect.target, 0)
            if expected == nxt_mem:
                return True
        else:
            if mem == nxt_mem:
                return True
    return False
