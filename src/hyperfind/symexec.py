"""Symbolic interpreter: trace extension, observed-trace streaming, and
concretization.

Exploration is breadth-first over transition depth with declaration-order
tie-breaking, so shallow witnesses are found first and trace counts are
reproducible. Paths whose feasibility the solver cannot settle (unknown)
are kept: dropping a possibly feasible path could mask a counterexample.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from . import logic, smt
from .graph import Assign, Havoc, ProgramGraph, default_step_budget
from .logic import Formula, Term, Var


class FreshSupply:
    """Generates v!0, v!1, ... — names disjoint from any parsed identifier."""

    def __init__(self):
        self.counter = 0

    def fresh(self) -> str:
        name = f"v!{self.counter}"
        self.counter += 1
        return name


def fresh_var_index(name: str) -> int:
    return int(name.rsplit("!", 1)[1])


@dataclass(frozen=True)
class SymState:
    loc: int
    path: Formula
    mem: Tuple[Tuple[str, Term], ...]  # sorted (variable, term) pairs

    def memory(self) -> Dict[str, Term]:
        return dict(self.mem)


def make_state(loc: int, path: Formula, mem: Dict[str, Term]) -> SymState:
    return SymState(loc, path, tuple(sorted(mem.items())))


def initial_state(graph: ProgramGraph) -> SymState:
    return make_state(graph.initial, logic.TRUE, {v: logic.IntLit(0) for v in graph.variables})


@dataclass(frozen=True)
class SymTrace:
    """A symbolic trace ending at its latest observation.

    `states` is the full unprojected trace (needed for replaying
    counterexamples); `observed` is its projection onto the observation
    set. Whenever the trace is complete up to its k-th observation, the
    last full state is the k-th observed state, so path(observed) equals
    path(states).
    """
    states: Tuple[SymState, ...]
    observed: Tuple[SymState, ...]

    @property
    def path(self) -> Formula:
        return self.states[-1].path

    def free_vars(self) -> Tuple[str, ...]:
        seen = set(logic.free_vars(self.path))
        # A term a step leaves unchanged is the same object in the next
        # state, so walk each term object once.
        terms = {id(term): term for state in self.states for _, term in state.mem}
        for term in terms.values():
            seen |= logic.free_vars(term)
        return tuple(sorted(seen, key=fresh_var_index))


def _trivially_sat(formula: Formula) -> bool:
    """Syntactic satisfiability for the common path shapes.

    A conjunction is satisfiable outright when its conjuncts mention
    pairwise-disjoint variable sets and each conjunct is a comparison (or a
    negated comparison) over at most two distinct variables and literals:
    every such atom has an integer solution on its own. Anything else goes
    to the solver.
    """
    def atom_ok(f: Formula) -> bool:
        if isinstance(f, logic.Not):
            return atom_ok(f.arg)
        if not isinstance(f, logic.Cmp):
            return False
        sides = (f.left, f.right)
        if not all(isinstance(s, (logic.Var, logic.IntLit)) for s in sides):
            return False
        if (isinstance(f.left, logic.Var) and isinstance(f.right, logic.Var)
                and f.left.name == f.right.name):
            return False  # x op x may be unsatisfiable
        return True

    if isinstance(formula, logic.BoolLit):
        return formula.value
    conjuncts = formula.args if isinstance(formula, logic.And) else (formula,)
    seen: set = set()
    for part in conjuncts:
        if not atom_ok(part):
            return False
        fv = logic.free_vars(part)
        if fv & seen:
            return False
        seen |= fv
    return True


class Feasibility:
    """Path feasibility on the search's solver.

    Trivially satisfiable paths (see `_trivially_sat`) are admitted without
    a solver round trip; everything else is one scoped check, cut off after
    `timeout_ms` by the session's deadline. `solver_calls` counts the checks
    that reached the solver.
    """

    def __init__(self, solver: smt.Solver,
                 timeout_ms: int = smt.DEFAULT_FEASIBILITY_TIMEOUT_MS):
        self.solver = solver
        self.timeout_ms = timeout_ms
        self.solver_calls = 0

    def check(self, formula: Formula) -> smt.SatResult:
        if _trivially_sat(formula):
            return smt.Sat({})
        self.solver_calls += 1
        return self.solver.check(formula, timeout_ms=self.timeout_ms)


def extend(graph: ProgramGraph, states: Tuple[SymState, ...], supply: FreshSupply,
           feasibility: Feasibility) -> List[Tuple[SymState, ...]]:
    """All feasible one-step extensions of a symbolic trace."""
    last = states[-1]
    mem = last.memory()
    out: List[Tuple[SymState, ...]] = []
    for edge in graph.out_edges(last.loc):
        guard = logic.substitute(edge.guard, mem)
        path = logic.conj([last.path, guard])
        if isinstance(path, logic.BoolLit):
            if not path.value:
                continue  # infeasible outright
        elif guard != logic.TRUE:
            # A true guard leaves the path unchanged, and the path was
            # already known satisfiable when its trace was admitted.
            verdict = feasibility.check(path)
            if isinstance(verdict, smt.Unsat):
                continue
            # Sat and Unknown both proceed; see module docstring.
        if isinstance(edge.effect, Assign):
            new_mem = dict(mem)
            new_mem[edge.effect.target] = logic.substitute(edge.effect.expr, mem)
        elif isinstance(edge.effect, Havoc):
            new_mem = dict(mem)
            new_mem[edge.effect.target] = Var(supply.fresh())
        else:
            new_mem = mem
        out.append(states + (make_state(edge.dst, path, new_mem),))
    return out


DEFAULT_NODE_BUDGET = 2_000_000


class ObserveStream:
    """Streaming enumeration of the observed symbolic traces with n
    observations, in breadth-first order.

    Iterate to consume; after exhaustion, `incomplete` tells whether a
    budget cut off unexplored extensions (the non-finitely-observable
    case). `step_budget` bounds trace length; `node_budget` bounds total
    explored prefixes, a safety valve against graphs whose breadth explodes
    long before the depth budget bites.
    """

    def __init__(self, graph: ProgramGraph, observed: FrozenSet[int], n: int,
                 supply: FreshSupply, feasibility: Feasibility,
                 step_budget: Optional[int] = None,
                 node_budget: Optional[int] = DEFAULT_NODE_BUDGET):
        if n < 1:
            raise ValueError("observation count must be >= 1")
        self.graph = graph
        self.observed = observed
        self.n = n
        self.supply = supply
        self.feasibility = feasibility
        self.step_budget = step_budget if step_budget is not None \
            else default_step_budget(graph, n)
        self.node_budget = node_budget
        self.incomplete = False

    def __iter__(self) -> Iterator[SymTrace]:
        init = initial_state(self.graph)
        start_obs: Tuple[SymState, ...] = (init,) if init.loc in self.observed else ()
        queue = deque([((init,), start_obs)])
        popped = 0
        while queue:
            states, obs = queue.popleft()
            popped += 1
            if self.node_budget is not None and popped > self.node_budget:
                self.incomplete = True
                break
            if len(obs) == self.n:
                yield SymTrace(states, obs)
                continue
            if len(states) - 1 >= self.step_budget:
                self.incomplete = True
                continue
            for ext in extend(self.graph, states, self.supply, self.feasibility):
                new_state = ext[-1]
                new_obs = obs + (new_state,) if new_state.loc in self.observed else obs
                queue.append((ext, new_obs))


def observe(graph: ProgramGraph, observed: FrozenSet[int], n: int,
            supply: FreshSupply, feasibility: Feasibility,
            step_budget: Optional[int] = None,
            node_budget: Optional[int] = DEFAULT_NODE_BUDGET) -> ObserveStream:
    return ObserveStream(graph, observed, n, supply, feasibility,
                         step_budget, node_budget)


def concretize(states: Sequence[SymState],
               rho: Dict[str, int]) -> List[Tuple[int, Dict[str, int]]]:
    """Instantiate the symbolic memory of every state under rho."""
    return [(state.loc, {var: logic.eval_term(term, rho) for var, term in state.mem})
            for state in states]
