"""Symbolic interpreter: trace extension, observed-trace streaming, and
concretization.

Exploration is breadth-first over transition depth with declaration-order
tie-breaking, so shallow witnesses are found first and trace counts are
reproducible. A search walks each side's tree once (`Walk`) and reads each
bound's traces from that walk (`ObserveStream`), instead of restarting the
exploration at every bound; both sides share one walk when they range over
the same program and observation set. Per bound, the traces, their order
and the budget verdicts are those of a fresh breadth-first search. Paths
whose feasibility the solver cannot settle (unknown) are kept: dropping a
possibly feasible path could mask a counterexample.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
        # Cached: a side that both quantifiers share hands the same trace
        # objects to both.
        cached = self.__dict__.get("_free_vars")
        if cached is not None:
            return cached
        seen = set(logic.free_vars(self.path))
        # A term a step leaves unchanged is the same object in the next
        # state, so walk each term object once.
        terms = {id(term): term for state in self.states for _, term in state.mem}
        for term in terms.values():
            seen |= logic.free_vars(term)
        cached = self.__dict__["_free_vars"] = tuple(sorted(seen, key=fresh_var_index))
        return cached


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


class Walk:
    """One breadth-first walk of a program's symbolic execution tree, shared
    by the bounds 1..n of a search.

    A node is a trace prefix with its observed states. Bound j's tree holds
    the initial node and, within bound j's step budget, every child of a
    tree node with fewer than j observations; a fresh bound-j search would
    visit exactly that tree. The walk visits the union of these trees once,
    level by level in edge order, so its creation order restricted to bound
    j's tree is the fresh search's visiting order. Bound j's traces are its
    tree nodes that end at their j-th observation, in creation order; they
    are recorded when their node is created.

    The budgets stay per bound: bound j counts its own tree nodes and is cut
    (`incomplete[j]`) at node `node_budget + 1`, and a node with fewer than
    j observations at bound j's depth limit makes bound j incomplete too.
    Bound j is complete once no queued node still has to be extended for it.
    The walk advances only when a stream asks for a trace it has not made.
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
        self.first = 1  # bounds below it are released
        self.supply = supply
        self.feasibility = feasibility
        self.node_budget = node_budget
        # Nondecreasing in the bound, so the bounds whose tree holds a node,
        # or extends it, are an interval.
        self.step_budgets = [step_budget if step_budget is not None
                             else default_step_budget(graph, j) for j in range(n + 1)]
        self.traces: List[Optional[List[SymTrace]]] = [[] for _ in range(n + 1)]
        # Trees nest, so bound j's node count is the number of nodes whose
        # interval of bounds starts at or below j, and the node budget cuts
        # the largest trees first: the bounds from `live` up are cut.
        self.starts = [0] * (n + 2)
        self.live = n + 1
        self.top = 0  # nodes of bound live - 1's tree
        self.pending = [0] * (n + 2)  # queued nodes, by the first bound that extends them
        self.incomplete = [False] * (n + 1)
        self.queue: deque = deque()
        init = initial_state(graph)
        self._admit([((init,), (init,) if init.loc in observed else ())], 0, 0)

    def _admit(self, nodes: List[Tuple[Tuple[SymState, ...], Tuple[SymState, ...]]],
               parent_obs: int, depth: int) -> None:
        """Count new nodes, (states, observed) pairs at `depth` whose parent
        has `parent_obs` observations, in the trees of the bounds that hold
        them; record each as a trace or queue it for extension where those
        bounds need it."""
        # The bounds from `start` up hold these nodes; those from
        # `extendable` up let a node at this depth be extended.
        start = max(parent_obs + 1, self.first, bisect_left(self.step_budgets, depth))
        extendable = bisect_right(self.step_budgets, depth)
        for states, obs in nodes:
            if start >= self.live:
                return
            self.starts[start] += 1
            self.top += 1
            while self.node_budget is not None and self.top > self.node_budget:
                self.live -= 1  # bound live - 1 has one node too many: cut it
                self.incomplete[self.live] = True
                self.top = sum(self.starts[:self.live])
            if start >= self.live:
                return
            count = len(obs)
            if count == start:
                self.traces[start].append(SymTrace(states, obs))
            short = max(start, count + 1)  # first bound it has too few observations for
            extended = max(short, extendable)
            for j in range(short, min(extended, self.live)):
                self.incomplete[j] = True  # the node is at bound j's depth limit
            if extended < self.live:
                self.pending[extended] += 1
                self.queue.append((states, obs, extended))

    def _advance(self) -> None:
        """Extend the oldest queued node."""
        states, obs, extended = self.queue.popleft()
        self.pending[extended] -= 1
        children = []
        for ext in extend(self.graph, states, self.supply, self.feasibility):
            new_state = ext[-1]
            children.append((ext, obs + (new_state,) if new_state.loc in self.observed
                             else obs))
        self._admit(children, len(obs), len(states))

    def complete(self, j: int) -> bool:
        return j >= self.live or not any(self.pending[:j + 1])

    def stream(self, j: int) -> "ObserveStream":
        """Bound j's traces. Bounds below j are released: a search asks for
        its bounds in increasing order."""
        if not self.first <= j <= self.n:
            raise ValueError(f"bound {j} is not tracked by this walk")
        for lower in range(self.first, j):
            self.traces[lower] = None
        self.first = j
        return ObserveStream(self, j)


class ObserveStream:
    """Streaming enumeration of the observed symbolic traces with n
    observations, in breadth-first order: bound n's view of a `Walk`.

    Iterate to consume; after exhaustion, `incomplete` tells whether a
    budget cut off unexplored extensions (the non-finitely-observable
    case). The walk's `step_budget` bounds trace length; its `node_budget`
    bounds the explored prefixes of each bound, a safety valve against
    graphs whose breadth explodes long before the depth budget bites.
    """

    def __init__(self, walk: Walk, n: int):
        self.walk = walk
        self.n = n
        self.incomplete = False

    def __iter__(self) -> Iterator[SymTrace]:
        walk, n = self.walk, self.n
        traces = walk.traces[n]
        index = 0
        while True:
            while index < len(traces):
                yield traces[index]
                index += 1
            if walk.complete(n):
                break
            walk._advance()
        self.incomplete = walk.incomplete[n]


def observe(graph: ProgramGraph, observed: FrozenSet[int], n: int,
            supply: FreshSupply, feasibility: Feasibility,
            step_budget: Optional[int] = None,
            node_budget: Optional[int] = DEFAULT_NODE_BUDGET) -> ObserveStream:
    """The traces with n observations alone."""
    return Walk(graph, observed, n, supply, feasibility, step_budget,
                node_budget).stream(n)


def concretize(states: Sequence[SymState],
               rho: Dict[str, int]) -> List[Tuple[int, Dict[str, int]]]:
    """Instantiate the symbolic memory of every state under rho."""
    return [(state.loc, {var: logic.eval_term(term, rho) for var, term in state.mem})
            for state in states]
