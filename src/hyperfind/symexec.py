"""Symbolic interpreter: trace extension, observed-trace streaming, and
concretization.

A search keeps each side's symbolic execution tree in one `Walk`, which
extends each node at most once. A node is a straight run of steps: its own
step, then every step out of a location that is unobserved and has one
step, unguarded and no havoc (the large-block encoding of Beyer et al.,
FMCAD 2009), so the tree branches only where execution forks, havocs or is
observed. Each bound's traces are read from the tree by a fresh
breadth-first search over its nodes, with declaration-order tie-breaking
(`ObserveStream`), so shallow witnesses are found first and trace counts
are reproducible. The walk owns a bound's list: it keeps the traces of the
last bound searched to the end, and replays them to a second stream of
that bound. So both sides share one walk when they range over the same
program and observation set, and each reads the bound's traces from its
own stream, though the tree is searched once.
A node links to its parent, whose states it shares (the copy-on-write
state sharing of KLEE, Cadar et al., OSDI 2008), so an extension copies no
trace: `extend`, called once per node extended, takes its last state and
returns each child's state, whether its path was answered (not unknown)
and its havoc's fresh name; a child's run builds only its last state
(`Walk`). Paths whose feasibility the solver cannot settle (unknown) are
kept: dropping a possibly feasible path could mask a counterexample.

An extension does not interpret the program's syntax trees. Each graph
compiles its out-edges once, on first use, into steps whose guard and
assigned value are closures over a memory (`ProgramGraph.steps`,
`logic.substituter`), so a step costs one call per guard and value. A
state's memory is a dict that nothing mutates once a state holds it
(`SymState`). The walk numbers each node as it makes it and keeps a node's
children in its tree at that number, not on the node: a child already
links to its parent, and a link back would make every parent and child a
reference cycle, which only the cycle collector frees, so the search's
memory would peak higher. A node finds its ancestor at the bound before
(`SymTrace.previous`) along its parent links.

A path is a conjunction, and most of its conjuncts bound one variable
each, such as the guards of a countdown loop (`n > 0`, `n - 1 > 0`, ...).
`Feasibility` settles such a path from per-variable integer bounds and
asks the solver only about the other shapes. It reads each conjunct in
the bundled solver's linear normal form (`logic.comparison`), so `2x <= 5`
bounds x by 2 and `2x = 1` is false. Each state holds its path's `Facts`
(as KLEE's states hold their constraint sets): a child's path is its
parent's conjuncts followed by its guard's, so its facts are its parent's
with only the guard folded in, and a child along a true guard or no guard
shares its parent's path and facts. A search reads each guard conjunct
once, and a countdown of depth d costs d reads, not d * d / 2. `extend`
asks `Feasibility.check`, which reads a path whole, only about a path that
its facts leave open.

Each node records whether its path is *proved* satisfiable: the root's
path is true; a child extended along a true guard keeps its parent's path
object and its parent's proof, as each step of a run does; any other child
is proved when its parent is and its path was answered `Sat`, by its facts
or by the solver. An unknown answer leaves the node and every descendant
unproved. The lazy search decides a universal trace without the solver
only through a proved existential path (see `encode`).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from . import logic, smt
from .graph import Assign, Havoc, ProgramGraph, default_step_budget
from .logic import Formula, FrozenRecord, Record, Term, Var, set_field


class FreshSupply:
    """Generates v!0, v!1, ... — names disjoint from any parsed identifier."""

    def __init__(self):
        self.counter = 0

    def fresh(self) -> str:
        name = f"v!{self.counter}"
        self.counter += 1
        return name


class SymState(FrozenRecord):
    """A location, the path that reaches it, and the symbolic memory there.

    `memory` maps each program variable to its term. It is never mutated
    after the state is made, so states share it: a skip step's state holds
    its parent's dict, an assignment or a havoc copies it, and a run copies
    it once. `mem`, the sorted (variable, term) pairs, is derived on
    demand; it stands for the memory in the repr and equality. `facts` are
    the path's `Facts`; they take no part in the repr or equality.
    """

    __slots__ = ("loc", "path", "memory", "facts")
    _fields = ("loc", "path", "mem")

    def __init__(self, loc: int, path: Formula, memory: Dict[str, Term], facts: Facts):
        set_field(self, "loc", loc)
        set_field(self, "path", path)
        set_field(self, "memory", memory)
        set_field(self, "facts", facts)

    @property
    def mem(self) -> Tuple[Tuple[str, Term], ...]:
        return tuple(sorted(self.memory.items()))


def initial_state(graph: ProgramGraph) -> SymState:
    return SymState(graph.initial, logic.TRUE, {v: logic.IntLit(0) for v in graph.variables},
                    _NO_FACTS)


class SymTrace(FrozenRecord):
    """A symbolic trace ending at its latest observation: a node of the
    symbolic execution tree, which stores only its own step and run.

    A node holds its parent, its last state, its run as the graph, the
    state its own step reached and the run's length (`run`, None without
    one), its projection onto the observation set (`observed`), its depth
    in transitions and its own step's havoc's fresh name, if any. `states`,
    the full unprojected trace (needed for replaying counterexamples), is
    read off the parent chain, each run stepped again. Whenever the trace
    is complete up to its k-th observation, the last full state is the k-th
    observed state, so path(observed) equals path(states). `proved` tells
    whether the path is proved satisfiable (see the module docstring), and
    `number` is the node's index in its walk's tree; they take no part in
    the repr or equality.
    """

    __slots__ = ("parent", "state", "observed", "proved", "depth", "fresh", "run", "number")
    _fields = ("states", "observed")

    def __init__(self, parent: Optional["SymTrace"], state: SymState,
                 observed: Tuple[SymState, ...], proved: bool, fresh: Optional[str],
                 number: int, run: Optional[Tuple[ProgramGraph, SymState, int]] = None):
        set_field(self, "parent", parent)
        set_field(self, "state", state)
        set_field(self, "observed", observed)
        set_field(self, "proved", proved)
        set_field(self, "depth", 0 if parent is None else parent.depth + 1 + (run[2] if run else 0))
        set_field(self, "fresh", fresh)
        set_field(self, "run", run)
        set_field(self, "number", number)

    @property
    def path(self) -> Formula:
        return self.state.path

    @property
    def previous(self) -> Optional["SymTrace"]:
        """The node of the trace's previous observation, its ancestor at
        the bound before; None for a trace of one observation or none."""
        count, found, node = len(self.observed) - 1, None, self.parent
        while count > 0 and node is not None and len(node.observed) >= count:
            if len(node.observed) == count:
                found = node
            node = node.parent
        return found

    @property
    def states(self) -> Tuple[SymState, ...]:
        states, node = [], self
        while node is not None:
            states.append(node.state)
            if node.run is not None:  # stepped again; its last state is the node's
                graph, state, length = node.run
                run = [state]
                for _ in range(length - 1):
                    (loc, _, kind, target, expr), = graph.steps(state.loc)
                    state = SymState(loc, state.path, _effect(state.memory, kind, target, expr),
                                     state.facts)
                    run.append(state)
                states.extend(reversed(run))
            node = node.parent
        return tuple(reversed(states))

    def free_vars(self) -> Tuple[str, ...]:
        """The fresh variables of the path and memories, in index order: the
        havoc names of the chain's nodes, root first (each `v!N` comes from a
        havoc on the path, and the supply only counts up)."""
        names, node = [], self
        while node is not None:
            if node.fresh is not None:
                names.append(node.fresh)
            node = node.parent
        return tuple(reversed(names))


def _read(part: Formula) -> Optional[Tuple[tuple, Dict[str, int]]]:
    """A conjunct's atom in `logic`'s linear normal form, and the
    coefficients read from its terms (`logic.comparison`); None unless it is
    a comparison, or a negated one, between linear terms (no div or mod)."""
    negated = False
    while isinstance(part, logic.Not):
        part, negated = part.arg, not negated
    if not isinstance(part, logic.Cmp):
        return None
    try:
        return logic.comparison(logic.COMPLEMENT[part.op] if negated else part.op,
                                part.left, part.right)
    except ValueError:
        return None


class Facts(Record):
    """What the conjuncts of a path, read in order, tell about its
    feasibility; never changed, so that the paths extending it share it.

    `bounds` maps each variable of a one-variable conjunct to its interval
    and removed points, (lo, hi, frozenset); `paired` holds the variables
    of the difference atoms. `empty` tells whether some interval has no
    point left, and `ask` whether the bounds cannot settle the path: a
    difference atom shares a variable with another conjunct.
    """

    __slots__ = ("bounds", "paired", "empty", "ask")

    def __init__(self, bounds: Dict[str, tuple], paired: FrozenSet[str], empty: bool,
                 ask: bool):
        self.bounds = bounds
        self.paired = paired
        self.empty = empty
        self.ask = ask


_NO_FACTS = Facts({}, frozenset(), False, False)
# The facts after a conjunct that settles the path on its own, whatever
# follows: one that `_read` cannot read asks the solver, a false ground one
# is unsat.
_UNREADABLE = Facts({}, frozenset(), False, True)
_FALSE = Facts({}, frozenset(), True, False)
_UNBOUNDED = (-math.inf, math.inf, frozenset())


def _fold(facts: Facts, parts: Sequence[Formula]) -> Facts:
    """`facts` with the conjuncts `parts` read after them, in order.

    A one-variable atom `c * x + k op 0` has c = 1 or -1 once normalized:
    it bounds x by the point -c * k, or removes that point. An interval is
    empty when its bounds cross or, finite, it has every point removed; a
    false conjunct with a variable empties the path's. A difference atom
    `x - y + k op 0` has a solution on its own, so it may stand beside the
    bounds while x and y occur in no other conjunct. A false ground
    conjunct, or one of any other shape, settles the path (`_FALSE`,
    `_UNREADABLE`).
    """
    if facts is _UNREADABLE or facts is _FALSE:
        return facts
    bounds, paired, empty, ask = facts.bounds, facts.paired, facts.empty, facts.ask
    copied = False
    for part in parts:
        read = _read(part)
        if read is None:
            return _UNREADABLE
        node, names = read
        if node[0] == "true":
            continue
        if node[0] == "false":
            if not any(names.values()):
                return _FALSE
            empty = True  # no point satisfies it, such as `2 * x = 1`
            continue
        tag, lin = node
        coeffs = lin.coeffs
        if len(coeffs) == 1:
            (x, c), = coeffs.items()
            point = -c * lin.const
            if not copied:
                bounds, copied = dict(bounds), True
            lo, hi, removed = bounds.get(x, _UNBOUNDED)
            if tag == "ne":
                removed = removed | {point}
            if tag == "eq" or tag == "le" and c > 0:
                hi = min(hi, point)
            if tag == "eq" or tag == "le" and c < 0:
                lo = max(lo, point)
            bounds[x] = (lo, hi, removed)
            empty = empty or lo > hi or (len(removed) > hi - lo
                                         and sum(lo <= p <= hi for p in removed) > hi - lo)
            ask = ask or x in paired
        elif len(coeffs) == 2 and sorted(coeffs.values()) == [-1, 1]:
            pair = tuple(coeffs)
            ask = (ask or not paired.isdisjoint(pair)
                   or pair[0] in bounds or pair[1] in bounds)
            paired = paired.union(pair)
        else:
            return _UNREADABLE
    return Facts(bounds, paired, empty, ask)


def _verdict(facts: Facts) -> Optional[smt.SatResult]:
    """`Sat` or `Unsat` for a path whose facts decide it, None to ask the
    solver."""
    if facts.empty:
        return smt.Unsat()
    return None if facts.ask else smt.Sat({})


class Feasibility:
    """Path feasibility on the search's solver.

    A path that its `Facts` decide is answered `Sat` or `Unsat` without a
    solver round trip (after the constraint independence of KLEE, Cadar et
    al., OSDI 2008), and that `Sat` proves it as the solver's would; every
    other path is one scoped check, cut off after `timeout_ms` by the
    session's deadline. `solver_calls` counts the checks that reached the
    solver. `check` reads a path whole; `extend` folds only each guard
    into the facts its state holds, and asks `check` only about the paths
    those facts leave open.
    """

    def __init__(self, solver: smt.Solver,
                 timeout_ms: int = smt.DEFAULT_FEASIBILITY_TIMEOUT_MS):
        self.solver = solver
        self.timeout_ms = timeout_ms
        self.solver_calls = 0

    def check(self, formula: Formula) -> smt.SatResult:
        if isinstance(formula, logic.BoolLit):
            return smt.Sat({}) if formula.value else smt.Unsat()
        verdict = _verdict(_fold(_NO_FACTS, logic.conjuncts(formula)))
        if verdict is not None:
            return verdict
        self.solver_calls += 1
        return self.solver.check(formula, timeout_ms=self.timeout_ms)


def extend(graph: ProgramGraph, last: SymState, supply: FreshSupply,
           feasibility: Feasibility) -> List[Tuple[SymState, bool, Optional[str]]]:
    """All feasible one-step extensions of a symbolic trace that ends in
    `last`: per extension, its state, false when the solver left its path
    unknown, and the fresh name its havoc introduced, or None."""
    mem = last.memory
    out: List[Tuple[SymState, bool, Optional[str]]] = []
    for dst, guard, kind, target, expr in graph.steps(last.loc):
        path, facts, known = last.path, last.facts, True
        if guard is not None:
            guard = guard(mem)
            if isinstance(guard, logic.BoolLit):
                if not guard.value:
                    continue  # infeasible outright
                # A true guard keeps the path itself, which was already
                # known satisfiable when its trace was admitted.
            else:
                path = logic.conj([path, guard])
                facts = _fold(facts, logic.conjuncts(guard))
                verdict = _verdict(facts)
                if verdict is None:
                    verdict = feasibility.check(path)
                if isinstance(verdict, smt.Unsat):
                    continue
                # Sat and Unknown both proceed; see module docstring.
                known = not isinstance(verdict, smt.Unknown)
        fresh = None
        if kind is Havoc:
            new_mem = dict(mem)
            fresh = supply.fresh()
            new_mem[target] = Var(fresh)
        else:
            new_mem = _effect(mem, kind, target, expr)
        out.append((SymState(dst, path, new_mem, facts), known, fresh))
    return out


def _effect(memory: Dict[str, Term], kind: type, target: Optional[str], expr,
            copy: bool = True) -> Dict[str, Term]:
    """`memory` after an assign or skip step, its assignment written in a copy when `copy`."""
    if kind is not Assign:
        return memory
    value = expr(memory)
    memory = dict(memory) if copy else memory
    memory[target] = value
    return memory


DEFAULT_NODE_BUDGET = 2_000_000


class Walk:
    """A program's symbolic execution tree, shared by the bounds 1..n of a
    search.

    The nodes are `SymTrace`s; the root is the initial state. A node's run
    ends at an observed location, a fork or guard, a havoc (the next node's
    own step) or bound n's step budget; it is applied to one memory, and
    only its last state is built. `children` extends a node once and keeps
    its children, so every bound's search reads the part of the tree that
    an earlier bound built instead of extending it again. `tree[m]` holds
    the children of node number m, or None before it is extended.
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
        self.step_budget = step_budget
        self.node_budget = node_budget
        # No bound's search extends a node this deep, so no run goes deeper.
        self.depth_limit = (step_budget if step_budget is not None
                            else default_step_budget(graph, n))
        init = initial_state(graph)
        self.tree: List[Optional[List[SymTrace]]] = [None]
        self.root = SymTrace(None, init, (init,) if init.loc in observed else (), True, None, 0)
        # (bound, its traces in order) of the last bound whose search ran to
        # the end with no budget cut; see `ObserveStream`.
        self.listed: Optional[Tuple[int, List[SymTrace]]] = None

    def children(self, node: SymTrace) -> List[SymTrace]:
        kids = self.tree[node.number]
        if kids is None:
            kids = self.tree[node.number] = [
                self._child(node, state, known, fresh)
                for state, known, fresh in extend(self.graph, node.state, self.supply,
                                                  self.feasibility)]
        return kids

    def _child(self, parent: SymTrace, state: SymState, known: bool,
               fresh: Optional[str]) -> SymTrace:
        """The node whose own step reaches `state`, its run applied to one memory."""
        graph, observed = self.graph, self.observed
        loc, memory, length = state.loc, state.memory, 0
        while parent.depth + 1 + length < self.depth_limit and loc not in observed:
            steps = graph.steps(loc)
            if len(steps) != 1 or steps[0][1] is not None or steps[0][2] is Havoc:
                break
            loc, _, kind, target, expr = steps[0]
            memory = _effect(memory, kind, target, expr, memory is state.memory)
            length += 1
        last = SymState(loc, state.path, memory, state.facts) if length else state
        self.tree.append(None)
        return SymTrace(parent, last, parent.observed + (last,)
                        if loc in observed else parent.observed,
                        parent.proved and known, fresh, len(self.tree) - 1,
                        (graph, state, length) if length else None)

    def stream(self, j: int) -> "ObserveStream":
        """Bound j's traces."""
        if not 1 <= j <= self.n:
            raise ValueError(f"bound {j} is not tracked by this walk")
        return ObserveStream(self, j)


class ObserveStream:
    """Streaming enumeration of the observed symbolic traces with n
    observations: a fresh breadth-first search over the nodes of a `Walk`'s
    tree.

    A trace is yielded when the search visits its node, so a consumer that
    stops early leaves its later siblings' subtrees unexplored; a trace
    under a long run can come before a shallower one. Iterate to consume;
    after exhaustion, `incomplete` tells whether a budget cut off
    unexplored extensions (the non-finitely-observable case), and `cut`
    names that budget, its value and the option that sets it. The step
    budget (by default `default_step_budget(graph, n)`) bounds trace length
    in transitions, and a node whose run crosses it is cut; the node budget
    bounds the nodes that this bound's breadth-first search visits, those
    an earlier bound already built included, a safety valve against graphs
    whose breadth explodes long before the depth budget bites.

    The walk owns the list of a bound: a search that runs to the end with no
    budget cut leaves its traces on the walk (`Walk.listed`), and a later
    stream of that bound replays them, in the same order, visiting no node
    and extending none; it is complete. This is how both sides of a search
    read one walk that they share. A stream that a budget cut, or that its
    consumer left early, leaves nothing.
    """

    def __init__(self, walk: Walk, n: int):
        self.walk = walk
        self.n = n
        self.cut: Optional[str] = None

    @property
    def incomplete(self) -> bool:
        return self.cut is not None

    def __iter__(self) -> Iterator[SymTrace]:
        walk, n = self.walk, self.n
        if walk.listed is not None and walk.listed[0] == n:
            yield from walk.listed[1]
            return
        depth_limit = (walk.step_budget if walk.step_budget is not None
                       else default_step_budget(walk.graph, n))
        created = 0
        found: List[SymTrace] = []
        queue: deque = deque()
        nodes = [walk.root]
        while True:
            for node in nodes:
                created += 1
                if walk.node_budget is not None and created > walk.node_budget:
                    self.cut = f"node budget {walk.node_budget} (SearchOptions.node_budget)"
                    return
                if len(node.observed) == n and node.depth <= depth_limit:
                    found.append(node)
                    yield node
                elif node.depth >= depth_limit:  # at the budget, or its run crossed it
                    self.cut = f"step budget {depth_limit} (--step-budget)"
                else:
                    queue.append(node)
            if not queue:
                if not self.incomplete:
                    walk.listed = (n, found)
                return
            nodes = walk.children(queue.popleft())


def concretize(states: Sequence[SymState],
               rho: Dict[str, int]) -> List[Tuple[int, Dict[str, int]]]:
    """Instantiate the symbolic memory of every state under rho."""
    return [(state.loc, {var: logic.eval_term(term, rho) for var, term in state.mem})
            for state in states]
