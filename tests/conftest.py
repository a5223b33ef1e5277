"""Shared fixtures: hand-built reference graphs, random generators, solver,
and the closed encoding that the tests take as the reference."""

from __future__ import annotations

import itertools
import os
import random
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, _SRC)
# Subprocesses (a bundled solver started as a child, CLI invocations under
# test) must also see the package when running from an uninstalled checkout.
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = _SRC + os.pathsep + os.environ.get("PYTHONPATH", "")

from hyperfind import logic
from hyperfind.encode import (EncodingError, _apart, _body_slots, _domain_constraint,
                              _image, _own)
from hyperfind.graph import Assign, Edge, Havoc, ProgramGraph, SKIP
from hyperfind.logic import Cmp, Formula, IntLit, Term, Var
from hyperfind.symexec import DEFAULT_NODE_BUDGET, SymTrace, Walk

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def bench_source(name: str) -> str:
    with open(os.path.join(BENCH_DIR, name)) as handle:
        return handle.read()


@pytest.fixture(scope="session")
def solver_argv():
    from hyperfind import smt
    return smt.resolve_solver()


@pytest.fixture(scope="session")
def process_argv():
    """The bundled solver spelled so that `smt.Solver` starts it as a child
    process, as it does any external solver, instead of in-process."""
    return [sys.executable, "-c",
            "import sys; from hyperfind.refsolver import main; sys.exit(main())"]


@pytest.fixture
def sessions(monkeypatch):
    """Every child-process session that `smt.Solver` starts while the test
    runs, in order (an `InProcessSession` is not recorded)."""
    from hyperfind import smt
    started = []

    class Recorded(smt.SolverSession):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(smt, "SolverSession", Recorded)
    return started


@pytest.fixture
def extend_calls(monkeypatch):
    """A one-element list that counts the `symexec.extend` calls made while
    the test runs."""
    from hyperfind import symexec
    calls = [0]
    original = symexec.extend

    def counted(*args):
        calls[0] += 1
        return original(*args)
    monkeypatch.setattr(symexec, "extend", counted)
    return calls


def input_sign_graph() -> ProgramGraph:
    """Reactive loop: havoc an input, output its sign, repeat.

    locations: 0 (initial), 1 (post-input); edges: havoc, then two guarded
    assignments back to 0.
    """
    return ProgramGraph(
        name="io",
        locations=(0, 1),
        edges=(
            Edge(0, 1, logic.TRUE, Havoc("x")),
            Edge(1, 0, Cmp(">", Var("x"), IntLit(0)), Assign("output", IntLit(1))),
            Edge(1, 0, Cmp("<=", Var("x"), IntLit(0)), Assign("output", IntLit(0))),
        ),
        initial=0,
        variables=("x", "output"),
    )


def set_zero_graph() -> ProgramGraph:
    """Straight-line graph: one assignment x := 0 into a terminal location."""
    return ProgramGraph(
        name="setzero",
        locations=(0, 1),
        edges=(Edge(0, 1, logic.TRUE, Assign("x", IntLit(0))),),
        initial=0,
        variables=("x",),
    )


# ---------------------------------------------------------------------------
# Random generators (seeded, deterministic)
# ---------------------------------------------------------------------------

def random_term(rng: random.Random, names, depth: int = 2):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return IntLit(rng.randint(-8, 8))
        return Var(rng.choice(names))
    op = rng.choice(["+", "-", "*", "div", "mod"])
    if op == "+":
        return logic.add(random_term(rng, names, depth - 1),
                         random_term(rng, names, depth - 1))
    if op == "-":
        return logic.sub(random_term(rng, names, depth - 1),
                         random_term(rng, names, depth - 1))
    if op == "*":
        return logic.mul(IntLit(rng.randint(-3, 3)),
                         random_term(rng, names, depth - 1))
    if op == "div":
        return logic.div(random_term(rng, names, depth - 1),
                         IntLit(rng.randint(1, 4)))
    return logic.mod(random_term(rng, names, depth - 1),
                     IntLit(rng.randint(1, 4)))


def random_formula(rng: random.Random, names, depth: int = 2):
    if depth == 0 or rng.random() < 0.35:
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return logic.cmp(op, random_term(rng, names, 1), random_term(rng, names, 1))
    kind = rng.choice(["not", "and", "or", "implies"])
    if kind == "not":
        return logic.negate(random_formula(rng, names, depth - 1))
    if kind == "implies":  # a => b, drawn a first
        return logic.disj([logic.negate(random_formula(rng, names, depth - 1)),
                           random_formula(rng, names, depth - 1)])
    parts = [random_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3))]
    return logic.conj(parts) if kind == "and" else logic.disj(parts)


def random_graph(rng: random.Random, name: str, var_names) -> ProgramGraph:
    """Small graph with complementary guards per branch point and at most
    two havoc edges; branch targets differ so distinct paths are
    distinguishable by their location sequences."""
    n_locs = rng.randint(2, 4)
    locations = tuple(range(n_locs))
    edges = []
    havoc_budget = 2

    def small_expr():
        kind = rng.random()
        a, b = rng.choice(var_names), rng.choice(var_names)
        if kind < 0.3:
            return IntLit(rng.randint(-2, 2))
        if kind < 0.6:
            return logic.add(Var(a), IntLit(rng.randint(-1, 2)))
        return logic.add(Var(a), Var(b))

    def effect():
        nonlocal havoc_budget
        if havoc_budget > 0 and rng.random() < 0.35:
            havoc_budget -= 1
            return Havoc(rng.choice(var_names))
        if rng.random() < 0.15:
            return SKIP
        return Assign(rng.choice(var_names), small_expr())

    for src in locations:
        roll = rng.random()
        if roll < 0.12 and src != 0:
            continue  # sink location
        if roll < 0.55:
            edges.append(Edge(src, rng.randrange(n_locs), logic.TRUE, effect()))
        else:
            guard = logic.cmp(rng.choice(["<=", "=", ">"]),
                              Var(rng.choice(var_names)),
                              IntLit(rng.randint(-1, 1)))
            dst_a = rng.randrange(n_locs)
            dst_b = (dst_a + 1 + rng.randrange(n_locs - 1)) % n_locs if n_locs > 1 else dst_a
            edges.append(Edge(src, dst_a, guard, effect()))
            edges.append(Edge(src, dst_b, logic.negate(guard), effect()))
    return ProgramGraph(name=name, locations=locations, edges=tuple(edges),
                        initial=0, variables=tuple(var_names))


def random_observed(rng: random.Random, graph: ProgramGraph, limit: int = 2):
    count = rng.randint(1, min(limit, len(graph.locations)))
    return frozenset(rng.sample(list(graph.locations), count))


# ---------------------------------------------------------------------------
# Reference exploration
# ---------------------------------------------------------------------------

def observe(graph, observed, n, supply, feasibility, step_budget=None,
            node_budget=DEFAULT_NODE_BUDGET):
    """The traces with n observations alone: bound n's stream of a walk
    made for it."""
    return Walk(graph, observed, n, supply, feasibility, step_budget,
                node_budget).stream(n)


def fresh_bound_search(graph, observed, n, supply, feasibility,
                       step_budget=None, node_budget=None):
    """A fresh breadth-first search for the traces with n observations, as
    a search restarted from the initial state at every bound makes it:
    (traces as (states, observed) pairs, incomplete, extend calls)."""
    from collections import deque
    from hyperfind import symexec
    from hyperfind.graph import default_step_budget

    if step_budget is None:
        step_budget = default_step_budget(graph, n)
    init = symexec.initial_state(graph)
    queue = deque([((init,), (init,) if init.loc in observed else ())])
    traces, incomplete, popped, extends = [], False, 0, 0
    while queue:
        states, obs = queue.popleft()
        popped += 1
        if node_budget is not None and popped > node_budget:
            incomplete = True
            break
        if len(obs) == n:
            traces.append((states, obs))
            continue
        if len(states) - 1 >= step_budget:
            incomplete = True
            continue
        extends += 1
        for state, _, _ in symexec.extend(graph, states[-1], supply, feasibility):
            queue.append((states + (state,), obs + (state,) if state.loc in observed else obs))
    return traces, incomplete, extends


# The numbers of hand-built nodes: one counter, so no two nodes share one.
NODE_NUMBERS = itertools.count()


def symbolic_trace(states: Sequence, observed: Sequence, proved: bool = True) -> SymTrace:
    """The last node of a chain of search-tree nodes over `states`, each
    node carrying the projection `observed`. As in a walk, each node's
    fresh name is the one `v!N` that its memory adds to the chain's."""
    node, seen = None, set()
    for state in states:
        new = {name for _, term in state.mem for name in logic.free_vars(term)} - seen
        assert len(new) <= 1, "a step introduces at most one fresh name"
        seen |= new
        node = SymTrace(node, state, tuple(observed), proved, new.pop() if new else None,
                        next(NODE_NUMBERS))
    return node


def tree_nodes(walk) -> List[SymTrace]:
    """Every node that a walk has built, root first, in breadth-first order."""
    nodes = [walk.root]
    for node in nodes:
        nodes.extend(walk.tree[node.number] or [])
    return nodes


def walked_free_vars(trace: SymTrace) -> Tuple[str, ...]:
    """The free variables of a trace's path and of every state's memory,
    sorted by fresh index: what `SymTrace.free_vars` reads off the chain."""
    seen = set(logic.free_vars(trace.path))
    for state in trace.states:
        for _, term in state.mem:
            seen |= logic.free_vars(term)
    return tuple(sorted(seen, key=lambda name: int(name.rsplit("!", 1)[1])))


def assert_equivalent(solver, left: Formula, right: Formula, context=None) -> None:
    """`left and not right` and `right and not left` both answer unsat on
    `solver`; any other answer, `unknown` included, fails."""
    from hyperfind import smt
    for a, b in ((left, right), (right, left)):
        answer = solver.check(logic.conj([a, logic.negate(b)]))
        assert isinstance(answer, smt.Unsat), (context, answer)


def all_assignments(names, domain):
    """Every total assignment of domain values to the given names."""
    names = list(names)
    for values in itertools.product(domain, repeat=len(names)):
        yield dict(zip(names, values))


# ---------------------------------------------------------------------------
# Reference encoding
# ---------------------------------------------------------------------------
# The closed encoding of the bound-k semantics, built quantifier by
# quantifier: the naive search's query is its negation, which the program
# builds from its lazy queries instead.


def _images(trace: SymTrace, trace_var: str, own: Sequence[Tuple[str, str]], k: int,
            rho: Optional[Dict[str, Term]] = None) -> List[Dict[str, Term]]:
    """Per observation index i < k, the terms that `trace`, bound to
    `trace_var`, gives the body variables `own` ((full name, program
    variable) pairs), renamed by `rho` when it is given."""
    images = []
    for i in range(k):
        sigma = {name: _image(trace, trace_var, var, i) for name, var in own}
        if rho is not None:
            sigma = {name: logic.substitute(term, rho) for name, term in sigma.items()}
        images.append(sigma)
    return images


def _instantiate(body: Formula, k: int, slots: Sequence[Tuple[str, str, str]],
                 bound: Dict[str, List[Dict[str, Term]]]) -> Formula:
    """Conjunction over observation indices 0..k-1 of the body under the
    images of the bound trace variables."""
    if k > 0:
        for _, _, trace_var in slots:
            if trace_var not in bound:
                raise EncodingError(f"trace variable {trace_var!r} is not bound")
    return logic.conj(
        logic.substitute(body, {name: term for images in bound.values()
                                for name, term in images[i].items()})
        for i in range(k))


def encode_invariant(body: Formula, k: int, binding: Dict[str, SymTrace]) -> Formula:
    """Conjunction over observation indices 0..k-1 of the instantiated body."""
    slots = _body_slots(body)
    return _instantiate(body, k, slots, {
        trace_var: _images(trace, trace_var, _own(slots, trace_var), k)
        for trace_var, trace in binding.items()})


@dataclass(frozen=True)
class QuantifiedTraces:
    kind: str  # "forall" | "exists"
    trace_var: str
    traces: Tuple[SymTrace, ...]


def closed_encoding(quantifiers: Sequence[QuantifiedTraces], body: Formula, k: int,
                    domain: Optional[Tuple[int, int]] = None) -> Formula:
    """Closed encoding of the bound-k semantics over materialized trace sets.

    The optional domain interval constrains every fresh variable of every
    trace; it exists so desk-scale runs can be cross-checked against the
    finite-domain oracle, and is conjoined next to the path formulas, never
    inside them. Existential traces are renamed apart (see `_apart`), in
    their path and in the terms the body takes from them.
    """
    slots = _body_slots(body)

    def rec(i: int, bound: Dict[str, List[Dict[str, Term]]]) -> Formula:
        if i == len(quantifiers):
            return _instantiate(body, k, slots, bound)
        q = quantifiers[i]
        own = _own(slots, q.trace_var)
        parts = []
        for trace in q.traces:
            fv, path, rho = trace.free_vars(), trace.path, None
            if q.kind == "exists":
                rho = {}
                fv = _apart(fv, rho)
                path = logic.substitute(path, rho)
            scope = logic.conj([path, _domain_constraint(fv, domain)])
            inner = rec(i + 1, {**bound, q.trace_var: _images(trace, q.trace_var, own, k, rho)})
            if q.kind == "forall":
                parts.append(logic.forall(fv, logic.disj([logic.negate(scope), inner])))
            else:
                parts.append(logic.exists(fv, logic.conj([scope, inner])))
        return logic.conj(parts) if q.kind == "forall" else logic.disj(parts)

    return rec(0, {})
