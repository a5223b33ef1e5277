"""Shared fixtures: hand-built reference graphs, random generators, solver."""

from __future__ import annotations

import itertools
import os
import random
import sys

import pytest

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, _SRC)
# Subprocesses (the bundled solver, CLI invocations under test) must also
# see the package when running from an uninstalled checkout.
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = _SRC + os.pathsep + os.environ.get("PYTHONPATH", "")

from hyperfind import logic
from hyperfind.graph import Assign, Edge, Havoc, ProgramGraph, SKIP
from hyperfind.logic import Cmp, IntLit, Var

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def bench_source(name: str) -> str:
    with open(os.path.join(BENCH_DIR, name)) as handle:
        return handle.read()


@pytest.fixture(scope="session")
def solver_argv():
    from hyperfind import smt
    return smt.resolve_solver()


@pytest.fixture
def sessions(monkeypatch):
    """Every SolverSession started while the test runs, in order."""
    from hyperfind import smt
    started = []

    class Recorded(smt.SolverSession):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(smt, "SolverSession", Recorded)
    return started


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
    if kind == "implies":
        return logic.implies(random_formula(rng, names, depth - 1),
                             random_formula(rng, names, depth - 1))
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


def all_assignments(names, domain):
    """Every total assignment of domain values to the given names."""
    names = list(names)
    for values in itertools.product(domain, repeat=len(names)):
        yield dict(zip(names, values))
