import itertools
import json
import os
import random
import re

import pytest

from hyperfind import concrete, driver, frontend, logic, smt, symexec
from hyperfind.logic import BoolLit, Cmp, IntLit, Var
from hyperfind.symexec import (
    Feasibility, FreshSupply, Walk, concretize, extend, initial_state, observe,
)

from conftest import (
    BENCH_DIR, all_assignments, bench_source, fresh_bound_search,
    input_sign_graph, random_graph, random_observed, set_zero_graph,
)


@pytest.fixture(scope="module")
def feas(solver_argv):
    with smt.Solver(solver_argv) as solver:
        yield Feasibility(solver)


def test_extend_single_havoc_edge(feas):
    graph = input_sign_graph()
    supply = FreshSupply()
    first = extend(graph, (initial_state(graph),), supply, feas)
    assert len(first) == 1
    state = first[0][-1]
    assert state.loc == 1
    assert state.path == logic.TRUE
    assert state.memory()["x"] == Var("v!0")


def test_extend_splits_on_guards(feas):
    graph = input_sign_graph()
    supply = FreshSupply()
    first = extend(graph, (initial_state(graph),), supply, feas)
    second = extend(graph, first[0], supply, feas)
    assert len(second) == 2
    paths = [trace[-1].path for trace in second]
    assert paths == [Cmp(">", Var("v!0"), IntLit(0)),
                     Cmp("<=", Var("v!0"), IntLit(0))]
    outputs = [trace[-1].memory()["output"] for trace in second]
    assert outputs == [IntLit(1), IntLit(0)]


def test_extend_prunes_unsat_guard(feas):
    # After x := 0, a guard x < 0 folds to false and yields no extension.
    from hyperfind.graph import Assign, Edge, ProgramGraph, SKIP
    graph = ProgramGraph(
        "g", (0, 1, 2),
        (Edge(0, 1, logic.TRUE, Assign("x", IntLit(0))),
         Edge(1, 2, Cmp("<", Var("x"), IntLit(0)), SKIP)),
        0, ("x",))
    supply = FreshSupply()
    first = extend(graph, (initial_state(graph),), supply, feas)
    assert len(first) == 1
    assert extend(graph, first[0], supply, feas) == []


def test_observe_counts_buggy_voting(feas):
    loaded = frontend.load(bench_source("voting_buggy.hyp"))
    prog = loaded.programs["buggy"]
    stream = observe(prog.graph, prog.labels["head"], 2, FreshSupply(), feas)
    traces = list(stream)
    assert len(traces) == 4
    assert not stream.incomplete


def test_observe_set_zero(feas):
    graph = set_zero_graph()
    stream = observe(graph, frozenset({1}), 1, FreshSupply(), feas)
    traces = list(stream)
    assert len(traces) == 1
    assert traces[0].observed[-1].loc == 1
    assert not stream.incomplete

    stream = observe(graph, frozenset({1}), 2, FreshSupply(), feas)
    assert list(stream) == []
    assert not stream.incomplete


def test_observe_factorial_hits_budget(feas):
    loaded = frontend.load(bench_source("factorial.hyp"))
    prog = loaded.programs["factorial"]
    stream = observe(prog.graph, prog.labels["end"], 1, FreshSupply(), feas)
    traces = list(stream)
    assert stream.incomplete
    assert len(traces) >= 3  # one trace per completed unrolling before cutoff


def test_observe_escalating_trace_counts(feas):
    # Ground either/or exploration: 2^(k-1) universal traces per bound; the
    # concrete enumeration (exact for havoc-free programs) must agree.
    loaded = frontend.load(bench_source("escalating.hyp"))
    for name, k in (("escalating", 3), ("limit", 3)):
        prog = loaded.programs[name]
        stream = observe(prog.graph, prog.labels["round"], k, FreshSupply(), feas)
        symbolic = list(stream)
        assert not stream.incomplete
        assert len(symbolic) == 2 ** (k - 1)
        enum = concrete.enumerate_observed(prog.graph, prog.labels["round"], k, [0])
        assert enum.complete
        assert len(enum.observed) == len(symbolic)


def test_projection_consistency(feas):
    loaded = frontend.load(bench_source("voting_buggy.hyp"))
    prog = loaded.programs["buggy"]
    obs = prog.labels["head"]
    stream = observe(prog.graph, obs, 2, FreshSupply(), feas)
    for trace in stream:
        projected = tuple(s for s in trace.states if s.loc in obs)
        assert projected == trace.observed
        assert trace.observed[-1] is trace.states[-1]  # cut at the k-th observation
        assert trace.path == trace.states[-1].path


def test_fresh_variables_never_collide_across_streams(feas):
    loaded = frontend.load(bench_source("voting_buggy.hyp"))
    prog = loaded.programs["buggy"]
    supply = FreshSupply()
    first = list(observe(prog.graph, prog.labels["head"], 1, supply, feas))
    second = list(observe(prog.graph, prog.labels["head"], 1, supply, feas))
    vars_first = set().union(*(set(t.free_vars()) for t in first))
    vars_second = set().union(*(set(t.free_vars()) for t in second))
    assert not (vars_first & vars_second)


def walk_sides():
    """(name, graph, observed) of every side of the manifest's searches,
    plus `voting_correct`, `factorial` and `escalating`."""
    with open(os.path.join(BENCH_DIR, "manifest.json")) as handle:
        files = [entry["file"] for entry in json.load(handle)]
    files += ["voting_correct.hyp", "factorial.hyp", "escalating.hyp"]
    sides = {}
    for name in files:
        gen = driver.generalize(frontend.load(bench_source(name)))
        for side in (gen.universal, gen.existential):
            if side is not None:
                sides.setdefault((name, side.trace_var), (side.graph, side.observed))
    return [(f"{name}:{var}", *side) for (name, var), side in sides.items()]


def canonical(traces):
    """Location sequences, paths and observed memories of a trace list,
    fresh names renamed by their first occurrence in the list."""
    table = {}
    text = repr([(tuple(s.loc for s in states), states[-1].path,
                  [s.mem for s in obs]) for states, obs in traces])
    return re.sub(r"v!\d+", lambda m: table.setdefault(m.group(0), f"x{len(table)}"),
                  text)


@pytest.mark.parametrize("step_budget, node_budget", [
    (None, symexec.DEFAULT_NODE_BUDGET), (5, None), (20, None),
    (None, 1), (None, 5), (None, 30),
])
def test_walk_matches_a_fresh_search_per_bound(feas, extend_calls, step_budget,
                                               node_budget):
    # Bound j's view of one walk over bounds 1..4 must list the traces a
    # search restarted at bound j lists, in its order, with its verdict on
    # completeness.
    for name, graph, observed in walk_sides():
        walk = Walk(graph, observed, 4, FreshSupply(), feas, step_budget, node_budget)
        walk_extends = 0
        for j in range(1, 5):
            before = extend_calls[0]
            stream = walk.stream(j)
            got = [(t.states, t.observed) for t in stream]
            walk_extends += extend_calls[0] - before
            want, incomplete, fresh_extends = fresh_bound_search(
                graph, observed, j, FreshSupply(), feas,
                step_budget, node_budget)
            assert len(got) == len(want), (name, j)
            assert canonical(got) == canonical(want), (name, j)
            assert stream.incomplete == incomplete, (name, j)
        if node_budget in (None, symexec.DEFAULT_NODE_BUDGET):
            # Bound 4's tree holds the smaller bounds' trees, and the walk
            # extends each of its nodes once.
            assert walk_extends == fresh_extends, name


def test_walk_restreams_a_bound_from_its_tree(feas, extend_calls):
    # Streaming a bound again, in any order, yields the first pass's trace
    # objects without extending a node; bounds outside 1..n are rejected.
    graph = input_sign_graph()
    walk = Walk(graph, frozenset({0}), 3, FreshSupply(), feas)
    first = {j: list(walk.stream(j)) for j in (1, 2, 3)}
    assert [len(first[j]) for j in (1, 2, 3)] == [1, 2, 4]
    made = extend_calls[0]
    for j in (3, 1, 2, 3):
        again = list(walk.stream(j))
        assert len(again) == len(first[j])
        assert all(a is b for a, b in zip(again, first[j])), j
    assert extend_calls[0] == made
    for j in (0, 4):
        with pytest.raises(ValueError, match=f"bound {j} is not tracked"):
            walk.stream(j)


class UnknownOnSecondInput:
    """Path feasibility on `input_sign_graph`: unknown on a guard over the
    second input (`v!1` or `v!2`, one per branch of the first), sat on any
    other guard."""

    def check(self, formula):
        last = formula.args[-1] if isinstance(formula, logic.And) else formula
        if logic.free_vars(last) <= {"v!1", "v!2"}:
            return smt.Unknown("forced")
        return smt.Sat({})


def test_walk_marks_paths_proved():
    # input_sign_graph branches on each input: bound j's traces have
    # checked j - 1 guards. An unknown answer on the second input's guard
    # leaves bound 3 unproved, and bound 4 too, though its third guard
    # answers sat.
    graph = input_sign_graph()
    walk = Walk(graph, frozenset({0}), 4, FreshSupply(), UnknownOnSecondInput())
    proved = {j: [trace.proved for trace in walk.stream(j)] for j in (1, 2, 3, 4)}
    assert proved == {1: [True], 2: [True, True], 3: [False] * 4, 4: [False] * 8}
    # The flag takes no part in a trace's repr or equality.
    trace = next(iter(walk.stream(3)))
    assert "proved" not in repr(trace)
    assert trace == symexec.SymTrace(trace.states, trace.observed)


def test_concretize_io_trace(feas):
    graph = input_sign_graph()
    supply = FreshSupply()
    stream = observe(graph, frozenset({0}), 2, supply, feas)
    traces = list(stream)
    positive = [t for t in traces if t.path == Cmp(">", Var("v!0"), IntLit(0))]
    assert len(positive) == 1
    concrete_trace = concretize(positive[0].states, {"v!0": 1})
    assert concrete_trace[-1] == (0, {"x": 1, "output": 1})


def test_concretize_initial_identity(feas):
    graph = input_sign_graph()
    trace = symexec.SymTrace((initial_state(graph),), (initial_state(graph),))
    assert concretize(trace.states, {}) == [(0, {"x": 0, "output": 0})]


def test_concretize_unbound_fresh_variable_errors(feas):
    graph = input_sign_graph()
    supply = FreshSupply()
    stream = observe(graph, frozenset({0}), 2, supply, feas)
    trace = list(stream)[0]  # past one havoc, so the memory mentions v!0
    with pytest.raises(logic.EvalError):
        concretize(trace.states, {})


def test_trivially_sat_filter_is_conservative():
    assert symexec._trivially_sat(Cmp("<", Var("a"), Var("b")))
    assert symexec._trivially_sat(logic.conj(
        [Cmp("=", Var("a"), IntLit(1)), logic.negate(Cmp("=", Var("b"), IntLit(0)))]))
    # shared variables or compound terms must go to the solver
    assert not symexec._trivially_sat(logic.conj(
        [Cmp("<", Var("a"), IntLit(0)), Cmp(">", Var("a"), IntLit(0))]))
    assert not symexec._trivially_sat(Cmp("<", Var("a"), Var("a")))
    assert not symexec._trivially_sat(
        Cmp("=", logic.add(Var("a"), IntLit(1)), IntLit(0)))


def symbolic_concretization_set(trace, domain):
    """All observed concrete traces of a symbolic trace over a finite domain."""
    names = trace.free_vars()
    out = set()
    for rho in all_assignments(names, domain):
        if logic.eval_formula(trace.path, rho):
            observed = concretize(trace.observed, rho)
            out.add(tuple((loc, tuple(sorted(mem.items()))) for loc, mem in observed))
    return out


def equivalence_check(graph, obs, k, feas, budget=16, nodes=20_000,
                      solver_probe=0):
    """Observed-trace set equality between the finite-domain oracle and the
    concretizations of the symbolic stream; None when either side is cut
    off by its budget or the assignment enumeration would be too large.

    For the first `solver_probe` traces, additionally checks through the
    solver that the domain-constrained path formula is satisfiable exactly
    when the trace contributes at least one concrete observed trace.
    """
    from hyperfind.encode import _domain_constraint

    enum = concrete.enumerate_observed(graph, obs, k, [0, 1], budget)
    stream = observe(graph, obs, k, FreshSupply(), feas, step_budget=budget,
                     node_budget=nodes)
    traces = list(stream)
    if not enum.complete or stream.incomplete:
        return None
    symbolic = set()
    for index, trace in enumerate(traces):
        if len(trace.free_vars()) > 8:
            return None
        contributed = symbolic_concretization_set(trace, [0, 1])
        symbolic |= contributed
        if index < solver_probe:
            constrained = logic.conj(
                [trace.path, _domain_constraint(trace.free_vars(), (0, 1))])
            verdict = feas.check(constrained)
            assert isinstance(verdict, smt.Sat) == bool(contributed)
    assert symbolic == enum.observed
    return len(traces)


def test_symbolic_concrete_equivalence_smoke(feas):
    # Desk-scale version; the acceptance suite runs the full 200-graph one.
    rng = random.Random(21)
    agreements = 0
    for i in range(40):
        graph = random_graph(rng, f"g{i}", ("a", "b"))
        obs = random_observed(rng, graph)
        k = rng.randint(1, 3)
        if equivalence_check(graph, obs, k, feas) is not None:
            agreements += 1
    assert agreements >= 20
