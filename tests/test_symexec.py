import itertools
import random

import pytest

from hyperfind import concrete, frontend, logic, smt, symexec
from hyperfind.logic import BoolLit, Cmp, IntLit, Var
from hyperfind.symexec import (
    Feasibility, FreshSupply, concretize, extend, initial_state, observe,
)

from conftest import (
    all_assignments, bench_source, input_sign_graph, random_graph,
    random_observed, set_zero_graph,
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
    assert stream.stats.traces_yielded == 4


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
