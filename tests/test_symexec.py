import json
import os
import random
import re

import pytest

from hyperfind import concrete, driver, frontend, logic, smt, symexec
from hyperfind.logic import Cmp, IntLit, Not, Var
from hyperfind.symexec import (
    Feasibility, FreshSupply, Walk, concretize, extend, initial_state,
)

from conftest import (
    BENCH_DIR, all_assignments, bench_source, fresh_bound_search,
    input_sign_graph, observe, random_graph, random_observed, set_zero_graph,
    symbolic_trace, tree_nodes, walked_free_vars,
)


@pytest.fixture(scope="module")
def feas(solver_argv):
    with smt.Solver(solver_argv) as solver:
        yield Feasibility(solver)


def test_extend_single_havoc_edge(feas):
    graph = input_sign_graph()
    supply = FreshSupply()
    first = extend(graph, initial_state(graph), supply, feas)
    assert len(first) == 1
    state, known, fresh = first[0]
    assert known and fresh == "v!0"
    assert state.loc == 1
    assert state.path == logic.TRUE
    assert state.memory["x"] == Var("v!0")


def test_extend_splits_on_guards(feas):
    graph = input_sign_graph()
    supply = FreshSupply()
    (first, _, _), = extend(graph, initial_state(graph), supply, feas)
    second = [state for state, _, _ in extend(graph, first, supply, feas)]
    assert len(second) == 2
    paths = [state.path for state in second]
    assert paths == [Cmp(">", Var("v!0"), IntLit(0)),
                     Cmp("<=", Var("v!0"), IntLit(0))]
    outputs = [state.memory["output"] for state in second]
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
    first = extend(graph, initial_state(graph), supply, feas)
    assert len(first) == 1
    assert extend(graph, first[0][0], supply, feas) == []


def test_a_skip_child_shares_its_parents_memory_and_a_write_copies_it(feas):
    from hyperfind.graph import Assign, Edge, Havoc, ProgramGraph, SKIP
    graph = ProgramGraph(
        "g", (0, 1, 2, 3),
        (Edge(0, 1, logic.TRUE, SKIP),
         Edge(0, 2, Cmp(">=", Var("x"), IntLit(0)), Assign("x", logic.add(Var("x"), IntLit(1)))),
         Edge(0, 3, logic.TRUE, Havoc("y"))),
        0, ("x", "y"))
    root = initial_state(graph)
    before = dict(root.memory)
    skipped, assigned, havocked = [state for state, _, _ in
                                   extend(graph, root, FreshSupply(), feas)]
    assert skipped.memory is root.memory
    assert assigned.memory is not root.memory and havocked.memory is not root.memory
    assert assigned.memory == {"x": IntLit(1), "y": IntLit(0)}
    assert havocked.memory == {"x": IntLit(0), "y": Var("v!0")}
    assert root.memory == before
    # The steps are compiled once per location, on first use, and kept.
    assert graph.steps(0) is graph.steps(0) and len(graph.steps(0)) == 3


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


def canonical_multiset(traces):
    """`canonical` of each trace alone, sorted: a trace list as a multiset,
    whatever its order and whatever the order its fresh names were drawn."""
    return sorted(canonical([trace]) for trace in traces)


@pytest.mark.parametrize("step_budget, node_budget", [
    (None, symexec.DEFAULT_NODE_BUDGET), (5, None), (20, None),
    (None, 1), (None, 5), (None, 30),
])
def test_walk_matches_a_fresh_search_per_bound(feas, extend_calls, step_budget,
                                               node_budget):
    # Bound j's view of one walk over bounds 1..4 must list the traces a
    # search restarted at bound j lists, in its order, with its verdict on
    # completeness. A node budget counts the walk's nodes, each a run of
    # steps, so under one the restarted search is a walk made for bound j.
    per_transition = node_budget in (None, symexec.DEFAULT_NODE_BUDGET)
    for name, graph, observed in walk_sides():
        walk = Walk(graph, observed, 4, FreshSupply(), feas, step_budget, node_budget)
        walk_extends = 0
        for j in range(1, 5):
            before = extend_calls[0]
            stream = walk.stream(j)
            got = [(t.states, t.observed) for t in stream]
            walk_extends += extend_calls[0] - before
            if per_transition:
                want, incomplete, fresh_extends = fresh_bound_search(
                    graph, observed, j, FreshSupply(), feas, step_budget, node_budget)
            else:
                alone = observe(graph, observed, j, FreshSupply(), feas, step_budget,
                                node_budget)
                want = [(t.states, t.observed) for t in alone]
                incomplete = alone.incomplete
            assert len(got) == len(want), (name, j)
            assert canonical(got) == canonical(want), (name, j)
            assert stream.incomplete == incomplete, (name, j)
        if per_transition:
            # Bound 4's tree holds the smaller bounds' trees. The walk
            # extends each of its nodes once and steps each run without
            # `extend`: between them, the transitions the search extends.
            assert walk_extends == sum(kids is not None for kids in walk.tree), name
            run_steps = sum(node.run[2] for node in tree_nodes(walk) if node.run is not None)
            assert walk_extends + run_steps == fresh_extends, name


def random_sides(count=40):
    """(name, graph, observed) of random graphs from the acceptance
    generator."""
    rng = random.Random(131)
    sides = []
    for i in range(count):
        graph = random_graph(rng, f"g{i}", ("a", "b"))
        sides.append((graph.name, graph, random_observed(rng, graph)))
    return sides


# Every loop exit starts a run of five steps that ends observed, so at any
# step budget some exit's run crosses it.
LONG_EXIT = """
prog p {
  input x;
  while (x > 0) { x := x - 1; }
  a := 1; a := 2; a := 3; a := 4;
  observe end;
}

forall p1 in p obs {end} . exists p2 in p obs {end} . always (a@p1 == a@p2)
"""

# Two unobserved, unguarded cycles, one beside the observation and one
# after it: each is a run that only the step budget ends, mid-cycle.
SPIN = """
prog spin {
  input x;
  either { loop { x := x + 1; a := a + x; } } or { a := x; }
  observe seen;
  skip;
  loop { a := a + 1; x := x + a; }
}

forall p1 in spin obs {seen} . exists p2 in spin obs {seen} . always (a@p1 == a@p2)
"""


@pytest.mark.parametrize("step_budget", [None, 5, 20, 60, 140])
def test_walk_lists_the_traces_of_a_per_transition_search(feas, step_budget):
    # A walk's nodes are runs of steps, and a bound's traces come out
    # breadth-first over nodes; a search that makes one node per transition
    # lists the same traces, perhaps in another order, and cuts the same
    # bounds short, whichever transition a run crosses the budget at. A
    # walk over bounds 1..4 runs up to bound 4's default budget, past the
    # smaller bounds' ones. A node's run, stepped again when its states
    # are read, is the states that `extend` makes step by step, also where
    # the budget cut it.
    prog = frontend.load(LONG_EXIT).programs["p"]
    long_exit = ("long_exit", prog.graph, prog.labels["end"])
    prog = frontend.load(SPIN).programs["spin"]
    spin = ("spin", prog.graph, prog.labels["seen"])
    for name, graph, observed in walk_sides() + random_sides() + [long_exit, spin]:
        walk = Walk(graph, observed, 4, FreshSupply(), feas, step_budget)
        for j in range(1, 5):
            stream = walk.stream(j)
            got = [(t.states, t.observed) for t in stream]
            want, incomplete, _ = fresh_bound_search(graph, observed, j, FreshSupply(),
                                                     feas, step_budget)
            assert canonical_multiset(got) == canonical_multiset(want), (name, j)
            assert stream.incomplete == incomplete, (name, j)
        for node in tree_nodes(walk):
            if node.run is not None:
                stepped = [node.run[1]]
                for _ in range(node.run[2]):
                    (state, _, _), = extend(graph, stepped[-1], FreshSupply(), feas)
                    stepped.append(state)
                assert node.states[-len(stepped):] == tuple(stepped), name


UNEVEN = """
prog uneven {
  input x;
  either {
    a := 1; a := a + 1; a := a + 1; a := a + 1; a := a + 1; a := a + 1; a := a + 1;
    havoc b;
  } or {
    if (x > 0) { b := 1; } else { b := 2; }
    if (x > 1) { a := 3; } else { a := 4; }
  }
  observe done;
}

forall p1 in uneven obs {done} .
exists p2 in uneven obs {done} .
always (a@p1 == a@p2 && b@p1 != b@p2 && x@p1 == x@p2)
"""


def test_a_long_run_lists_its_traces_before_shorter_nodes(feas, solver_argv):
    # The first branch is one run of seven assignments, then the havoc's
    # node: its trace is 12 transitions deep but 3 nodes deep, so it comes
    # before the second branch's three, 10 transitions and 4 nodes deep,
    # which a search of one node per transition lists first.
    loaded = frontend.load(UNEVEN)
    prog = loaded.programs["uneven"]
    walk = Walk(prog.graph, prog.labels["done"], 1, FreshSupply(), feas)
    traces = list(walk.stream(1))

    def shown(states):
        last = states[-1].memory
        return len(states) - 1, str(last["a"]), str(last["b"])
    assert [shown(t.states) for t in traces] == [
        (12, "7", "v!1"), (10, "3", "1"), (10, "4", "1"), (10, "4", "2")]
    want, incomplete, _ = fresh_bound_search(prog.graph, prog.labels["done"], 1,
                                             FreshSupply(), feas)
    assert [shown(states) for states, _ in want] == [
        (10, "3", "1"), (10, "4", "1"), (10, "4", "2"), (12, "7", "v!1")]
    assert not incomplete
    # The order leaves the verdict alone: the second branch with x = 0 has
    # no partner with another b, as the oracle finds.
    oracle = concrete.oracle_check(loaded.quantifiers, loaded.body, 1, [0, 1])
    assert (oracle.verdict, oracle.k) == ("violated", 1)
    result = driver.analyze_source(UNEVEN, n=1, algorithm="lazy",
                                   opts=driver.SearchOptions(solver_argv=solver_argv,
                                                             domain=(0, 1)))
    assert driver.verdict_name(result.verdict) == ("bug-found", 1)


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


def test_walk_replays_the_bound_it_listed(feas, extend_calls, monkeypatch):
    # A bound searched to the end is listed on the walk. A second stream of
    # it yields the same nodes in the same order, complete, and visits no
    # node: it asks for no children and counts none against the node budget.
    walk = Walk(input_sign_graph(), frozenset({0}), 3, FreshSupply(), feas)
    stream = walk.stream(2)
    first = list(stream)
    assert len(first) == 2 and not stream.incomplete
    assert walk.listed == (2, first)
    made = extend_calls[0]
    asked = []
    monkeypatch.setattr(walk, "children", asked.append)
    walk.node_budget = 1
    for _ in range(2):
        again = walk.stream(2)
        replayed = list(again)
        assert len(replayed) == len(first)
        assert all(a is b for a, b in zip(replayed, first))
        assert not again.incomplete
    assert extend_calls[0] == made and asked == []


@pytest.mark.parametrize("step_budget, node_budget", [(60, None), (None, 5)])
def test_walk_keeps_no_bound_a_budget_cut(feas, extend_calls, step_budget, node_budget):
    # A bound that a budget cut is searched again, and is cut again.
    prog = frontend.load(bench_source("factorial.hyp")).programs["factorial"]
    walk = Walk(prog.graph, prog.labels["end"], 1, FreshSupply(), feas,
                step_budget, node_budget)
    stream = walk.stream(1)
    first = list(stream)
    assert stream.incomplete and walk.listed is None
    made = extend_calls[0]
    again = walk.stream(1)
    assert [t.states for t in again] == [t.states for t in first]
    assert again.incomplete and walk.listed is None
    assert extend_calls[0] == made  # the second search reads the tree built


def test_walk_keeps_nothing_of_an_abandoned_stream(feas):
    # A consumer that stops early, as lazy search does on a bug, leaves no
    # list, and the next stream of that bound searches the tree again.
    walk = Walk(input_sign_graph(), frozenset({0}), 3, FreshSupply(), feas)
    listed = list(walk.stream(1))
    stream = iter(walk.stream(3))
    next(stream)
    stream.close()
    assert walk.listed == (1, listed)
    again = walk.stream(3)
    traces = list(again)
    assert len(traces) == 4 and not again.incomplete
    assert walk.listed == (3, traces)


@pytest.mark.parametrize("source, n, step_budget", [
    ("voting_correct.hyp", 3, None), ("io_loop.hyp", 3, None), ("escalating.hyp", 3, None),
    ("gni.hyp", 2, None), ("factorial.hyp", 1, 140),
])
def test_every_node_reads_its_trace_off_its_chain(feas, source, n, step_budget):
    # A node stores the state its own step reached and the length of the
    # run after it, whose states, stepped again when the node's states are
    # read, are unobserved. Its states, read off the chain, end in its
    # state and project onto its observed states; its free variables, its
    # parent's plus its own havoc's, are those of its path and memories.
    # `gni` walks a product.
    gen = driver.generalize(frontend.load(bench_source(source)))
    sides = [side for side in (gen.universal, gen.existential) if side is not None]
    supply = FreshSupply()
    for side in sides:
        walk = Walk(side.graph, side.observed, n, supply, feas, step_budget)
        for j in range(1, n + 1):
            list(walk.stream(j))
        nodes = tree_nodes(walk)
        for node in nodes:
            states = node.states
            assert len(states) == node.depth + 1 and states[-1] is node.state
            if node.run is not None:
                run = states[node.parent.depth + 1:-1]
                assert len(run) == node.run[2] and run[0] is node.run[1]
                assert all(state.loc not in side.observed for state in run)
            projected = [state for state in states if state.loc in side.observed]
            assert len(projected) == len(node.observed)
            assert all(a is b for a, b in zip(projected, node.observed))
            assert node.free_vars() == walked_free_vars(node)
        assert len(nodes) > 5 and any(node.run is not None for node in nodes), source


def test_a_walk_builds_at_most_two_states_per_node(feas, monkeypatch):
    # A node's own step builds its state in `extend`, and a run builds one
    # more, its last, on one memory copied at the run's first assignment:
    # no parent's memory changes when its children's runs are applied.
    built, init = [0], symexec.SymState.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)
    monkeypatch.setattr(symexec.SymState, "__init__", counted)
    for name, graph, observed in walk_sides():
        built[0] = 0
        walk = Walk(graph, observed, 3, FreshSupply(), feas)

        def children(node, make=walk.children, name=name):
            memory = dict(node.state.memory)
            kids = make(node)
            assert node.state.memory == memory, name
            return kids
        monkeypatch.setattr(walk, "children", children)
        for j in range(1, 4):
            list(walk.stream(j))
        nodes = tree_nodes(walk)
        runs = sum(node.run is not None for node in nodes)
        assert built[0] == len(nodes) + runs <= 2 * len(nodes), name


def test_a_node_is_numbered_and_names_its_ancestor_at_the_bound_before(feas):
    # A node's number indexes its children in the walk's tree, and no two
    # nodes share one. A bound-k trace's `previous` is None at bound 1;
    # otherwise it is the node of the trace's (k-1)-th observation, a
    # bound-(k-1) trace of the same walk, listed at that bound when its
    # stream ran to the end.
    for name, graph, observed in walk_sides() + random_sides(20):
        walk = Walk(graph, observed, 4, FreshSupply(), feas)
        bounds = {}
        for k in range(1, 5):
            stream = walk.stream(k)
            bounds[k] = {trace.number: trace for trace in stream}, stream.incomplete
        nodes = tree_nodes(walk)
        assert sorted(node.number for node in nodes) == list(range(len(walk.tree))), name
        by_number = {node.number: node for node in nodes}
        for node in nodes:
            assert all(child.parent is node for child in walk.tree[node.number] or []), name
        for k in range(1, 5):
            for trace in bounds[k][0].values():
                previous = trace.previous
                if k == 1:
                    assert previous is None, name
                    continue
                assert by_number[previous.number] is previous, (name, k)
                assert previous.observed == trace.observed[:-1], (name, k)
                assert previous.observed[-1] is previous.state, (name, k)
                listed, incomplete = bounds[k - 1]
                assert incomplete or listed.get(previous.number) is previous, (name, k)


class UnknownOnSecondInput:
    """Path feasibility on `input_sign_graph`: unknown on a guard over the
    second input (`v!1` or `v!2`, one per branch of the first), sat on any
    other guard."""

    def check(self, formula):
        last = formula.args[-1] if isinstance(formula, logic.And) else formula
        if logic.free_vars(last) <= {"v!1", "v!2"}:
            return smt.Unknown("forced")
        return smt.Sat({})


def test_countdown_reads_each_guard_conjunct_once(feas, monkeypatch):
    # The k-th loop pass of factorial.hyp extends paths of k guards. Each
    # child folds only its new guard into the facts its parent holds: 70
    # reads, where reading every guarded path whole would take 1,260.
    prog = frontend.load(bench_source("factorial.hyp")).programs["factorial"]
    read, reads = symexec._read, []
    monkeypatch.setattr(symexec, "_read", lambda part: reads.append(part) or read(part))
    walk = Walk(prog.graph, prog.labels["end"], 1, FreshSupply(), feas, step_budget=140)
    list(walk.stream(1))
    guarded, kept = [], 0
    for node in tree_nodes(walk):
        # A run's steps are unguarded: each keeps the path object and facts
        # of the state before it, also when stepped again.
        first, *rest = node.states[node.parent.depth + 1:] if node.parent else (node.state,)
        assert all(s.path is first.path and s.facts is first.facts for s in rest)
        kept += len(rest)
        for child in walk.tree[node.number] or []:
            if child.path == node.path:
                # A child reached over a true guard keeps its parent's path
                # object and facts.
                assert child.path is node.path and child.state.facts is node.state.facts
                kept += 1
            else:
                guarded.append(logic.conjuncts(child.path))
    conjuncts = {id(part) for parts in guarded for part in parts}
    assert len(guarded) > 60 and max(map(len, guarded)) > 30
    assert len(reads) == len({id(part) for part in reads}) == len(conjuncts) == 70
    assert kept > 60


@pytest.mark.parametrize("source", sorted(name for name in os.listdir(BENCH_DIR)
                                          if name.endswith(".hyp")))
def test_every_node_holds_the_facts_of_its_path(feas, source):
    # A node's facts, folded guard by guard from its parent's, are those of
    # its whole path read from scratch.
    gen = driver.generalize(frontend.load(bench_source(source)))
    sides = [side for side in (gen.universal, gen.existential) if side is not None]
    supply = FreshSupply()
    for side in sides:
        walk = Walk(side.graph, side.observed, 3, supply, feas)
        for j in (1, 2, 3):
            list(walk.stream(j))
        for node in tree_nodes(walk):
            state = node.state
            assert state.facts == symexec._fold(symexec._NO_FACTS,
                                                logic.conjuncts(state.path)), source


def test_walk_marks_paths_proved(monkeypatch):
    # input_sign_graph branches on each input: bound j's traces have
    # checked j - 1 guards. An unknown answer on the second input's guard
    # leaves bound 3 unproved, and bound 4 too, though its third guard
    # answers sat. With no verdict from the facts, every guarded path
    # reaches the check.
    monkeypatch.setattr(symexec, "_verdict", lambda facts: None)
    graph = input_sign_graph()
    walk = Walk(graph, frozenset({0}), 4, FreshSupply(), UnknownOnSecondInput())
    proved = {j: [trace.proved for trace in walk.stream(j)] for j in (1, 2, 3, 4)}
    assert proved == {1: [True], 2: [True, True], 3: [False] * 4, 4: [False] * 8}
    # The flag takes no part in a trace's repr or equality.
    trace = next(iter(walk.stream(3)))
    assert "proved" not in repr(trace)
    assert trace == symbolic_trace(trace.states, trace.observed)


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
    trace = symbolic_trace((initial_state(graph),), (initial_state(graph),))
    assert concretize(trace.states, {}) == [(0, {"x": 0, "output": 0})]


def test_concretize_unbound_fresh_variable_errors(feas):
    graph = input_sign_graph()
    supply = FreshSupply()
    stream = observe(graph, frozenset({0}), 2, supply, feas)
    trace = list(stream)[0]  # past one havoc, so the memory mentions v!0
    with pytest.raises(logic.EvalError):
        concretize(trace.states, {})


class AskedSolver:
    """A solver stand-in: a check that reaches it answers None."""

    def check(self, formula, timeout_ms):
        return None


def decide(path, split=None):
    """`Sat` or `Unsat` when `Feasibility` settles `path` from bounds, None
    when it asks the solver. With `split`, the verdict of the facts folded
    in two steps instead: the first `split` conjuncts, then the rest."""
    if split is None:
        return Feasibility(AskedSolver()).check(path)
    parts = path.args if isinstance(path, logic.And) else (path,)
    facts = symexec._fold(symexec._NO_FACTS, parts[:split])
    return symexec._verdict(symexec._fold(facts, parts[split:]))


def test_decide_settles_bounds_and_leaves_the_rest_to_the_solver():
    a, b = Var("a"), Var("b")
    # difference atoms and bounds over disjoint variables
    assert decide(Cmp("<", a, b)) == smt.Sat({})
    assert decide(logic.conj(
        [Cmp("=", a, IntLit(1)), logic.negate(Cmp("=", b, IntLit(0)))])) == smt.Sat({})
    # bounds on one variable: the strongest decides
    assert decide(logic.conj(
        [Cmp("<", a, IntLit(0)), Cmp(">", a, IntLit(0))])) == smt.Unsat()
    assert decide(logic.conj(
        [Cmp("<", a, IntLit(3)), Cmp(">=", a, IntLit(3))])) == smt.Unsat()
    assert decide(Cmp("=", logic.add(a, IntLit(1)), IntLit(0))) == smt.Sat({})
    assert decide(Cmp("=", logic.mul(IntLit(2), a), IntLit(1))) == smt.Unsat()
    countdown = logic.conj([Cmp(">", logic.sub(a, IntLit(j)), IntLit(0)) for j in range(5)]
                           + [logic.negate(Cmp(">", logic.sub(a, IntLit(5)), IntLit(0)))])
    assert decide(countdown) == smt.Sat({})
    assert decide(logic.conj([countdown, Cmp("!=", a, IntLit(5))])) == smt.Unsat()
    # a raw self-comparison is ground
    assert decide(Cmp("<", a, a)) == smt.Unsat()
    # a difference atom whose variable carries a bound, and div or mod
    assert decide(logic.conj([Cmp("<", a, b), Cmp(">", a, IntLit(0))])) is None
    assert decide(Cmp("=", logic.mod(a, IntLit(2)), IntLit(1))) is None
    # Conjuncts are read in order. The first one that settles the path on
    # its own wins, whether or not a fold ends between them: an unreadable
    # one asks the solver, a false ground one is unsat. After a difference
    # atom tangled with a bound, an interval that empties is still unsat.
    odd = Cmp("=", logic.mod(a, IntLit(2)), IntLit(1))
    tangled = [Cmp("<", a, b), Cmp(">", a, IntLit(0))]
    # Conjuncts are read in the solver's normal form, coefficients divided
    # by their gcd: `2a - 2b <= 1` is the difference atom `a - b <= 0`, and
    # `2a - 2b = 1` and `2a = 1` are false. A false conjunct with a
    # variable only empties the path's interval, so a later unreadable one
    # still asks the solver. `2a != 1` is true and bounds nothing, so it
    # does not tangle with a difference atom over a.
    twice = logic.sub(logic.mul(IntLit(2), a), logic.mul(IntLit(2), b))
    double_a = logic.mul(IntLit(2), a)
    cases = [([odd, Cmp("<", a, a)], None), ([Cmp("<", a, a), odd], smt.Unsat()),
             ([Cmp("<", a, IntLit(0)), Cmp(">", a, IntLit(0)), odd], None),
             (tangled, None), (tangled + [Cmp("<", a, IntLit(0))], smt.Unsat()),
             (tangled + [odd, Cmp("<", a, IntLit(0))], None),
             ([Cmp("<=", twice, IntLit(1))], smt.Sat({})),
             ([Cmp("<=", twice, IntLit(1)), Cmp(">", b, IntLit(0))], None),
             ([Cmp("=", twice, IntLit(1))], smt.Unsat()),
             ([Cmp("=", twice, IntLit(1)), odd], None),
             ([Cmp("=", double_a, IntLit(1)), odd], None),
             ([odd, Cmp("=", double_a, IntLit(1))], None),
             ([Cmp("<", a, b), Cmp("!=", double_a, IntLit(1))], smt.Sat({})),
             ([Not(Cmp("=", double_a, IntLit(1))), Cmp("<", a, b)], smt.Sat({}))]
    for parts, verdict in cases:
        path = logic.conj(parts)
        assert decide(path) == verdict, path
        for split in range(len(parts) + 1):
            assert decide(path, split) == verdict, (path, split)


def random_conjunction(rng, kinds):
    """A random conjunction over a and b that `_decide` may settle, and adds
    to `kinds` the kinds of conjunct it drew."""
    names = ["a", "b"]

    def linear(name):
        """`c * name + r`, with its c and r; c ranges beyond [-9, 9], over
        both signs."""
        c = rng.choice([n for n in range(-40, 41) if n])
        if abs(c) > 9:
            kinds.add("wide")
        if c < 0:
            kinds.add("negative")
        r = rng.randint(-6, 6)
        return logic.add(logic.mul(IntLit(c), Var(name)), IntLit(r)), c, r

    parts = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["bound", "bound", "meet", "equal", "holes", "pair", "divmod"])
        name = rng.choice(names)
        if kind == "bound":
            # near `c * x + r op c * p + r` for a small p, so that bounds on
            # one variable often meet or just miss each other
            term, c, r = linear(name)
            value = c * rng.randint(-3, 3) + r + rng.randint(-1, 1)
            parts.append(Cmp(rng.choice(["<", "<=", ">", ">=", "=", "!="]), term,
                             IntLit(value)))
        elif kind == "meet":
            # two bounds whose boundaries meet at one point p
            p = rng.randint(-3, 3)
            for _ in range(2):
                term, c, r = linear(name)
                parts.append(Cmp(rng.choice(["<", "<=", ">", ">="]), term, IntLit(c * p + r)))
        elif kind == "equal":
            # `c * x + r = j * c + r + d` with 0 < d < |c|: no integer x
            term, c, r = linear(name)
            if abs(c) < 2:
                continue
            value = rng.randint(-3, 3) * c + r + rng.randint(1, abs(c) - 1)
            parts.append(Cmp("=", term, IntLit(value)))
            kind = "indivisible"
        elif kind == "holes":
            # a finite interval with all, or all but one, of its points removed
            lo, width = rng.randint(-4, 4), rng.randint(0, 3)
            parts += [Cmp(">=", Var(name), IntLit(lo)), Cmp("<=", Var(name), IntLit(lo + width))]
            keep = rng.choice([None, rng.randint(lo, lo + width)])
            parts += [Cmp("!=", Var(name), IntLit(p))
                      for p in range(lo, lo + width + 1) if p != keep]
            if keep is None:
                kind = "filled"
        elif kind == "pair":
            x, y = rng.sample(names, 2)
            right = logic.add(Var(y), IntLit(rng.randint(-3, 3)))
            parts.append(Cmp(rng.choice(["<", "<=", ">", ">=", "=", "!="]), Var(x), right))
        else:
            term = rng.choice([logic.mod, logic.div])(Var(name), IntLit(rng.randint(2, 4)))
            parts.append(Cmp(rng.choice(["<", "=", "!="]), term, IntLit(rng.randint(-1, 3))))
        kinds.add(kind)
        if rng.random() < 0.3:
            parts[-1] = Not(parts[-1])
            kinds.add("negated")
    return logic.conj(parts)


def test_decide_agrees_with_the_bundled_solver():
    rng, splits = random.Random(15), random.Random(20)
    kinds, answers = set(), {"Sat": 0, "Unsat": 0, "solver": 0}
    with smt.Solver(smt.BUNDLED_SOLVER) as solver:
        for _ in range(1500):
            drawn = set()
            path = random_conjunction(rng, drawn)
            kinds |= drawn
            decided = decide(path)
            # Folded in two steps, the facts give the verdict of one read
            # (a path with no conjunct drawn is the literal true: no fold).
            if not isinstance(path, logic.BoolLit):
                width = len(path.args) if isinstance(path, logic.And) else 1
                assert decide(path, splits.randint(0, width)) == decided, path
            if "divmod" in drawn:
                assert decided is None, path
            if decided is None:
                answers["solver"] += 1
                continue
            truth = solver.check(path)
            assert not isinstance(truth, smt.Unknown), path
            assert type(decided) is type(truth), path
            answers[type(decided).__name__] += 1
    assert kinds >= {"bound", "meet", "wide", "negative", "indivisible", "holes", "filled",
                     "negated", "pair", "divmod"}
    assert min(answers.values()) > 100, answers


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
