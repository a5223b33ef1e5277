import random

from hyperfind import concrete, frontend, logic
from hyperfind.concrete import check_at, enumerate_observed, oracle_check, replay, step
from hyperfind.graph import Quantifier
from hyperfind.logic import Cmp, IntLit, Var

from conftest import bench_source, input_sign_graph, random_graph, random_observed, set_zero_graph


def test_step_follows_satisfied_guard():
    graph = input_sign_graph()
    successors = step(graph, 1, {"x": 1, "output": 0}, domain=[0, 1])
    assert successors == [(0, {"x": 1, "output": 1})]


def test_step_havoc_branches_per_domain_value():
    graph = input_sign_graph()
    successors = step(graph, 0, {"x": 0, "output": 0}, domain=[0, 1])
    assert successors == [(1, {"x": 0, "output": 0}), (1, {"x": 1, "output": 0})]


def test_step_no_successors_when_all_guards_false():
    graph = set_zero_graph()
    assert step(graph, 1, {"x": 0}, domain=[0]) == []


def test_enumerate_set_zero_k1():
    enum = enumerate_observed(set_zero_graph(), frozenset({1}), 1, [0, 1])
    assert enum.complete
    assert enum.observed == {((1, (("x", 0),)),)}


def test_enumerate_set_zero_k2_is_empty():
    enum = enumerate_observed(set_zero_graph(), frozenset({1}), 2, [0, 1])
    assert enum.complete
    assert enum.observed == set()


def voting_quantifiers(name="voting_buggy.hyp"):
    loaded = frontend.load(bench_source(name))
    return loaded.quantifiers, loaded.body


def test_oracle_buggy_voting_violated_at_k2():
    quants, body = voting_quantifiers()
    result = oracle_check(quants, body, 2, [0, 1])
    assert result.verdict == "violated"
    assert result.k == 2


def test_oracle_correct_voting_holds_to_k4():
    quants, body = voting_quantifiers("voting_correct.hyp")
    result = oracle_check(quants, body, 4, [0, 1])
    assert result.verdict == "holds"


def test_oracle_refinement_directions():
    loaded = frontend.load(bench_source("min_flip.hyp"))
    assert oracle_check(loaded.quantifiers, loaded.body, 3, [0, 1]).verdict == "holds"

    swapped = frontend.load(bench_source("flip_min.hyp"))
    result = oracle_check(swapped.quantifiers, swapped.body, 3, [0, 1])
    assert result.verdict == "violated"
    assert result.k == 1


def test_oracle_monotone_same_earliest_k():
    quants, body = voting_quantifiers()
    for bound in (2, 3, 4):
        result = oracle_check(quants, body, bound, [0, 1])
        assert result.verdict == "violated"
        assert result.k == 2


def test_exact_bound_semantics_is_not_monotone():
    # x := 0 observed once: the bound-1 semantics is violated, every larger
    # exact bound holds vacuously, and the upper-bounded verdict stays
    # violated with earliest bound 1.
    quants = [Quantifier("forall", "p", set_zero_graph(), frozenset({1}))]
    body = Cmp(">", Var("x@p"), IntLit(0))
    assert check_at(quants, body, 1, [0, 1]).verdict == "violated"
    for k in (2, 3, 4):
        assert check_at(quants, body, k, [0, 1]).verdict == "holds"
    for k in (1, 2, 3, 4):
        result = oracle_check(quants, body, k, [0, 1])
        assert result.verdict == "violated"
        assert result.k == 1


def test_enumerate_budget_flags_incomplete():
    loaded = frontend.load(bench_source("factorial.hyp"))
    prog = loaded.programs["factorial"]
    enum = enumerate_observed(prog.graph, prog.labels["end"], 1, [0, 1, 2, 3], 10)
    assert not enum.complete


def test_oracle_inconclusive_on_budget():
    loaded = frontend.load(bench_source("factorial.hyp"))
    result = oracle_check(loaded.quantifiers, loaded.body, 1, list(range(0, 30)), 20)
    assert result.verdict == "inconclusive"


def test_replay_rejects_guard_violating_step():
    graph = input_sign_graph()
    bad = [
        (0, {"x": 0, "output": 0}),
        (1, {"x": 0, "output": 0}),
        (0, {"x": 0, "output": 1}),  # takes the x>0 edge although x == 0
    ]
    result = replay(graph, frozenset({0}), bad, [bad[0], bad[2]])
    assert result == "no edge justifies step 1 -> 2 (1 -> 0)"


def test_replay_offers_any_havoc_value():
    graph = input_sign_graph()
    for value, sign in ((-7, 0), (10 ** 30, 1)):
        full = [
            (0, {"x": 0, "output": 0}),
            (1, {"x": value, "output": 0}),
            (0, {"x": value, "output": sign}),
        ]
        assert replay(graph, frozenset({0}), full, [full[0], full[2]]) is None


def test_replay_rejects_a_change_the_edge_does_not_make():
    graph = input_sign_graph()
    havoc_also_sets_output = [(0, {"x": 0, "output": 0}), (1, {"x": 3, "output": 5})]
    assert (replay(graph, frozenset({0}), havoc_also_sets_output, havoc_also_sets_output[:1])
            == "no edge justifies step 0 -> 1 (0 -> 1)")
    assign_also_sets_x = [(0, {"x": 0, "output": 0}), (1, {"x": 1, "output": 0}),
                          (0, {"x": 2, "output": 1})]
    assert (replay(graph, frozenset({0}), assign_also_sets_x,
                   [assign_also_sets_x[0], assign_also_sets_x[2]])
            == "no edge justifies step 1 -> 2 (1 -> 0)")


def test_replay_rejects_wrong_initial_state():
    graph = input_sign_graph()
    result = replay(graph, frozenset({0}), [(1, {"x": 0, "output": 0})], [])
    assert "initial" in result
    result = replay(graph, frozenset({0}), [(0, {"x": 5, "output": 0})],
                    [(0, {"x": 5, "output": 0})])
    assert "all-zero" in result


def test_replay_checks_claimed_projection():
    graph = input_sign_graph()
    full = [
        (0, {"x": 0, "output": 0}),
        (1, {"x": 1, "output": 0}),
        (0, {"x": 1, "output": 1}),
    ]
    good = replay(graph, frozenset({0}), full,
                  [(0, {"x": 0, "output": 0}), (0, {"x": 1, "output": 1})])
    assert good is None
    bad = replay(graph, frozenset({0}), full, [(0, {"x": 1, "output": 1})])
    assert bad == "observed projection does not match the claimed observed trace"


def test_enlarging_domain_never_shrinks_traces():
    rng = random.Random(12)
    for i in range(25):
        graph = random_graph(rng, f"g{i}", ("a", "b"))
        obs = random_observed(rng, graph)
        small = enumerate_observed(graph, obs, 2, [0, 1], 30)
        large = enumerate_observed(graph, obs, 2, [0, 1, 2], 30)
        if small.complete and large.complete:
            assert small.observed <= large.observed
