import random

import pytest

from hyperfind import concrete, logic
from hyperfind.graph import (
    Assign, Edge, Havoc, ProgramGraph, SKIP, Skip,
    async_product, dump, rename_vars, validate,
)
from hyperfind.logic import Cmp, IntLit, Var

from conftest import input_sign_graph, random_graph, random_observed


def test_validate_ok_on_reference_graph():
    assert validate(input_sign_graph()) == []


def test_validate_dangling_edge():
    graph = ProgramGraph("g", (0,), (Edge(0, 7, logic.TRUE, SKIP),), 0, ("x",))
    errors = validate(graph)
    assert any("dangling target location 7" in e for e in errors)


def test_validate_unknown_variable_in_guard():
    graph = ProgramGraph("g", (0, 1),
                         (Edge(0, 1, Cmp(">", Var("mystery"), IntLit(0)), SKIP),),
                         0, ("x",))
    errors = validate(graph)
    assert any("unknown variable 'mystery'" in e for e in errors)


def test_skip_edge_concrete_semantics():
    graph = ProgramGraph("g", (0, 1), (Edge(0, 1, logic.TRUE, SKIP),), 0, ("x",))
    successors = concrete.step(graph, 0, {"x": 5}, domain=[0])
    assert successors == [(1, {"x": 5})]


def test_skip_edge_with_false_guard_is_infeasible():
    graph = ProgramGraph("g", (0, 1),
                         (Edge(0, 1, Cmp("<", Var("x"), IntLit(0)), SKIP),),
                         0, ("x",))
    assert concrete.step(graph, 0, {"x": 5}, domain=[0]) == []


def two_phase_graph(name, vars_):
    """initial -> observed -> back; one havoc then one assignment."""
    a, b = vars_
    return ProgramGraph(
        name=name,
        locations=(0, 1),
        edges=(
            Edge(0, 1, logic.TRUE, Havoc(a)),
            Edge(1, 0, logic.TRUE, Assign(b, logic.add(Var(a), IntLit(1)))),
        ),
        initial=0,
        variables=vars_,
    )


def test_product_location_count_matches_schematic():
    # Two graphs with one observed location each: |O2|+1 = 2 copies of the
    # 3-location transformed G1 plus |O1| = 1 copy of the transformed G2.
    g1 = two_phase_graph("g1", ("a", "b"))
    g2 = two_phase_graph("g2", ("c", "d"))
    product = async_product(g1, frozenset({1}), g2, frozenset({1}))
    assert len(product.graph.locations) == 9
    assert validate(product.graph) == []
    assert len(product.observed) == 1


def test_product_rejects_shared_variables():
    g1 = two_phase_graph("g1", ("a", "b"))
    g2 = two_phase_graph("g2", ("a", "d"))
    with pytest.raises(ValueError, match="share"):
        async_product(g1, frozenset({1}), g2, frozenset({1}))


def test_product_rejects_empty_observation_set():
    g1 = two_phase_graph("g1", ("a", "b"))
    g2 = two_phase_graph("g2", ("c", "d"))
    with pytest.raises(ValueError, match="nonempty"):
        async_product(g1, frozenset({1}), g2, frozenset())


def test_rename_vars_prefixes_everything():
    renamed = rename_vars(input_sign_graph(), "p1")
    assert renamed.variables == ("p1.x", "p1.output")
    guard_vars = set()
    for e in renamed.edges:
        guard_vars |= logic.free_vars(e.guard)
        if isinstance(e.effect, (Assign, Havoc)):
            assert e.effect.target.startswith("p1.")
    assert guard_vars <= {"p1.x", "p1.output"}


def split_product_trace(product, trace):
    """Split a product observed trace into the two component observed traces."""
    g1_parts, g2_parts = [], []
    for loc, mem_items in trace:
        side, copy, orig, reentry = product.origin[loc]
        assert side == 2 and not reentry
        mem = dict(mem_items)
        g1_mem = {k: v for k, v in mem.items() if k in ("a", "b")}
        g2_mem = {k: v for k, v in mem.items() if k in ("c", "d")}
        g2_parts.append((orig, tuple(sorted(g2_mem.items()))))
        g1_parts.append((copy, g1_mem))  # copy index = last G1 observation index
    return tuple(g1_parts), tuple(g2_parts)


def test_product_traces_are_component_pairs():
    # Desk-scale version of the Cartesian-product correctness property;
    # the acceptance suite runs the full 100-pair variant.
    rng = random.Random(42)
    checked = 0
    for i in range(60):
        g1 = random_graph(rng, f"g1_{i}", ("a", "b"))
        g2 = random_graph(rng, f"g2_{i}", ("c", "d"))
        o1 = random_observed(rng, g1)
        o2 = random_observed(rng, g2)
        if product_pair_check(g1, o1, g2, o2, k=2):
            checked += 1
    assert checked >= 30  # enough non-degenerate samples


def product_pair_check(g1, o1, g2, o2, k) -> bool:
    """Assert product observed traces == pairs of component observed traces.

    Returns False when enumeration is inconclusive (budget) so callers can
    skip degenerate samples.
    """
    domain = [0, 1]
    e1 = concrete.enumerate_observed(g1, o1, k, domain, 60)
    e2 = concrete.enumerate_observed(g2, o2, k, domain, 60)
    product = async_product(g1, o1, g2, o2)
    assert validate(product.graph) == []
    ep = concrete.enumerate_observed(product.graph, product.observed, k, domain, 400)
    if not (e1.complete and e2.complete and ep.complete):
        return False

    o1_sorted = sorted(o1)
    expected = set()
    for t1 in e1.observed:
        for t2 in e2.observed:
            merged = []
            for (loc1, mem1), (loc2, mem2) in zip(t1, t2):
                merged.append(((o1_sorted.index(loc1) + 1, loc2),
                               tuple(sorted(dict(mem1).items())),
                               tuple(sorted(dict(mem2).items()))))
            expected.add(tuple(merged))

    actual = set()
    for trace in ep.observed:
        parts = []
        for loc, mem_items in trace:
            side, copy, orig, reentry = product.origin[loc]
            assert side == 2 and not reentry
            mem = dict(mem_items)
            mem1 = tuple(sorted((kk, vv) for kk, vv in mem.items() if kk in ("a", "b")))
            mem2 = tuple(sorted((kk, vv) for kk, vv in mem.items() if kk in ("c", "d")))
            parts.append(((copy, orig), mem1, mem2))
        actual.add(tuple(parts))

    assert actual == expected
    return True


def test_dump_format():
    text = dump(input_sign_graph(), frozenset({0}))
    lines = text.splitlines()
    assert lines[0].startswith("graph io initial=0")
    assert "0 -> 1 [true] havoc x" in lines
    assert any("-> 0 [(x > 0)] output := 1" in line for line in lines)
