import pytest

from hyperfind import concrete, frontend, logic
from hyperfind.frontend import ParseError, load
from hyperfind.graph import Quantifier
from hyperfind.logic import Cmp, IntLit, Var

from conftest import bench_source, input_sign_graph


def test_parse_voting_source():
    loaded = load(bench_source("voting_buggy.hyp"))
    assert list(loaded.programs) == ["buggy"]
    head = loaded.programs["buggy"].labels["head"]
    assert [(q.kind, q.trace_var, q.graph.name, q.observed) for q in loaded.quantifiers] == [
        ("forall", "p1", "buggy", head),
        ("exists", "p2", "buggy", head),
    ]
    assert logic.free_vars(loaded.body) == {
        "countA@p1", "countB@p1", "countA@p2", "countB@p2"}


PUNCTUATORS = (":=", "==", "!=", "<=", ">=", "&&", "||",
               "{", "}", "(", ")", ";", ".", ",", "@",
               "<", ">", "+", "-", "*", "/", "%", "!")


def tokens(source):
    return [(t.kind, t.text, t.line, t.col) for t in frontend.tokenize(source)]


def test_each_punctuator_is_read_as_one_token():
    for p in PUNCTUATORS:
        assert tokens(f"x {p}\n{p}") == [
            ("ident", "x", 1, 1), ("punct", p, 1, 3),
            ("punct", p, 2, 1), ("eof", "", 2, 1 + len(p))], p


def test_punctuators_are_read_longest_match_first():
    assert tokens("x:=y<=1") == [
        ("ident", "x", 1, 1), ("punct", ":=", 1, 2), ("ident", "y", 1, 4),
        ("punct", "<=", 1, 5), ("int", "1", 1, 7), ("eof", "", 1, 8)]
    assert tokens("!!=<<") == [
        ("punct", "!", 1, 1), ("punct", "!=", 1, 2), ("punct", "<", 1, 4),
        ("punct", "<", 1, 5), ("eof", "", 1, 6)]


@pytest.mark.parametrize("source, col", [
    ("x = 1", 3), ("x =", 3), ("x : y", 3), ("x:", 2), ("=:", 1), ("a & b", 3),
])
def test_a_lone_character_of_a_two_character_punctuator_is_refused(source, col):
    with pytest.raises(ParseError) as error:
        frontend.tokenize(source)
    bad = source[col - 1]
    assert str(error.value) == f"line 1, column {col}: unexpected character {bad!r}"
    assert (error.value.line, error.value.col) == (1, col)


def test_exists_before_forall_rejected():
    source = """
    prog p { observe a; }
    exists t1 in p obs {a} . forall t2 in p obs {a} . always (x@t1 == x@t2)
    """
    with pytest.raises(ParseError, match="quantifier prefix"):
        load(source)


def test_no_leading_forall_rejected():
    source = "prog p { observe a; }\nexists t in p obs {a} . always (x@t == 0)"
    with pytest.raises(ParseError, match="universal"):
        load(source)


def test_empty_file_rejected():
    with pytest.raises(ParseError, match="no specification|expected"):
        load("")


def test_unknown_program_in_quantifier():
    source = "prog p { observe a; }\nforall t in ghost obs {a} . always (x@t == 0)"
    with pytest.raises(ParseError, match="unknown program 'ghost'"):
        load(source)


def test_unknown_observation_label():
    source = "prog p { x := 0; observe a; }\nforall t in p obs {b} . always (x@t == 0)"
    with pytest.raises(ParseError, match="no observation label 'b'"):
        frontend.load(source)


def test_body_variable_must_belong_to_program():
    source = "prog p { x := 0; observe a; }\nforall t in p obs {a} . always (ghost@t == 0)"
    with pytest.raises(ParseError, match="not a variable of program"):
        load(source)


def test_trace_indexed_variable_rejected_in_program():
    source = "prog p { x := y@t; observe a; }\nforall t in p obs {a} . always (x@t == 0)"
    with pytest.raises(ParseError, match="only allowed in the"):
        load(source)


def test_nonlinear_multiplication_rejected_at_parse_time():
    source = "prog p { x := x * x; observe a; }\nforall t in p obs {a} . always (x@t == 0)"
    with pytest.raises(ParseError, match="nonlinear"):
        load(source)


def test_syntax_error_carries_position():
    source = "prog p {\n  x := ;\n}\nforall t in p obs {a} . always (x@t == 0)"
    with pytest.raises(ParseError) as err:
        load(source)
    assert "line 2" in str(err.value)


def test_modulo_parses_with_literal_divisor():
    source = ("prog p { if (x % 2 == 0) { x := x + 1; } else { skip; } observe a; }\n"
              "forall t in p obs {a} . always (x@t >= 0)")
    assert list(load(source).programs) == ["p"]


def test_boolean_grammar_parenthesization():
    source = ("prog p { if (((x + 1) > 0 && !(x == 2)) || x < -3) { skip; } else { skip; } "
              "observe a; }\nforall t in p obs {a} . always ((x@t) >= 0 || x@t < 0)")
    load(source)


def test_lowering_is_deterministic():
    source = bench_source("escalating.hyp")
    first = frontend.load(source)
    second = frontend.load(source)
    for name in first.programs:
        g1 = first.programs[name].graph
        g2 = second.programs[name].graph
        assert g1.locations == g2.locations
        assert g1.edges == g2.edges
        assert g1.initial == g2.initial
        assert first.programs[name].labels == second.programs[name].labels


def test_each_observe_gets_its_own_location():
    source = ("prog p { observe a; x := 1; observe a; observe b; }\n"
              "forall t in p obs {a, b} . always (x@t >= 0)")
    loaded = frontend.load(source)
    lowered = loaded.programs["p"]
    assert len(lowered.labels["a"]) == 2
    assert len(lowered.labels["b"]) == 1
    assert not (lowered.labels["a"] & lowered.labels["b"])
    # The quantifier observes the locations of both its labels.
    assert loaded.quantifiers == (
        Quantifier("forall", "t", lowered.graph, lowered.labels["a"] | lowered.labels["b"]),)


def test_straight_line_assignment_lowering():
    loaded = load("prog p { x := 0; observe a; }\nforall t in p obs {a} . always (x@t == 0)")
    lowered = loaded.programs["p"]
    # one assignment edge, one observation skip edge
    assert len(lowered.graph.edges) == 2
    assert str(lowered.graph.edges[0].effect) == "x := 0"
    assert str(lowered.graph.edges[1].effect) == "skip"


# One program with every statement kind. The golden values below pin the
# lowering: location numbering, edge order, guards and effects, the variables
# in first-use order (`v` folds away in `v * 0`), and the label locations.
EVERY_STATEMENT = """
prog p {
  x := y + 1;
  havoc h;
  input i;
  skip;
  w := v * 0;
  observe o;
  if (x > 0) { x := x - 1; observe o; } else { skip; }
  if (h == h) { h := 2; }
  while (i < 3) { i := i + 1; }
  either { x := 1; } or { havoc x; }
  observe e;
  loop { skip; }
}
forall t in p obs {o} . always (x@t >= 0)
"""


def test_lowering_golden_on_every_statement_kind():
    lowered = load(EVERY_STATEMENT).programs["p"]
    graph = lowered.graph
    assert graph.locations == tuple(range(28))
    assert graph.initial == 0
    assert [(e.src, e.dst, str(e.guard), str(e.effect)) for e in graph.edges] == [
        (0, 1, "true", "x := (y + 1)"),
        (1, 2, "true", "havoc h"),
        (2, 3, "true", "havoc i"),
        (3, 4, "true", "skip"),
        (4, 5, "true", "w := 0"),
        (5, 6, "true", "skip"),
        # if with else: both branch entries first, then each block, then the join
        (6, 7, "(x > 0)", "skip"),
        (6, 8, "(not (x > 0))", "skip"),
        (7, 9, "true", "x := (x - 1)"),
        (9, 10, "true", "skip"),
        (8, 11, "true", "skip"),
        (10, 12, "true", "skip"),
        (11, 12, "true", "skip"),
        # if without else: the condition folds to true
        (12, 13, "true", "skip"),
        (12, 14, "false", "skip"),
        (13, 15, "true", "h := 2"),
        (15, 16, "true", "skip"),
        (14, 16, "true", "skip"),
        # while: loop edge, exit edge, body, back edge to the head
        (16, 17, "(i < 3)", "skip"),
        (16, 18, "(not (i < 3))", "skip"),
        (17, 19, "true", "i := (i + 1)"),
        (19, 16, "true", "skip"),
        # either/or
        (18, 20, "true", "skip"),
        (18, 21, "true", "skip"),
        (20, 22, "true", "x := 1"),
        (21, 23, "true", "havoc x"),
        (22, 24, "true", "skip"),
        (23, 24, "true", "skip"),
        (24, 25, "true", "skip"),
        # loop: the body runs from the head; location 27 is its unreachable exit
        (25, 26, "true", "skip"),
        (26, 25, "true", "skip"),
    ]
    assert graph.variables == ("x", "y", "h", "i", "w")
    assert lowered.labels == {"o": frozenset({6, 10}), "e": frozenset({25})}


def test_syntax_error_wins_over_an_unknown_program():
    source = "prog p { observe a; }\nforall t in ghost obs {a} . always (x@t == )"
    with pytest.raises(ParseError) as err:
        load(source)
    assert str(err.value) == "line 2, column 44: expected an expression, found ')'"


def test_unknown_program_is_reported_before_an_unknown_label():
    source = ("prog p { x := 0; observe a; }\n"
              "forall t in p obs {b} . exists u in ghost obs {a} . always (x@t == 0)")
    with pytest.raises(ParseError, match="^unknown program 'ghost' in quantifier$"):
        load(source)


def observed_memory_sets(graph, obs, k, domain, budget=None):
    enum = concrete.enumerate_observed(graph, obs, k, domain, budget)
    assert enum.complete
    return {tuple(mem for _, mem in trace) for trace in enum.observed}


def test_lowered_io_loop_matches_reference_graph():
    # Golden round-trip: the lowered reactive loop produces the same
    # observed memory sequences as the hand-built two-location graph.
    loaded = frontend.load(bench_source("io_loop.hyp"))
    lowered = loaded.programs["io"]
    obs = lowered.labels["tick"]

    reference = input_sign_graph()
    for k in (1, 2, 3):
        ours = observed_memory_sets(lowered.graph, obs, k, [0, 1], budget=200)
        ref = observed_memory_sets(reference, frozenset({0}), k + 1, [0, 1], budget=200)
        # The reference observes at the loop head, so its first observation
        # is the initial state; drop it to align with observe-after-output.
        ref = {trace[1:] for trace in ref}
        assert ours == ref


def min_reference_graph():
    from hyperfind.graph import Assign, Edge, Havoc, ProgramGraph
    return ProgramGraph(
        name="min_ref",
        locations=(0, 1, 2),
        edges=(
            Edge(0, 1, logic.TRUE, Havoc("x")),
            Edge(1, 2, logic.TRUE, Havoc("y")),
            Edge(2, 0, Cmp("<", Var("x"), Var("y")), Assign("out", Var("x"))),
            Edge(2, 0, Cmp(">=", Var("x"), Var("y")), Assign("out", Var("y"))),
        ),
        initial=0,
        variables=("x", "y", "out"),
    )


def gni_reference_graph():
    from hyperfind.graph import Assign, Edge, Havoc, ProgramGraph
    return ProgramGraph(
        name="gni_ref",
        locations=(0, 1, 2, 3),
        edges=(
            Edge(0, 1, logic.TRUE, Havoc("pub")),
            Edge(1, 2, logic.TRUE, Havoc("sec")),
            Edge(2, 3, logic.TRUE, Havoc("r")),
            Edge(3, 0, logic.TRUE, Assign("out", logic.add(Var("sec"), Var("r")))),
        ),
        initial=0,
        variables=("pub", "sec", "r", "out"),
    )


@pytest.mark.parametrize("fixture,program,label,reference", [
    ("min_flip.hyp", "min", "point", min_reference_graph),
    ("gni.hyp", "server", "step", gni_reference_graph),
])
def test_lowered_fixtures_match_reference_graphs(fixture, program, label, reference):
    loaded = frontend.load(bench_source(fixture))
    lowered = loaded.programs[program]
    ref = reference()
    for k in (1, 2):
        ours = observed_memory_sets(lowered.graph, lowered.labels[label], k,
                                    [0, 1], budget=200)
        # The reference graphs observe at the loop-head location, so their
        # first observation is the all-zero initial state; drop it to align
        # with the fixtures' observe-after-output placement.
        refs = observed_memory_sets(ref, frozenset({0}), k + 1, [0, 1], budget=200)
        refs = {trace[1:] for trace in refs}
        assert ours == refs


def escalating_reference_graph():
    from hyperfind.graph import Assign, Edge, ProgramGraph, SKIP
    even = Cmp("=", logic.mod(Var("x"), IntLit(2)), IntLit(0))
    return ProgramGraph(
        name="escalating_ref",
        locations=(0, 1, 2, 3, 4),  # 0,1: init; 2: loop head (observed)
        edges=(
            Edge(0, 1, logic.TRUE, Assign("x", IntLit(0))),
            Edge(1, 2, logic.TRUE, Assign("y", IntLit(0))),
            Edge(2, 3, even, Assign("y", logic.add(Var("y"), IntLit(1)))),
            Edge(2, 3, logic.negate(even), Assign("y", logic.add(Var("y"), Var("x")))),
            Edge(3, 4, logic.TRUE, Assign("s", IntLit(2))),
            Edge(3, 4, logic.TRUE, Assign("s", IntLit(1))),
            Edge(4, 2, logic.TRUE, Assign("x", logic.add(Var("x"), Var("s")))),
        ),
        initial=0,
        variables=("x", "y", "s"),
    )


def limit_reference_graph():
    from hyperfind.graph import Assign, Edge, ProgramGraph, SKIP
    return ProgramGraph(
        name="limit_ref",
        locations=(0, 1, 2),  # 1: loop head (observed)
        edges=(
            Edge(0, 1, logic.TRUE, Assign("max", IntLit(15))),
            Edge(1, 2, logic.TRUE, Assign("max", logic.add(Var("max"), IntLit(1)))),
            Edge(1, 2, logic.TRUE, SKIP),
            Edge(2, 1, logic.TRUE, SKIP),
        ),
        initial=0,
        variables=("max",),
    )


def test_lowered_escalating_matches_reference_graphs():
    # These fixtures observe at the loop head, so no alignment shift is
    # needed: the first observation is the post-initialization state on
    # both sides.
    loaded = frontend.load(bench_source("escalating.hyp"))
    cases = [
        ("escalating", "round", escalating_reference_graph(), frozenset({2})),
        ("limit", "round", limit_reference_graph(), frozenset({1})),
    ]
    for program, label, reference, ref_obs in cases:
        lowered = loaded.programs[program]
        for k in (1, 2, 3):
            ours = observed_memory_sets(lowered.graph, lowered.labels[label], k,
                                        [0], budget=200)
            refs = observed_memory_sets(reference, ref_obs, k, [0], budget=200)
            assert ours == refs, (program, k)


def test_lowered_voting_matches_hand_simulation():
    loaded = frontend.load(bench_source("voting_buggy.hyp"))
    lowered = loaded.programs["buggy"]
    obs = lowered.labels["head"]
    tallies = set()
    enum = concrete.enumerate_observed(lowered.graph, obs, 2, [0, 1], 200)
    assert enum.complete
    for trace in enum.observed:
        tallies.add(tuple((dict(mem)["countA"], dict(mem)["countB"]) for _, mem in trace))
    assert tallies == {
        ((1, 0), (2, 0)),
        ((1, 0), (1, 2)),
        ((0, 1), (1, 1)),
        ((0, 1), (0, 1)),
    }
