import os
import random
import subprocess
import sys
import time

import pytest

import hyperfind
from hyperfind import logic, smt
from hyperfind.logic import And, BoolLit, Cmp, IntLit, Not, Or, Quant, Var
from hyperfind.smt import (
    Sat, Solver, SolverError, SolverSession, Unknown, Unsat,
    formula_to_smt, term_to_smt,
)
from hyperfind.symexec import Feasibility

from conftest import BENCH_DIR, random_formula


# ---------------------------------------------------------------------------
# Independent reference reader for the round-trip invariant: parses the
# emitted SMT-LIB text back into formula trees without using the bridge.
# ---------------------------------------------------------------------------

def _tokenize(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read(tokens, pos):
    tok = tokens[pos]
    pos += 1
    if tok != "(":
        return tok, pos
    items = []
    while tokens[pos] != ")":
        item, pos = _read(tokens, pos)
        items.append(item)
    return items, pos + 1


def _term_of(tree):
    if isinstance(tree, str):
        if tree.lstrip("-").isdigit():
            return IntLit(int(tree))
        return Var(tree)
    head, args = tree[0], tree[1:]
    if head == "-" and len(args) == 1:
        inner = _term_of(args[0])
        if isinstance(inner, IntLit):
            return IntLit(-inner.value)
        return logic.BinTerm("-", IntLit(0), inner)
    ops = {"+", "-", "*", "div", "mod"}
    assert head in ops, head
    return logic.BinTerm(head, _term_of(args[0]), _term_of(args[1]))


def _formula_of(tree):
    if tree == "true":
        return logic.TRUE
    if tree == "false":
        return logic.FALSE
    head, args = tree[0], tree[1:]
    if head == "not":
        return Not(_formula_of(args[0]))
    if head == "and":
        return And(tuple(_formula_of(a) for a in args))
    if head == "or":
        return Or(tuple(_formula_of(a) for a in args))
    if head in ("forall", "exists"):
        names = tuple(binder[0] for binder in args[0])
        return Quant(head, names, _formula_of(args[1]))
    cmps = {"=": "=", "distinct": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
    assert head in cmps, head
    return Cmp(cmps[head], _term_of(args[0]), _term_of(args[1]))


def reference_read(text):
    tree, _ = _read(_tokenize(text), 0)
    return _formula_of(tree)


def canonical(node):
    """Fold the reference reader's raw tree through the smart constructors
    so that structural comparison ignores representation-only choices."""
    if isinstance(node, (IntLit, Var, BoolLit)):
        return node
    if isinstance(node, logic.BinTerm):
        return logic._rebuild_term(node.op, canonical(node.left), canonical(node.right))
    if isinstance(node, Cmp):
        return logic.cmp(node.op, canonical(node.left), canonical(node.right))
    if isinstance(node, Not):
        return logic.negate(canonical(node.arg))
    if isinstance(node, And):
        return logic.conj([canonical(a) for a in node.args])
    if isinstance(node, Or):
        return logic.disj([canonical(a) for a in node.args])
    if isinstance(node, Quant):
        return Quant(node.kind, node.vars, canonical(node.body))
    raise TypeError(node)


def test_serialization_round_trip_random():
    rng = random.Random(31)
    names = ["a", "b", "c"]
    for _ in range(300):
        phi = random_formula(rng, names)
        text = formula_to_smt(phi)
        assert canonical(reference_read(text)) == phi


def test_serialization_round_trip_quantified():
    phi = Quant("forall", ("v!0", "v!1"),
                Or((Not(Cmp("<", Var("v!0"), Var("v!1"))),
                    Cmp("!=", Var("v!0"), IntLit(-3)))))
    assert reference_read(formula_to_smt(phi)) == phi


def test_negative_literals_serialized_with_minus():
    assert term_to_smt(IntLit(-7)) == "(- 7)"
    assert term_to_smt(IntLit(7)) == "7"


def test_check_sat_examples(solver_argv):
    v0 = Var("v!0")
    with Solver(solver_argv) as solver:
        result = solver.check(
            logic.conj([Cmp(">", v0, IntLit(0)), Cmp("<", v0, IntLit(2))]), wanted=["v!0"])
        assert result == Sat({"v!0": 1})

        result = solver.check(logic.conj([Cmp(">", v0, IntLit(0)), Cmp("<", v0, IntLit(1))]))
        assert isinstance(result, Unsat)

        quantified = Quant("forall", ("v!1",), Not(Cmp("=", Var("v!1"), v0)))
        assert isinstance(solver.check(quantified, wanted=["v!0"]), Unsat)


def test_model_completion_defaults_to_zero(solver_argv):
    with Solver(solver_argv) as solver:
        result = solver.check(Cmp(">", Var("v!0"), IntLit(5)), wanted=["v!0", "v!9"])
    assert isinstance(result, Sat)
    assert result.model["v!9"] == 0
    assert result.model["v!0"] > 5


def test_get_value_replies_are_read_exactly():
    text = "((v!0 5) (v!1 (- 3)) (big 12345678901234567891))"
    assert smt._parse_values(text) == {"v!0": 5, "v!1": -3, "big": 12345678901234567891}


@pytest.mark.parametrize("text", [
    '(error "boom")', "((x 5)", "sat", "", "((x y))", "((x 5 6))", "(((x) 5))", "((x (- y)))",
])
def test_a_malformed_get_value_reply_is_a_solver_error(text):
    with pytest.raises(SolverError):
        smt._parse_values(text)


def test_a_parenthesis_in_a_quoted_name_does_not_hold_up_a_reply():
    # The child's reply `((|a(| 3))` is complete on its first line: a
    # parenthesis inside a |quoted| symbol opens nothing.
    started = time.monotonic()
    with SolverSession(list(smt.BUNDLED_SOLVER), 5000) as session:
        result = session.check_formula(Cmp(">", Var("|a(|"), IntLit(2)), ["|a(|"])
    assert result == Sat({"|a(|": 3})
    assert time.monotonic() - started < 2.5


@pytest.fixture(params=["child", "in-process"])
def open_session(request, solver_argv):
    """Starts a `SolverSession` on each transport: a pipe to a child process
    running the resolved solver, and the bundled solver in this process."""
    if request.param == "child":
        return lambda **kwargs: SolverSession(solver_argv, **kwargs)
    return lambda **kwargs: smt.InProcessSession(smt.BUNDLED_SOLVER, **kwargs)


def test_model_soundness_on_quantifier_free(open_session):
    rng = random.Random(32)
    names = ["a", "b", "c"]
    sats = 0
    with open_session() as session:
        for _ in range(120):
            phi = random_formula(rng, names)
            result = session.check_formula(phi, wanted=names)
            if isinstance(result, Sat):
                sats += 1
                assert logic.eval_formula(phi, result.model) is True
    assert sats >= 40


def test_incremental_push_pop(open_session):
    with open_session() as session:
        session.declare(["v!0"])
        session.push()
        session.assert_formula(Cmp(">", Var("v!0"), IntLit(0)))
        assert isinstance(session.check(), Sat)
        session.pop()
        session.push()
        session.assert_formula(Cmp("<", Var("v!0"), IntLit(0)))
        assert isinstance(session.check(), Sat)
        session.pop()


def test_timeout_yields_unknown(open_session):
    with open_session(timeout_ms=1000) as session:
        session.declare(["v!0"])
        session.assert_formula(Cmp(">", Var("v!0"), IntLit(0)))
        result = session.check(timeout_ms=0)
        assert isinstance(result, Unknown)
        assert result.reason == "timeout"


def test_reset_clears_declarations_and_stack(open_session):
    with open_session() as session:
        session.declare(["v!0"])
        session.push()
        session.assert_formula(Cmp("=", Var("v!0"), IntLit(3)))
        session.reset()
        assert session.declared == set()
        session.declare(["v!0"])
        session.assert_formula(Cmp("=", Var("v!0"), IntLit(4)))
        result = session.check(wanted=["v!0"])
        assert result == Sat({"v!0": 4})


def test_resolve_solver_falls_back_to_bundled():
    argv = smt.resolve_solver()
    assert argv  # some solver is always available
    joined = " ".join(argv)
    assert any(s in joined for s in ("yices", "z3", "cvc5", "refsolver"))


# ---------------------------------------------------------------------------
# Solver: one lazily started session, one restart
# ---------------------------------------------------------------------------

POSITIVE = Cmp(">", Var("v!0"), IntLit(0))


def test_solver_starts_no_process_before_the_first_check(process_argv, sessions):
    with Solver(process_argv) as solver:
        assert solver.session is None and sessions == []
        assert isinstance(solver.check(POSITIVE), Sat)
        assert len(sessions) == 1
    assert solver.session is None
    assert sessions[0].proc.poll() is not None


def test_solver_restarts_a_killed_session_once(process_argv, sessions):
    with Solver(process_argv) as solver:
        solver.check(POSITIVE)
        sessions[0].proc.kill()
        result = solver.check(Cmp("=", Var("v!0"), IntLit(7)), wanted=["v!0"])
        assert result == Sat({"v!0": 7})
        assert len(sessions) == 2 and solver.session is sessions[1]


def test_solver_raises_after_two_failures_in_a_row(sessions):
    exits_at_once = [sys.executable, "-c", "pass"]
    with Solver(exits_at_once) as solver:
        with pytest.raises(SolverError):
            solver.check(POSITIVE)
    assert len(sessions) == 2


def test_solver_replaces_a_timed_out_session(process_argv, sessions):
    with Solver(process_argv) as solver:
        assert solver.check(POSITIVE, timeout_ms=0) == Unknown("timeout")
        assert solver.session is None
        assert isinstance(solver.check(POSITIVE), Sat)
        assert len(sessions) == 2


def feasibility_then_query(solver):
    """Feasibility checks around a query on one solver; returns the
    `Feasibility` so that the caller can read its counter."""
    v0 = Var("v!0")
    feas = Feasibility(solver)
    # A literal path is answered without the solver.
    assert isinstance(feas.check(logic.TRUE), Sat)
    assert isinstance(feas.check(logic.FALSE), Unsat)
    assert feas.solver_calls == 0
    # Both paths carry a `mod` term, so `Feasibility` sends them to the
    # solver rather than deciding them from bounds.
    even = Cmp("=", logic.mod(v0, IntLit(2)), IntLit(0))
    narrow = logic.conj([Cmp(">", v0, IntLit(0)), Cmp("<", v0, IntLit(3)), even])
    assert isinstance(feas.check(narrow), Sat)
    # The query's binder shadows the constant v!0 that the feasibility
    # check declared; the declaration must outlive the query.
    query = Quant("forall", ("v!0",), Cmp("!=", v0, Var("v!1")))
    assert isinstance(solver.check(query, wanted=["v!1"]), Unsat)
    empty = logic.conj([Cmp(">", v0, IntLit(0)), Cmp("<", v0, IntLit(2)), even])
    assert isinstance(feas.check(empty), Unsat)
    return feas


def test_feasibility_and_queries_share_one_session(process_argv, sessions):
    with Solver(process_argv) as solver:
        assert feasibility_then_query(solver).solver_calls == 2
    assert len(sessions) == 1


def test_both_transports_receive_the_same_commands(process_argv, monkeypatch):
    # Both transports are asked command values; compare them as printed,
    # which is the text a child solver reads, and compare their replies.
    received = {SolverSession: [], smt.InProcessSession: []}
    replies = {SolverSession: [], smt.InProcessSession: []}
    for transport, lines in received.items():
        def ask(self, command, deadline=None, ask=transport._ask, lines=lines,
                answers=replies[transport]):
            lines.append(smt.command_to_smt(command))
            reply = ask(self, command, deadline)
            if reply is not None:
                answers.append(reply)
            return reply
        monkeypatch.setattr(transport, "_ask", ask)
    for argv in (process_argv, smt.BUNDLED_SOLVER):
        with Solver(argv) as solver:
            feasibility_then_query(solver)
            # A sat query with a model, as a search asks for a counterexample.
            assert solver.check(Cmp("=", Var("v!1"), IntLit(-7)), wanted=["v!1", "v!2"]) \
                == Sat({"v!1": -7, "v!2": 0})

    def after_start_up(lines):
        return lines[next(i for i, line in enumerate(lines) if not line.startswith("(set-")):]
    child = after_start_up(received[SolverSession])
    assert child == after_start_up(received[smt.InProcessSession])
    assert child.count("(check-sat)") == 4 and child[-1] == "(pop 1)"
    assert replies[SolverSession] == replies[smt.InProcessSession]
    assert replies[SolverSession] == ["sat", "unsat", "unsat", "sat", {"v!1": -7, "v!2": 0}]


# ---------------------------------------------------------------------------
# The bundled solver in-process
# ---------------------------------------------------------------------------

def test_bundled_solver_runs_in_process(sessions):
    with Solver(smt.BUNDLED_SOLVER) as solver:
        first = solver._session()
        assert isinstance(first, smt.InProcessSession)
        assert feasibility_then_query(solver).solver_calls == 2
        assert solver.session is first
    assert solver.session is None
    assert sessions == []


def test_in_process_get_value_without_a_model_is_a_solver_error():
    with smt.InProcessSession(smt.BUNDLED_SOLVER) as session:
        session.declare(["v!0"])
        session.assert_formula(Cmp("<", Var("v!0"), Var("v!0")))
        assert session.check() == Unsat()
        with pytest.raises(SolverError, match="no model"):
            session._ask(("get-value", ["v!0"]), time.monotonic() + 1)
        assert not session._alive()


def test_importing_the_bridge_does_not_import_the_bundled_solver():
    # Nor what only some runs use: the child-solver pipe, the --bench
    # harness, and the dataclass machinery the package no longer has.
    code = ("import sys; from hyperfind import driver, smt; smt.resolve_solver(); "
            "print(sorted(set(sys.argv[1:]) & set(sys.modules)))")
    unwanted = ["hyperfind.refsolver", "dataclasses", "inspect", "statistics", "json",
                "subprocess", "select"]
    run = subprocess.run([sys.executable, "-c", code, *unwanted],
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_an_in_process_search_does_not_import_the_text_route():
    # The bundled solver answers the search's checks in-process from command
    # values: its SMT-LIB2 reader and loop (`smtlib`) serve only a child.
    code = ("import sys; from hyperfind import driver, smt; "
            "source = open(sys.argv[1]).read(); "
            "opts = driver.SearchOptions(solver_argv=smt.BUNDLED_SOLVER); "
            "result = driver.analyze_source(source, n=3, opts=opts); "
            "print(result.stats.sat_calls, 'hyperfind.refsolver' in sys.modules, "
            "'hyperfind.smtlib' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code,
                          os.path.join(BENCH_DIR, "min_flip.hyp")],
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["14", "True", "False"]


def test_the_bundled_solver_module_runs_the_text_loop():
    script = "(declare-const x Int)(assert (> x 2))(check-sat)(get-value (x))"
    run = subprocess.run([sys.executable, "-m", "hyperfind.refsolver"], input=script,
                         capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout.splitlines() == ["sat", "((x 3))"]


def test_the_bundled_solver_module_imports_no_search():
    # A child solver imports the package, the solver core once and the text
    # route; the public names that the search defines stay unresolved. `-B`:
    # the check writes no bytecode.
    run = subprocess.run([sys.executable, "-B", "-X", "importtime", "-m", "hyperfind.refsolver"],
                         input="(exit)\n", capture_output=True, text=True, check=True,
                         timeout=60)
    imported = [line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
    ours = [name for name in imported if name.split(".")[0] == "hyperfind"]
    assert ours == ["hyperfind", "hyperfind.logic", "hyperfind.smtlib"], ours


def test_the_public_names_resolve_on_first_use():
    code = ("import sys, hyperfind; before = 'hyperfind.driver' in sys.modules; "
            "from hyperfind import analyze_source, ParseError; "
            "names = [getattr(hyperfind, name).__name__ for name in hyperfind.__all__]; "
            "print(before, analyze_source.__module__, ParseError.__module__, "
            "names == hyperfind.__all__)")
    run = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert run.stdout.split() == ["False", "hyperfind.driver", "hyperfind.frontend", "True"]
    with pytest.raises(AttributeError, match="no attribute 'search'"):
        hyperfind.search


# 9007199254740993 = 2^53 + 1: Cooper's elimination of y enumerates that
# many disjuncts, so the check runs until its deadline (x = 2^53 + 1, y = 2
# is a model).
BIG = IntLit(9007199254740993)
SLOW = logic.conj([
    Cmp("<=", logic.mul(BIG, Var("y")), logic.mul(IntLit(2), Var("x"))),
    Cmp(">", logic.mul(BIG, Var("y")), logic.sub(logic.mul(IntLit(2), Var("x")), IntLit(3))),
    Cmp(">", Var("x"), IntLit(5)),
])


@pytest.mark.parametrize("timeout_ms", [0, 200])
def test_in_process_timeout_answers_unknown(timeout_ms):
    with Solver(smt.BUNDLED_SOLVER) as solver:
        started = time.monotonic()
        result = solver.check(SLOW, wanted=["x", "y"], timeout_ms=timeout_ms)
        elapsed_ms = 1000.0 * (time.monotonic() - started)
        assert result == Unknown("timeout")
        assert solver.session is None
    # The deadline is cooperative: it is checked between elimination steps.
    assert elapsed_ms < timeout_ms + 100
    assert elapsed_ms >= timeout_ms
