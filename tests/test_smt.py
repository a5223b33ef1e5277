import random
import sys

import pytest

from hyperfind import logic, smt
from hyperfind.logic import And, BoolLit, Cmp, Implies, IntLit, Not, Or, Quant, Var
from hyperfind.smt import (
    Sat, Solver, SolverContractError, SolverError, SolverSession, Unknown, Unsat,
    formula_to_smt, term_to_smt,
)
from hyperfind.symexec import Feasibility

from conftest import random_formula


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
    if head == "=>":
        return Implies(_formula_of(args[0]), _formula_of(args[1]))
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
    if isinstance(node, Implies):
        return logic.implies(canonical(node.left), canonical(node.right))
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
                Implies(Cmp("<", Var("v!0"), Var("v!1")),
                        Cmp("!=", Var("v!0"), IntLit(-3))))
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


def test_model_soundness_on_quantifier_free(solver_argv):
    rng = random.Random(32)
    names = ["a", "b", "c"]
    sats = 0
    with SolverSession(solver_argv) as session:
        for _ in range(120):
            phi = random_formula(rng, names)
            result = session.check_formula(phi, wanted=names)
            if isinstance(result, Sat):
                sats += 1
                assert logic.eval_formula(phi, result.model) is True
    assert sats >= 40


def test_incremental_push_pop(solver_argv):
    with SolverSession(solver_argv) as session:
        session.declare(["v!0"])
        session.push()
        session.assert_formula(Cmp(">", Var("v!0"), IntLit(0)))
        assert isinstance(session.check(), Sat)
        session.pop()
        session.push()
        session.assert_formula(Cmp("<", Var("v!0"), IntLit(0)))
        assert isinstance(session.check(), Sat)
        session.pop()


def test_push_push_pop_depth(solver_argv):
    with SolverSession(solver_argv) as session:
        session.push()
        session.push()
        session.pop()
        assert session.depth == 1


def test_pop_at_depth_zero_is_contract_error(solver_argv):
    with SolverSession(solver_argv) as session:
        with pytest.raises(SolverContractError):
            session.pop()


def test_assert_undeclared_is_contract_error(solver_argv):
    with SolverSession(solver_argv) as session:
        with pytest.raises(SolverContractError, match="undeclared"):
            session.assert_formula(Cmp("=", Var("ghost"), IntLit(0)))


def test_timeout_yields_unknown(solver_argv):
    with SolverSession(solver_argv, timeout_ms=1000) as session:
        session.declare(["v!0"])
        session.assert_formula(Cmp(">", Var("v!0"), IntLit(0)))
        result = session.check(timeout_ms=0)
        assert isinstance(result, Unknown)
        assert result.reason == "timeout"


def test_reset_clears_declarations_and_stack(solver_argv):
    with SolverSession(solver_argv) as session:
        session.declare(["v!0"])
        session.push()
        session.assert_formula(Cmp("=", Var("v!0"), IntLit(3)))
        session.reset()
        assert session.depth == 0
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


def test_solver_starts_no_process_before_the_first_check(solver_argv, sessions):
    with Solver(solver_argv) as solver:
        assert solver.session is None and sessions == []
        assert isinstance(solver.check(POSITIVE), Sat)
        assert len(sessions) == 1
    assert solver.session is None
    assert sessions[0].proc.poll() is not None


def test_solver_restarts_a_killed_session_once(solver_argv, sessions):
    with Solver(solver_argv) as solver:
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


def test_solver_replaces_a_timed_out_session(solver_argv, sessions):
    with Solver(solver_argv) as solver:
        assert solver.check(POSITIVE, timeout_ms=0) == Unknown("timeout")
        assert solver.session is None
        assert isinstance(solver.check(POSITIVE), Sat)
        assert len(sessions) == 2


def test_feasibility_and_queries_share_one_session(solver_argv, sessions):
    v0 = Var("v!0")
    with Solver(solver_argv) as solver:
        feas = Feasibility(solver)
        narrow = logic.conj([Cmp(">", v0, IntLit(0)), Cmp("<", v0, IntLit(3))])
        assert isinstance(feas.check(narrow), Sat)
        # The query's binder shadows the constant v!0 that the feasibility
        # check declared; the declaration must outlive the query.
        query = Quant("forall", ("v!0",), Cmp("!=", v0, Var("v!1")))
        assert isinstance(solver.check(query, wanted=["v!1"]), Unsat)
        empty = logic.conj([Cmp(">", v0, IntLit(0)), Cmp("<", v0, IntLit(1))])
        assert isinstance(feas.check(empty), Unsat)
        assert feas.solver_calls == 2
    assert len(sessions) == 1
