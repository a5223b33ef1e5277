import io
import math
import random
import time

import pytest

from hyperfind import logic, refsolver, smt, smtlib
from hyperfind.logic import BinTerm, Cmp, IntLit, Not, Or, Quant, Var
from hyperfind.refsolver import (
    Eliminator, Lin, Session, Timeout, Translator, atom, eval_ground, f_and, f_or, negate,
    node_key, solve_single, subst_var,
)
from hyperfind.smtlib import parse_sexprs, read_formula, run

from conftest import random_formula


def drive(script: str) -> str:
    out = io.StringIO()
    run(io.StringIO(script), out)
    return out.getvalue().strip()


def test_basic_sat_and_model():
    out = drive("""
(set-logic LIA)
(declare-const x Int)
(assert (and (> x 3) (< x 9) (= (mod x 3) 2)))
(check-sat)
(get-value (x))
(exit)
""")
    assert out.splitlines() == ["sat", "((x 5))"]


def test_unsat_conjunction():
    out = drive("""
(declare-const x Int)
(assert (< x 0))
(assert (> x 0))
(check-sat)
(exit)
""")
    assert out == "unsat"


def test_forall_over_integers():
    out = drive("""
(declare-const a Int)
(assert (forall ((b Int)) (or (< b a) (>= b a))))
(check-sat)
(exit)
""")
    assert out == "sat"


def test_exists_forall_alternation():
    # exists a forall b: not (2b = a)  -- pick any odd a.
    out = drive("""
(declare-const a Int)
(assert (forall ((b Int)) (not (= (* 2 b) a))))
(check-sat)
(get-value (a))
(exit)
""")
    lines = out.splitlines()
    assert lines[0] == "sat"
    value = lines[1].strip("()").split()[1]
    value = -int(value.strip("(- )")) if "(-" in lines[1] else int(value)
    assert value % 2 == 1


def test_divisibility_via_mod():
    out = drive("""
(declare-const x Int)
(assert (and (= (mod x 4) 3) (> x 10) (< x 16)))
(check-sat)
(get-value (x))
(exit)
""")
    lines = out.splitlines()
    assert lines[0] == "sat"
    value = int(lines[1].strip("()").split()[1])
    assert value % 4 == 3 and 10 < value < 16


def test_div_exactness():
    out = drive("""
(declare-const x Int)
(assert (and (= (div x 3) 5) (= (mod x 3) 2)))
(check-sat)
(get-value (x))
(exit)
""")
    assert out.splitlines() == ["sat", "((x 17))"]


def test_negative_model_values_render_as_minus():
    out = drive("""
(declare-const x Int)
(assert (< x (- 5)))
(check-sat)
(get-value (x))
(exit)
""")
    lines = out.splitlines()
    assert lines[0] == "sat"
    assert lines[1] == "((x (- 6)))"


def test_error_does_not_kill_session():
    out = drive("""
(frobnicate)
(declare-const x Int)
(assert (= x 1))
(check-sat)
(exit)
""")
    lines = out.splitlines()
    assert lines[0].startswith("(error")
    assert lines[1] == "sat"


def test_malformed_boolean_term_is_an_error_reply():
    out = drive("""
(assert ())
(assert ((< 0 1)))
(check-sat)
(exit)
""")
    lines = out.splitlines()
    assert [line.startswith("(error") for line in lines] == [True, True, False]
    assert lines[2] == "sat"


def test_push_pop_scopes_declarations():
    out = drive("""
(push 1)
(declare-const x Int)
(assert (= x 2))
(check-sat)
(pop 1)
(push 1)
(declare-const x Int)
(assert (= x 3))
(check-sat)
(get-value (x))
(exit)
""")
    assert out.splitlines() == ["sat", "sat", "((x 3))"]


def test_pop_below_zero_reports_error():
    out = drive("(pop 1)\n(exit)\n")
    assert out.startswith("(error")


def test_push_and_pop_take_a_level_count_of_any_size():
    # Push and pop keep a level count, so a huge count answers at once.
    n = 10 ** 12
    out = drive(f"(push {n})\n(assert false)\n(check-sat)\n(pop {n})\n(check-sat)\n(pop 1)\n")
    lines = out.splitlines()
    assert lines[:2] == ["unsat", "sat"]
    assert len(lines) == 3 and lines[2].startswith("(error")
    # A pop drops what was made above the level it returns to, and only that.
    assert drive("""
(push 2)
(declare-const x Int)
(push 3)
(assert (= x 1))
(pop 2)
(assert (= x 2))
(check-sat)
(get-value (x))
(pop 1)
(assert (= x 3))
(check-sat)
(get-value (x))
(pop 2)
(check-sat)
(get-value (x))
""").splitlines() == ["sat", "((x 2))", "sat", "((x 3))", "sat",
                      '(error "undeclared constant \'x\'")']


def test_parentheses_in_comments_and_quoted_symbols_do_not_end_a_command(monkeypatch):
    # A `(` in a comment or a |quoted| symbol once held every later command
    # back, and the leftover was dropped at the end of the input. Each
    # reply must come as soon as its command's last line is read.
    lines = io.StringIO("(declare-const x Int)\n(assert (> x 0)) ; x (positive\n(check-sat)\n"
                        "(declare-const |y (| Int)\n(assert (> |y (| x))\n(check-sat)\n"
                        "(get-value (x |y (|))\n(assert (> x\n 4))\n(check-sat)\n(exit)\n")
    read, replies = [], []

    class Input:
        def readline(self):
            read.append(1)
            return lines.readline()

    class Output:
        def write(self, text):
            replies.append((len(read), text.strip()))

        def flush(self):
            pass

    assert run(Input(), Output()) == 0
    assert replies == [(3, "sat"), (6, "sat"), (7, "((x 1) (|y (| 2))"), (10, "sat")]
    # Each line of a long command is scanned once, not the whole command
    # again at every line.
    scanned = []
    monkeypatch.setattr(smtlib, "tokenize_sexpr",
                        lambda text, tokenize=smtlib.tokenize_sexpr:
                        scanned.append(len(text)) or tokenize(text))
    text = "(assert (and\n" + "(> 1 0) ; (\n" * 300 + "))\n(check-sat)\n"
    assert drive(text) == "sat"
    assert sum(scanned) < 3 * len(text)
    # An incomplete command at the end of the input is an error reply.
    assert drive("(declare-const x Int)\n(check-sat\n") == '(error "unbalanced parentheses")'
    assert drive("(declare-const |x Int)\n") == '(error "unterminated quoted symbol")'


def test_classic_quantified_judgments():
    # every integer is even or odd
    assert drive("""
(assert (forall ((x Int)) (exists ((y Int)) (or (= x (* 2 y)) (= x (+ (* 2 y) 1))))))
(check-sat)
(exit)
""") == "sat"
    # the integers have no minimum
    assert drive("""
(assert (exists ((x Int)) (forall ((y Int)) (<= x y))))
(check-sat)
(exit)
""") == "unsat"
    # unbounded multiples of three above any point
    assert drive("""
(assert (forall ((x Int)) (exists ((y Int)) (and (> y x) (= (mod y 3) 0)))))
(check-sat)
(exit)
""") == "sat"
    # three-deep alternation: for the chosen z, y = z - x always works
    assert drive("""
(declare-const z Int)
(assert (forall ((x Int)) (exists ((y Int)) (= (+ x y) z))))
(check-sat)
(exit)
""") == "sat"
    # strict ordering cannot be dense over the integers
    assert drive("""
(assert (forall ((x Int)) (exists ((y Int)) (and (< x y) (< y (+ x 1))))))
(check-sat)
(exit)
""") == "unsat"


# ---------------------------------------------------------------------------
# Cooper elimination equivalence against brute force
# ---------------------------------------------------------------------------

BIG = 2 ** 53  # the first integer gap of a float
HUGE = 2 ** 70


def random_lin(rng, names, wide=False):
    """Coefficients in [-3, 3] and constants in [-6, 6]; `wide` draws
    coefficients from [-9, 9] and constants of up to HUGE in magnitude."""
    coeffs = {}
    for name in names:
        if rng.random() < 0.7:
            coeffs[name] = rng.choice([c for c in range(-9, 10) if c]) if wide \
                else rng.choice([-3, -2, -1, 1, 2, 3])
    const = rng.randint(-HUGE, HUGE) if wide else rng.randint(-6, 6)
    return Lin(coeffs, const)


def random_node(rng, names, depth=2, wide=False, ndvd=True):
    """`ndvd=False` draws a `dvd` atom where an `ndvd` atom would be drawn."""
    if depth == 0 or rng.random() < 0.45:
        lin = random_lin(rng, names, wide)
        kind = rng.random()
        if kind < 0.45:
            return atom("le", lin)
        if kind < 0.65:
            return atom("eq", lin)
        if kind < 0.8:
            return atom("ne", lin)
        return atom("dvd" if kind < 0.9 or not ndvd else "ndvd", lin, rng.choice([2, 3, 4]))
    parts = [random_node(rng, names, depth - 1, wide, ndvd) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.2:
        parts = [negate(p) for p in parts]
    return f_and(parts) if rng.random() < 0.5 else f_or(parts)


def eval_at(node, env):
    """Direct evaluation of a solver-internal node under a total env."""
    tag = node[0]
    if tag == "true":
        return True
    if tag == "false":
        return False
    if tag in ("le", "eq", "ne"):
        value = node[1].const + sum(c * env[v] for v, c in node[1].coeffs.items())
        if tag == "le":
            return value <= 0
        return (value == 0) if tag == "eq" else (value != 0)
    if tag in ("dvd", "ndvd"):
        value = node[2].const + sum(c * env[v] for v, c in node[2].coeffs.items())
        return (value % node[1] == 0) if tag == "dvd" else (value % node[1] != 0)
    if tag == "and":
        return all(eval_at(x, env) for x in node[1])
    if tag == "or":
        return any(eval_at(x, env) for x in node[1])
    raise AssertionError(node)


RELATIONS = {
    "le": lambda value, d: value <= 0,
    "eq": lambda value, d: value == 0,
    "ne": lambda value, d: value != 0,
    "dvd": lambda value, d: value % d == 0,
    "ndvd": lambda value, d: value % d != 0,
}


@pytest.mark.parametrize("tag", sorted(RELATIONS))
def test_atom_normal_form_keeps_the_relation(tag):
    # Coefficients with common factors, constants of both signs, and moduli
    # that share a factor with them (or are 1, or negative).
    moduli = (1, 2, 3, 4, 6, -4) if tag in ("dvd", "ndvd") else (0,)
    grid = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    for a in (0, 1, -2, 4, 6):
        for b in (0, 2, -3, -6):
            for c in (-7, -4, -1, 0, 3, 6):
                lin = Lin({"x": a, "y": b}, c)
                for d in moduli:
                    node = atom(tag, lin, d)
                    if node[0] not in ("true", "false"):
                        assert node[0] == tag and node[-1].coeffs
                        assert math.gcd(*node[-1].coeffs.values(), *node[1:-1]) == 1
                        assert node[1:-1] == () or node[1] > 1
                    for x, y in grid:
                        raw = RELATIONS[tag](a * x + b * y + c, abs(d))
                        assert eval_at(node, {"x": x, "y": y}) == raw, (tag, lin, d, x, y)


@pytest.mark.parametrize("tag", ["dvd", "ndvd"])
def test_atom_divisibility_by_zero_is_an_input_error(tag):
    with pytest.raises(refsolver.SolverInputError, match="divisibility by zero"):
        atom(tag, Lin({"x": 2}, 1), 0)


def test_eliminate_matches_brute_force():
    # exists x. phi(x, y) compared against scanning x over a wide window;
    # coefficients and constants are small, so any solution region must
    # intersect [-200, 200].
    rng = random.Random(51)
    elim = Eliminator(None)
    for _ in range(150):
        node = random_node(rng, ["x", "y"])
        eliminated = elim.eliminate("x", node)
        for y in range(-5, 6):
            brute = any(eval_at(node, {"x": x, "y": y}) for x in range(-200, 201))
            claimed = eval_at(eliminated, {"y": y})
            assert claimed == brute, (node, y)


def test_eliminate_three_variables_never_loses_witnesses():
    # Drawn without ndvd atoms, as before they could be drawn: with them,
    # the 33rd formula of this seed (four atoms) grows to 65 kB once z and y
    # are eliminated, and eliminating x then runs for minutes.
    rng = random.Random(52)
    elim = Eliminator(None)
    for _ in range(40):
        node = random_node(rng, ["x", "y", "z"], depth=2, ndvd=False)
        step = elim.eliminate("z", node)
        step = elim.eliminate("y", step)
        step = elim.eliminate("x", step)
        claimed = eval_ground(step)
        brute = any(
            eval_at(node, {"x": x, "y": y, "z": z})
            for x in range(-15, 16) for y in range(-15, 16) for z in range(-15, 16)
        )
        if brute:
            assert claimed  # elimination may never lose a witness
        # (a claimed witness can sit outside the scanned cube, so the
        # converse is checked only through the model-producing pipeline)


def test_session_models_satisfy_assertions():
    rng = random.Random(53)
    unknowns = 0
    for _ in range(80):
        session = Session()
        session.timeout_ms = 5000
        session.declared = {"x", "y"}
        node = random_node(rng, ["x", "y"])
        session.stack.append((0, node))
        verdict = session.check_sat()
        if verdict == "sat":
            env = {"x": session.model.get("x", 0), "y": session.model.get("y", 0)}
            assert eval_at(node, env)
        elif verdict == "unsat":
            brute = any(eval_at(node, {"x": x, "y": y})
                        for x in range(-60, 61) for y in range(-60, 61))
            assert not brute
        else:
            unknowns += 1
    assert unknowns <= 4  # pathological blowups must stay rare


def test_timeout_returns_unknown():
    session = Session()
    session.timeout_ms = 0
    session.declared = {"x"}
    session.stack.append(
        (0, ("exists", ["y"], f_and([atom("le", Lin({"x": 97, "y": -89}, 1)),
                                     atom("dvd", Lin({"x": 7, "y": 3}, 1), 64)]))))
    assert session.check_sat() == "unknown"


def session_verdict(node, names):
    session = Session()
    session.timeout_ms = 5000
    session.declared = set(names)
    session.stack.append((0, node))
    return session.check_sat(), session.model


def test_session_models_are_exact_on_wide_values():
    rng = random.Random(54)
    sats = unknowns = 0
    for _ in range(60):
        node = random_node(rng, ["x", "y"], wide=True)
        verdict, model = session_verdict(node, ["x", "y"])
        if verdict == "sat":
            sats += 1
            assert eval_at(node, {"x": model.get("x", 0), "y": model.get("y", 0)})
        elif verdict == "unknown":
            unknowns += 1
    assert sats >= 20
    assert unknowns <= 3


def test_shifting_solutions_past_float_precision_keeps_the_verdict():
    # psi(x, y) = phi(x - s, y - t) has the solutions of phi moved by
    # |s|, |t| in [BIG, HUGE]: the same verdict, and models far from zero.
    rng = random.Random(55)
    for _ in range(60):
        node = random_node(rng, ["x", "y"])
        s, t = rng.randint(BIG, HUGE), -rng.randint(BIG, HUGE)
        shifted = subst_var(subst_var(node, "x", Lin({"x": 1}, -s)), "y", Lin({"y": 1}, -t))
        verdict, _ = session_verdict(node, ["x", "y"])
        shifted_verdict, model = session_verdict(shifted, ["x", "y"])
        assert shifted_verdict == verdict, node
        if verdict == "sat":
            assert eval_at(shifted, {"x": model.get("x", 0), "y": model.get("y", 0)})
            assert eval_at(node, {"x": model.get("x", 0) - s, "y": model.get("y", 0) - t})


def test_literal_beyond_float_precision():
    out = drive("""
(declare-const x Int)
(assert (= x 12345678901234567891))
(check-sat)
(get-value (x))
(exit)
""")
    assert out.splitlines() == ["sat", "((x 12345678901234567891))"]


def test_failed_check_leaves_no_stale_model(monkeypatch):
    # x = 4 and y = x + 1; y is solved after x, so failing y alone fails
    # the model construction after x already has a value.
    session = Session()
    session.declared = {"x", "y"}
    session.stack.append((0, f_and([atom("eq", Lin({"x": 1}, -4)),
                                    atom("eq", Lin({"x": 1, "y": -1}, 1))])))
    assert session.check_sat() == "sat"
    assert session.get_value(["x", "y"]) == {"x": 4, "y": 5}
    real = refsolver.solve_single
    monkeypatch.setattr(refsolver, "solve_single",
                        lambda node, var, *rest: None if var == "y" else real(node, var, *rest))
    with pytest.raises(refsolver.SolverInputError, match="model construction"):
        session.check_sat()
    with pytest.raises(refsolver.SolverInputError, match="no model"):
        session.get_value(["x", "y"])


NO_MODEL = '(error "no model: the last check-sat did not answer sat, or the assertions changed since")'


def test_get_value_without_a_sat_check_is_an_error():
    out = drive("(declare-const x Int)(assert (> x 0))(assert (< x 0))(check-sat)"
                "(get-value (x))(reset)(get-value (y))\n")
    assert out.splitlines() == ["unsat", NO_MODEL, NO_MODEL]


def test_get_value_after_sat_reads_the_model():
    # A declared name that the model leaves out reads 0; an undeclared one
    # is an error, and the model outlives it.
    out = drive("(declare-const x Int)(declare-const z Int)(assert (> x 3))(check-sat)"
                "(get-value (x z))(get-value (w))(declare-const w Int)(get-value (x w))\n")
    assert out.splitlines() == ["sat", "((x 4) (z 0))", "(error \"undeclared constant 'w'\")",
                                "((x 4) (w 0))"]


def test_get_value_after_a_later_assert_is_an_error():
    out = drive("(declare-const x Int)(assert (> x 3))(check-sat)(assert (> x 5))"
                "(get-value (x))(check-sat)(get-value (x))\n")
    assert out.splitlines() == ["sat", NO_MODEL, "sat", "((x 6))"]


def test_binder_does_not_undeclare_a_shadowed_constant():
    out = drive("""
(declare-const x Int)
(push 1)
(assert (forall ((x Int)) (or (< x 0) (>= x 0))))
(check-sat)
(pop 1)
(assert (= x 3))
(check-sat)
(get-value (x))
(exit)
""")
    assert out.splitlines() == ["sat", "sat", "((x 3))"]


def test_a_symbol_reserved_for_solvers_is_refused():
    # The quotient of `div x 2` is bound as `.q1`: a constant of that name
    # would be captured, and `.q1 = 100, x = 7` would answer sat though
    # 100 + 3 != 6. SMT-LIB reserves symbols that start with `.` for
    # solvers: their declaration is refused, and so is a comparison that
    # names a quotient of its own, even through a binder.
    out = drive("""
(declare-const .q1 Int)
(declare-const x Int)
(assert (= x 7))
(assert (= .q1 100))
(assert (= (+ .q1 (div x 2)) 6))
(assert (forall ((.q1 Int)) (= (+ .q1 (div x 2)) 6)))
(check-sat)
(get-value (.q1 x))
""")
    reserved = '(error "symbol .q1 is reserved for solvers")'
    undeclared = "(error \"undeclared constant '.q1'\")"
    assert out.splitlines() == [reserved, undeclared, reserved, reserved, "sat", undeclared]


# ---------------------------------------------------------------------------
# Deciding the last variable by evaluation
# ---------------------------------------------------------------------------

def random_single(rng, depth=2):
    """A one-variable formula over x: le/eq/ne/dvd/ndvd atoms with
    coefficients in [-4, 4], constants in [-20, 20] and moduli up to 12,
    under and/or (sometimes negated)."""
    if depth == 0 or rng.random() < 0.4:
        lin = Lin({"x": rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])}, rng.randint(-20, 20))
        tag = rng.choice(["le", "le", "eq", "ne", "dvd", "ndvd"])
        return atom(tag, lin, rng.randint(2, 12) if tag in ("dvd", "ndvd") else 0)
    parts = [random_single(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.2:
        parts = [negate(p) for p in parts]
    return f_and(parts) if rng.random() < 0.5 else f_or(parts)


def test_one_variable_decisions_match_the_least_solution():
    # Every boundary floor(-r/c) has |b| <= 20, and the least-|x| solution,
    # if any, lies within delta of 0 or of a boundary; scanning |x| up to
    # 20 + delta + 3 therefore finds it, or shows that there is none.
    rng = random.Random(56)
    verdicts = set()
    for _ in range(400):
        node = random_single(rng)
        moduli = [a[1] for a in refsolver._atoms(node) if a[0] in ("dvd", "ndvd")]
        window = 20 + math.lcm(*moduli) + 3 if moduli else 24
        brute = next((x for m in range(window + 1) for x in (m, -m)
                      if eval_at(node, {"x": x})), None)
        verdict, model = session_verdict(node, ["x"])
        verdicts.add(verdict)
        assert verdict == ("unsat" if brute is None else "sat"), node
        if brute is not None:
            assert model.get("x", 0) == brute, node
    assert verdicts == {"sat", "unsat"}


def test_one_variable_decision_checks_the_deadline():
    # 10^12 candidates; the deadline ends the search, not the range.
    node = atom("dvd", Lin({"x": 1}, 1), 10 ** 12)
    with pytest.raises(Timeout):
        solve_single(node, "x", {}, Eliminator(time.monotonic() - 1).tick)
    session = Session()
    session.timeout_ms = 50
    session.declared = {"x"}
    session.stack.append((0, f_and([node, atom("le", Lin({"x": -1}, 1))])))  # x >= 1
    started = time.monotonic()
    assert session.check_sat() == "unknown"
    assert time.monotonic() - started < 5


@pytest.mark.parametrize("command", [
    "(declare-const)",
    "(assert (< (-) 1))",
    "(push x)",
    "(pop x)",
    "(set-option :timeout x)",
])
def test_malformed_command_is_an_error_reply(command):
    out = drive(f"""
{command}
(declare-const y Int)
(assert (= y 1))
(check-sat)
(exit)
""")
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("(error"), out
    assert lines[1] == "sat"


# ---------------------------------------------------------------------------
# One translator: a formula and its printed text give the same node
# ---------------------------------------------------------------------------

DECLARED = {"a", "b", "c"}


def by_value(formula):
    declared = set(DECLARED)
    node = Translator(declared).to_formula(formula)
    assert declared == DECLARED  # binders leave the declarations as they were
    return node


def by_text(formula):
    """The stand-alone route: print, parse, read, translate."""
    (tree,) = parse_sexprs(smt.formula_to_smt(formula))
    return by_value(read_formula(tree))


def random_query(rng):
    """random_formula's comparisons (with div, mod, * by a literal and
    negative literals) and implications, written `(or (not a) b)`, sometimes a literal beyond 2^53 of
    either sign, sometimes under nested quantifiers whose outer binder
    shadows the declared constant a."""
    phi = random_formula(rng, ["a", "b", "c"])
    if rng.random() < 0.3:
        big = IntLit(rng.choice([1, -1]) * rng.randint(BIG, HUGE))
        phi = logic.conj([phi, logic.cmp(rng.choice(["<", "=", ">="]),
                                         logic.add(Var("b"), big), Var("c"))])
    if rng.random() < 0.4:
        inner = Quant("exists", ("z",), logic.disj([
            logic.negate(Cmp("<", Var("z"), Var("a"))), random_formula(rng, ["a", "z"])]))
        phi = Quant(rng.choice(["forall", "exists"]), ("a",), logic.conj([inner, phi]))
    return phi


def test_a_formula_and_its_text_translate_to_the_same_node():
    rng = random.Random(57)
    kinds = set()
    for _ in range(300):
        phi = random_query(rng)
        kinds.add(type(phi).__name__)
        assert node_key(by_value(phi)) == node_key(by_text(phi)), phi
    assert {"Quant", "And", "Or"} <= kinds


A, B, C = Var("a"), Var("b"), Var("c")


@pytest.mark.parametrize("text, formula", [
    ("(= (- a b c) 0)", Cmp("=", BinTerm("-", BinTerm("-", A, B), C), IntLit(0))),
    ("(= (+ a b c) (+))", Cmp("=", BinTerm("+", BinTerm("+", A, B), C), IntLit(0))),
    ("(< (- a) (- 7))", Cmp("<", BinTerm("-", IntLit(0), Var("a")), IntLit(-7))),
    ("(=> (< a 1) (< b 1) (< c 1))",
     Or((Not(Cmp("<", Var("a"), IntLit(1))),
         Or((Not(Cmp("<", Var("b"), IntLit(1))), Cmp("<", Var("c"), IntLit(1))))))),
])
def test_n_ary_text_reads_as_nested_binary_nodes(text, formula):
    (tree,) = parse_sexprs(text)
    assert node_key(by_value(read_formula(tree))) == node_key(by_value(formula))


@pytest.mark.parametrize("term, message", [
    (Var("ghost"), "undeclared constant 'ghost'"),
    (BinTerm("*", Var("a"), BinTerm("+", Var("b"), IntLit(1))), "nonlinear multiplication"),
    (BinTerm("div", Var("a"), IntLit(0)), "div requires a positive literal divisor"),
    (BinTerm("mod", Var("a"), Var("b")), "mod requires a positive literal divisor"),
    # A comparison's names are checked once its terms are read.
    (BinTerm("+", Var("ghost"), BinTerm("div", Var("a"), IntLit(0))),
     "div requires a positive literal divisor"),
])
def test_both_routes_reject_the_same_terms(term, message):
    phi = Cmp("<", term, IntLit(-3))
    for route in (by_value, by_text):
        with pytest.raises(refsolver.SolverInputError, match=message):
            route(phi)
