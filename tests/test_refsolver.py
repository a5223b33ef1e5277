import io
import random

import pytest

from hyperfind import refsolver
from hyperfind.refsolver import (
    Eliminator, Lin, Session, atom_dvd, atom_eq, atom_le, atom_ne,
    eval_ground, f_and, f_or, negate, parse_sexprs, run, subst_value, subst_var,
)


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


def random_node(rng, names, depth=2, wide=False):
    if depth == 0 or rng.random() < 0.45:
        lin = random_lin(rng, names, wide)
        kind = rng.random()
        if kind < 0.45:
            return atom_le(lin)
        if kind < 0.65:
            return atom_eq(lin)
        if kind < 0.8:
            return atom_ne(lin)
        return atom_dvd(rng.choice([2, 3, 4]), lin)
    parts = [random_node(rng, names, depth - 1, wide) for _ in range(rng.randint(2, 3))]
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
    rng = random.Random(52)
    elim = Eliminator(None)
    for _ in range(40):
        node = random_node(rng, ["x", "y", "z"], depth=2)
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
        session.declared = {"x": "Int", "y": "Int"}
        node = random_node(rng, ["x", "y"])
        session.stack[-1].append(node)
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
    session.declared = {"x": "Int"}
    session.stack[-1].append(
        ("exists", ["y"], f_and([atom_le(Lin({"x": 97, "y": -89}, 1)),
                                 atom_dvd(64, Lin({"x": 7, "y": 3}, 1))])))
    assert session.check_sat() == "unknown"


def session_verdict(node, names):
    session = Session()
    session.timeout_ms = 5000
    session.declared = {name: "Int" for name in names}
    session.stack[-1].append(node)
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
    session = Session()
    session.declared = {"x": "Int"}
    session.stack[-1].append(atom_eq(Lin({"x": 1}, -4)))
    assert session.check_sat() == "sat"
    assert session.get_value(["x"]) == "((x 4))"
    monkeypatch.setattr(refsolver, "solve_single", lambda node, var: None)
    with pytest.raises(refsolver.SolverInputError, match="model construction"):
        session.check_sat()
    assert session.get_value(["x"]) == "((x 0))"


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
