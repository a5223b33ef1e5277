import os
import random

import pytest

from hyperfind import frontend, logic, smt, symexec
from hyperfind.logic import (
    And, BinTerm, BoolLit, Cmp, EvalError, IntLit, Not, Quant, Var,
    eval_formula, eval_term, free_vars, substitute,
)
from hyperfind.symexec import Feasibility, FreshSupply, Walk

from conftest import (BENCH_DIR, assert_equivalent, bench_source, random_formula,
                      random_term, symbolic_trace, tree_nodes)


def test_records_keep_dataclass_semantics():
    from hyperfind.driver import BenchRow, SearchOptions, SearchStats
    from hyperfind.graph import Edge, SKIP
    from hyperfind.symexec import SymState

    # Equality is type-aware, unlike a tuple's; a hash is its field tuple's.
    assert IntLit(1) != BoolLit(True) and IntLit(1) == IntLit(1)
    assert hash(IntLit(3)) == hash((3,))
    state = SymState(0, logic.TRUE, {"x": IntLit(0)})
    # One instance per class with its own methods: each agrees with the
    # generic record methods, as a dataclass's would.
    samples = [IntLit(3), Var("x"), BinTerm("+", Var("x"), IntLit(1)), BoolLit(False),
               Cmp("<", Var("x"), IntLit(2)), Not(Cmp("<", Var("x"), IntLit(2))),
               And((Var("x"), Var("y"))), logic.Or((Var("x"),)),
               Quant("exists", ("x",), Cmp("<", Var("x"), IntLit(2))),
               Edge(0, 1, logic.TRUE, SKIP), state, frontend.Token("int", "7", 1, 2)]
    for record in samples:
        # A state takes its memory as a dict, and shows it as the sorted
        # pairs `mem`.
        twin = (SymState(state.loc, state.path, dict(state.mem)) if record is state
                else type(record)(*record._values()))
        assert twin == record and not twin != record
        assert hash(twin) == hash(record) == hash(record._values())
        assert logic.Record.__eq__(twin, record) is True
        assert repr(record) == logic.Record.__repr__(record)
    # `smt.Sat` and `symexec.Facts` have their own positional constructors,
    # and no two results share a model.
    assert smt.Sat({"x": 1}) == smt.Sat({"x": 1}) != smt.Sat({})
    assert repr(smt.Sat({"x": 1})) == "Sat(model={'x': 1})"
    facts = symexec.Facts({"x": (0, 1, frozenset())}, frozenset(), False, True)
    assert repr(facts) == logic.Record.__repr__(facts) == (
        "Facts(bounds={'x': (0, 1, frozenset())}, paired=frozenset(), empty=False, ask=True)")
    assert facts == symexec.Facts(*facts._values())
    open_path = symexec.Facts({}, frozenset(), False, False)
    first, second = symexec._verdict(open_path), symexec._verdict(open_path)
    assert first == second == smt.Sat({}) and first.model is not second.model
    assert repr(BinTerm("+", Var("x"), IntLit(1))) == \
        "BinTerm(op='+', left=Var(name='x'), right=IntLit(value=1))"
    # A trace's fields are its states and observed states, read off its
    # chain; `proved` takes no part in its repr, equality or hash.
    trace = symbolic_trace((state, state), (state,), proved=False)
    assert repr(trace) == f"SymTrace(states=({state!r}, {state!r}), observed=({state!r},))"
    assert trace == symbolic_trace((state, state), (state,))
    assert hash(trace) == hash(trace._values()) == hash(((state, state), (state,)))
    # A frozen record refuses assignment; a mutable one is unhashable.
    for record in (IntLit(3), state, SKIP):
        with pytest.raises(AttributeError):
            record.value = 4
    with pytest.raises(TypeError):
        hash(SearchStats())
    stats = SearchStats()
    stats.sat_calls += 1
    assert stats == SearchStats(sat_calls=1)
    # The generic constructor takes positions, keywords and defaults.
    assert SearchOptions() == SearchOptions(None, None, 2_000_000, smt.DEFAULT_QUERY_TIMEOUT_MS,
                                            smt.DEFAULT_FEASIBILITY_TIMEOUT_MS, None, None)
    assert SearchOptions(step_budget=140).step_budget == 140
    for bad in ({"bogus": 1}, {"solver_argv": None, "x": 2}):
        with pytest.raises(TypeError):
            SearchOptions(**bad)
    with pytest.raises(TypeError):
        SearchOptions(None, solver_argv=None)
    row = BenchRow("a", "error", None, None, None, error="boom")
    assert row.__dict__ == {"name": "a", "verdict": "error", "k": None, "combinations": None,
                            "median_wall_ms": None, "error": "boom"}


def test_eval_term_literal_arithmetic():
    assert eval_term(logic.add(Var("x"), IntLit(1)), {"x": 2}) == 3
    assert eval_term(logic.mul(IntLit(2), Var("x")), {"x": 3}) == 6


def test_eval_term_unbound_variable_names_it():
    with pytest.raises(EvalError, match="'x'"):
        eval_term(Var("x"), {"y": 0})


def test_eval_formula_basics():
    assert eval_formula(Cmp(">", Var("x"), IntLit(0)), {"x": 1}) is True
    assert eval_formula(Cmp("=", Var("x"), Var("y")), {"x": 2, "y": 3}) is False


def test_eval_formula_rejects_quantifiers():
    quantified = Quant("forall", ("v",), Cmp(">=", Var("v"), IntLit(0)))
    with pytest.raises(EvalError, match="quantified"):
        eval_formula(quantified, {})


def test_euclidean_div_mod_match_smtlib_for_positive_divisors():
    # (div a b), (mod a b) with b > 0: remainder in [0, b)
    for a in range(-9, 10):
        assert eval_term(logic.mod(Var("a"), IntLit(3)), {"a": a}) in (0, 1, 2)
        q = eval_term(logic.div(Var("a"), IntLit(3)), {"a": a})
        r = eval_term(logic.mod(Var("a"), IntLit(3)), {"a": a})
        assert 3 * q + r == a


def test_mul_requires_a_literal_operand():
    with pytest.raises(ValueError, match="nonlinear"):
        logic.mul(Var("x"), Var("y"))


def test_div_requires_positive_literal_divisor():
    with pytest.raises(ValueError):
        logic.div(Var("x"), Var("y"))
    with pytest.raises(ValueError):
        logic.div(Var("x"), IntLit(0))


def test_substitute_term():
    term = logic.add(Var("x"), Var("y"))
    out = substitute(term, {"x": logic.add(Var("z"), IntLit(1))})
    assert out == logic.add(logic.add(Var("z"), IntLit(1)), Var("y"))


def test_substitute_identity():
    phi = Cmp(">", Var("x"), IntLit(0))
    assert substitute(phi, {"x": Var("x")}) == phi


def test_substitute_avoids_capture():
    # (exists v. v = x)[x -> v] must rename the binder, not capture.
    phi = Quant("exists", ("v",), Cmp("=", Var("v"), Var("x")))
    out = substitute(phi, {"x": Var("v")})
    assert isinstance(out, Quant)
    bound = out.vars[0]
    assert bound != "v"
    assert out.body == Cmp("=", Var(bound), Var("v"))
    assert free_vars(out) == {"v"}


def test_free_vars():
    assert free_vars(logic.add(Var("x"), IntLit(1))) == {"x"}
    assert free_vars(Quant("forall", ("v",), Cmp("=", Var("v"), Var("x")))) == {"x"}
    assert free_vars(Cmp(">", IntLit(3), IntLit(2))) == set()


def test_constant_folding():
    assert logic.add(IntLit(2), IntLit(3)) == IntLit(5)
    assert logic.cmp("<", IntLit(1), IntLit(2)) == logic.TRUE
    assert logic.conj([logic.TRUE, logic.TRUE]) == logic.TRUE
    assert logic.conj([logic.FALSE, Cmp("=", Var("x"), IntLit(0))]) == logic.FALSE
    assert logic.disj([]) == logic.FALSE
    assert logic.forall((), logic.FALSE) == logic.FALSE


SELF_COMPARED = {
    "var": lambda: Var("x"),
    "div": lambda: logic.div(logic.add(Var("x"), Var("y")), IntLit(3)),
    "mod": lambda: logic.mod(logic.mul(IntLit(2), Var("x")), IntLit(4)),
    "offset": lambda: logic.sub(Var("x"), IntLit(4)),
}


@pytest.mark.parametrize("build", SELF_COMPARED.values(), ids=SELF_COMPARED.keys())
def test_cmp_folds_a_term_compared_with_itself(build):
    # Two equal terms built apart, or a term and an offset of it, fold
    # under every operator, to the value that the comparison has at every
    # point.
    term = build()
    other = logic.add(term, IntLit(1))
    for op, value in (("=", True), ("<=", True), (">=", True),
                      ("!=", False), ("<", False), (">", False)):
        assert logic.cmp(op, term, build()) == BoolLit(value)
        shifted = logic.cmp(op, term, other)
        assert isinstance(shifted, BoolLit)
        for x, y in ((-5, 2), (0, 0), (7, -3)):
            assert eval_formula(Cmp(op, term, term), {"x": x, "y": y}) is value
            assert eval_formula(Cmp(op, term, other), {"x": x, "y": y}) is shifted.value
        assert logic.cmp(op, term, Var("z")) == Cmp(op, term, Var("z"))


def test_literal_offsets_fold():
    x = Var("x")
    assert logic.sub(logic.sub(x, IntLit(1)), IntLit(1)) == logic.sub(x, IntLit(2))
    assert logic.add(logic.sub(x, IntLit(3)), IntLit(3)) == x
    assert logic.add(IntLit(5), logic.sub(x, IntLit(2))) == logic.add(x, IntLit(3))
    assert logic.sub(logic.add(x, IntLit(1)), IntLit(4)) == logic.sub(x, IntLit(3))
    # a literal on the left of `-`, or an offset that is not a literal, stays
    assert logic.sub(IntLit(1), logic.sub(x, IntLit(1))) == \
        BinTerm("-", IntLit(1), BinTerm("-", x, IntLit(1)))
    assert logic.add(logic.add(x, Var("y")), IntLit(1)) == \
        BinTerm("+", BinTerm("+", x, Var("y")), IntLit(1))


def test_folded_offset_chains_keep_their_value():
    # `k + t` folds only into a `t` that already ends in an offset; a chain
    # of trailing offsets alone always folds to one.
    rng = random.Random(10)
    for _ in range(300):
        base = logic.add(Var("x"), Var("y")) if rng.random() < 0.5 else Var("x")
        raw = folded = base
        trailing = rng.random() < 0.5
        for _ in range(rng.randint(1, 8)):
            k = IntLit(rng.randint(-5, 5))
            op = rng.choice(["+", "-"] if trailing else ["+", "-", "k+"])
            if op == "k+":
                raw, folded = BinTerm("+", k, raw), logic.add(k, folded)
            else:
                raw = BinTerm(op, raw, k)
                folded = (logic.add if op == "+" else logic.sub)(folded, k)
        if trailing:
            assert folded == base or folded.left == base
        for x in range(-3, 4):
            rho = {"x": x, "y": rng.randint(-9, 9)}
            assert eval_term(folded, rho) == eval_term(raw, rho)


def test_countdown_paths_stay_small(solver_argv):
    # Each loop pass of factorial.hyp decrements n, so the path of the k-th
    # pass holds k guards over n - 1, n - 2, ...: each is one subtraction.
    prog = frontend.load(bench_source("factorial.hyp")).programs["factorial"]
    with smt.Solver(solver_argv) as solver:
        walk = Walk(prog.graph, prog.labels["end"], 1, FreshSupply(), Feasibility(solver),
                    step_budget=140)
        stream = walk.stream(1)
        list(stream)
    sizes = [len(smt.formula_to_smt(node.path)) for node in tree_nodes(walk)
             if isinstance(node.path, logic.And)]
    assert stream.incomplete and len(sizes) > 60
    assert max(sizes) < 1000


def test_conj_flattens_nested():
    a = Cmp("=", Var("x"), IntLit(0))
    b = Cmp("=", Var("y"), IntLit(1))
    c = Cmp("=", Var("z"), IntLit(2))
    out = logic.conj([logic.conj([a, b]), c])
    assert isinstance(out, And) and out.args == (a, b, c)


def _compose(sigma, rho):
    return {name: eval_term(term, rho) for name, term in sigma.items()}


def test_substitution_lemma_smoke():
    # The full 1000-triple run lives in the acceptance suite.
    rng = random.Random(7)
    names = ["a", "b", "c", "d"]
    for _ in range(150):
        phi = random_formula(rng, names)
        sigma = {name: random_term(rng, names) for name in rng.sample(names, rng.randint(0, 4))}
        rho = {name: rng.randint(-8, 8) for name in names}
        direct = eval_formula(substitute(phi, sigma), rho)
        composed_env = dict(rho)
        composed_env.update(_compose(sigma, rho))
        assert direct == eval_formula(phi, composed_env)


def _raw_term(rng, names, depth=2):
    """A term built without the smart constructors, so nothing in it is
    folded yet: `substitute` and a substituter fold it as they rebuild it."""
    if depth == 0 or rng.random() < 0.3:
        return IntLit(rng.randint(-4, 4)) if rng.random() < 0.4 else Var(rng.choice(names))
    op = rng.choice(["+", "-", "*", "div", "mod"])
    if op in ("+", "-"):
        return BinTerm(op, _raw_term(rng, names, depth - 1), _raw_term(rng, names, depth - 1))
    literal = IntLit(rng.randint(1, 3) if op != "*" else rng.randint(-2, 2))
    if op == "*" and rng.random() < 0.5:
        return BinTerm(op, literal, _raw_term(rng, names, depth - 1))
    return BinTerm(op, _raw_term(rng, names, depth - 1), literal)


def _raw_formula(rng, names, depth=3):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.1:
            return BoolLit(rng.random() < 0.5)
        return Cmp(rng.choice(["=", "!=", "<", "<=", ">", ">="]),
                   _raw_term(rng, names), _raw_term(rng, names))
    kind = rng.choice(["not", "not not", "and", "or"])
    if kind == "not":
        return Not(_raw_formula(rng, names, depth - 1))
    if kind == "not not":
        return Not(Not(_raw_formula(rng, names, depth - 1)))
    parts = tuple(_raw_formula(rng, names, depth - 1) for _ in range(rng.randint(1, 3)))
    return And(parts) if kind == "and" else logic.Or(parts)


def test_evaluator_agrees_with_the_evaluators():
    # A compiled term or formula takes every environment to what the
    # evaluators read from the tree, and raises where they raise.
    rng = random.Random(31)
    names = ["a", "b", "c"]
    for _ in range(300):
        phi = _raw_formula(rng, names)
        term = _raw_term(rng, names)
        holds, value = logic.evaluator(phi), logic.evaluator(term)
        for _ in range(4):
            rho = {name: rng.randint(-6, 6) for name in names}
            assert holds(rho) is eval_formula(phi, rho)
            assert value(rho) == eval_term(term, rho)
    with pytest.raises(EvalError, match="'x'"):
        logic.evaluator(logic.add(Var("x"), IntLit(1)))({"y": 0})
    quantified = Quant("forall", ("v",), Cmp(">=", Var("v"), IntLit(0)))
    with pytest.raises(EvalError, match="quantified"):
        logic.evaluator(Not(quantified))({})


def _sigmas(rng, names, images):
    """Substitutions of some of `names`, by terms over `images`, by literals
    (which fold the node down) and by nothing."""
    yield {}
    for _ in range(3):
        yield {name: random_term(rng, images) for name in names if rng.random() < 0.7}
    yield {name: IntLit(rng.randint(-3, 3)) for name in names}


def _assert_substituter_agrees(node, sigmas):
    compiled = logic.substituter(node)
    for sigma in sigmas:
        expected = substitute(node, sigma)
        assert compiled(sigma) == expected, (node, sigma)
        assert type(compiled(sigma)) is type(expected)


def test_substituter_agrees_with_substitute_term_for_term():
    rng = random.Random(23)
    names, images = ["a", "b", "c", "d"], ["a", "v!0", "v!1"]
    for _ in range(300):
        for node in (random_formula(rng, names, 3), random_term(rng, names, 3),
                     _raw_formula(rng, names), _raw_term(rng, names, 3)):
            _assert_substituter_agrees(node, list(_sigmas(rng, names, images)))
    with pytest.raises(TypeError):
        logic.substituter(Quant("exists", ("a",), Cmp("<", Var("a"), Var("b"))))


def test_substituter_agrees_on_every_shipped_guard_effect_and_body():
    # Every edge of every input's programs, of their renamed copies and of
    # their products, and every body as loaded and as generalized.
    from hyperfind import driver
    from hyperfind.graph import Assign, async_product, rename_vars

    rng = random.Random(29)
    images = ["v!0", "v!1", "ev!2"]
    names = sorted(name[:-4] for name in os.listdir(BENCH_DIR) if name.endswith(".hyp"))
    assert len(names) == 18
    for name in names:
        loaded = frontend.load(bench_source(f"{name}.hyp"))
        spec = driver.generalize(loaded)
        graphs = [program.graph for program in loaded.programs.values()]
        graphs += [side.graph for side in (spec.universal, spec.existential) if side]
        for q in loaded.quantifiers:
            graphs.append(async_product(rename_vars(q.graph, "l"), q.observed,
                                        rename_vars(q.graph, "r"), q.observed).graph)
        for graph in graphs:
            sigmas = list(_sigmas(rng, graph.variables, images))
            for edge in graph.edges:
                _assert_substituter_agrees(edge.guard, sigmas)
                if isinstance(edge.effect, Assign):
                    _assert_substituter_agrees(edge.effect.expr, sigmas)
        for body in (loaded.body, spec.body):
            _assert_substituter_agrees(body, list(_sigmas(rng, sorted(free_vars(body)), images)))


def test_free_vars_of_substitution_bound():
    rng = random.Random(8)
    names = ["a", "b", "c", "d"]
    for _ in range(200):
        phi = random_formula(rng, names)
        sigma = {name: random_term(rng, names) for name in rng.sample(names, rng.randint(0, 4))}
        out_fv = free_vars(substitute(phi, sigma))
        phi_fv = free_vars(phi)
        allowed = (phi_fv - set(sigma)) | set().union(
            *(free_vars(sigma[x]) for x in set(sigma) & phi_fv)) if sigma else phi_fv
        assert out_fv <= allowed


def test_eval_total_on_quantifier_free():
    rng = random.Random(9)
    names = ["a", "b", "c", "d"]
    for _ in range(300):
        phi = random_formula(rng, names)
        rho = {name: rng.randint(-8, 8) for name in names}
        assert eval_formula(phi, rho) in (True, False)


# ---------------------------------------------------------------------------
# The one-point rule in the quantifier constructors
# ---------------------------------------------------------------------------

def _eq(x, t):
    return logic.cmp("=", Var(x), t)


def test_quantifier_without_pin_is_unchanged():
    e0, e1, v = Var("e0"), Var("e1"), Var("v")
    for matrix in (
            logic.conj([logic.cmp("<", e0, v), logic.cmp("<=", e1, IntLit(3))]),
            # e0's only pin has an image that mentions the binder e1
            logic.conj([_eq("e0", logic.add(e1, v)), logic.cmp(">", e1, e0)]),
            logic.cmp("!=", e0, v)):
        assert logic.forall(("e0", "e1"), Not(matrix)) == \
            Quant("forall", ("e0", "e1"), Not(matrix))
        assert logic.exists(("e0", "e1"), matrix) == Quant("exists", ("e0", "e1"), matrix)
    # a body that is not a negated conjunction is not rewritten either
    body = logic.disj([logic.negate(_eq("e0", v)), logic.cmp(">", e0, IntLit(0))])
    assert logic.forall(("e0",), body) == Quant("forall", ("e0",), body)


def test_one_point_rule_shapes():
    e0, e1, e2, v, w = (Var(n) for n in ("e0", "e1", "e2", "v", "w"))
    # a chain: e1's image mentions e0 until e0's pin is applied
    chain = logic.conj([_eq("e1", logic.add(e0, IntLit(1))), logic.cmp("=", v, e0),
                        logic.cmp("<", e1, w)])
    assert logic.forall(("e0", "e1"), Not(chain)) == \
        Not(Cmp("<", logic.add(v, IntLit(1)), w))
    assert logic.exists(("e0", "e1"), chain) == Cmp("<", logic.add(v, IntLit(1)), w)
    # e2's image mentions e1, which no conjunct pins: both stay bound, in order
    kept = logic.conj([_eq("e2", logic.add(e1, v)), _eq("e0", w),
                       logic.cmp("<", e1, e0)])
    assert logic.forall(("e0", "e1", "e2"), Not(kept)) == \
        Quant("forall", ("e1", "e2"), Not(logic.conj([_eq("e2", logic.add(e1, v)),
                                                       logic.cmp("<", e1, w)])))
    # a binder pinned twice: the second pin compares the two images, and a
    # pin repeated folds away; a block whose matrix folds to true is false
    assert logic.forall(("e0",), Not(logic.conj([_eq("e0", v), _eq("e0", w)]))) == \
        Not(Cmp("=", v, w))
    assert logic.forall(("e0",), Not(logic.conj([_eq("e0", v), logic.cmp("=", v, e0)]))) \
        == logic.FALSE
    assert logic.exists(("e0",), _eq("e0", v)) == logic.TRUE
    # a binder that the result no longer mentions is dropped
    assert logic.exists(("e0", "e1"), logic.conj([_eq("e0", v), logic.cmp("<", e0, w)])) \
        == Cmp("<", v, w)


FREE = ("v0", "v1")
BINDERS = ("e0", "e1", "e2")


def random_block(rng, seen):
    """Binders and the conjuncts of a block over FREE and BINDERS: pins in
    both orientations, images with div or mod, chains through another
    binder (pinned or not), a second pin, domain bounds and comparisons
    that pin nothing. `seen` counts the kinds drawn."""
    binders = tuple(sorted(rng.sample(BINDERS, rng.randint(1, 3))))
    parts, kinds = [], {}
    for i, x in enumerate(binders):
        kind = rng.choice(["pin", "pin", "divmod", "chain", "none"])
        if kind == "chain" and i == 0:
            kind = "pin"
        if kind == "pin":
            image = random_term(rng, FREE, 1)
        elif kind == "divmod":
            image = rng.choice([logic.div, logic.mod])(
                random_term(rng, FREE, 1), IntLit(rng.randint(2, 3)))
        elif kind == "chain":
            other = rng.choice(binders[:i])
            image = logic.add(Var(other), IntLit(rng.randint(-2, 2)))
            if kinds[other] == "none":
                seen["chain to unpinned"] += 1
        kinds[x] = kind
        if kind != "none":
            if rng.random() < 0.5:
                parts.append(logic.cmp("=", image, Var(x)))
                seen["reversed"] += 1
            else:
                parts.append(logic.cmp("=", Var(x), image))
            seen[kind] += 1
            if rng.random() < 0.15:
                parts.append(logic.cmp("=", Var(x), random_term(rng, FREE, 1)))
                seen["second pin"] += 1
        if rng.random() < 0.4:
            lo = rng.randint(-3, 0)
            parts += [logic.cmp("<=", IntLit(lo), Var(x)),
                      logic.cmp("<=", Var(x), IntLit(lo + rng.randint(0, 4)))]
            seen["domain"] += 1
    for _ in range(rng.randint(0, 2)):
        names = FREE + binders
        left = logic.add(Var(rng.choice(names)), IntLit(rng.randint(-2, 2)))
        parts.append(logic.cmp(rng.choice(["<", "<=", "!=", ">"]), left,
                               Var(rng.choice(names))))
    rng.shuffle(parts)
    return binders, parts


def test_one_point_rule_preserves_meaning(solver_argv):
    # Built through the constructors and as a raw quantifier, every random
    # block is equivalent: the solver refutes each one's difference.
    rng = random.Random(13)
    seen = {kind: 0 for kind in ("pin", "divmod", "chain", "chain to unpinned",
                                 "reversed", "second pin", "domain", "rewritten")}
    with smt.Solver(solver_argv) as solver:
        for n in range(80):
            binders, parts = random_block(rng, seen)
            matrix = logic.conj(parts)
            for kind in ("forall", "exists"):
                if kind == "forall":
                    built = logic.forall(binders, Not(matrix))
                    raw = Quant("forall", binders, Not(matrix))
                else:
                    built = logic.exists(binders, matrix)
                    raw = Quant("exists", binders, matrix)
                assert free_vars(built) <= free_vars(raw)
                if built != raw:
                    seen["rewritten"] += 1
                assert_equivalent(solver, built, raw, (n, kind, str(raw)))
    assert all(seen.values()), seen
