import pytest

from hyperfind import concrete, driver, encode, frontend, logic, smt, symexec
from hyperfind.encode import EncodingError, QuantifiedTraces, encode_invariant, lazy_query
from hyperfind.logic import BoolLit, Cmp, IntLit, Var
from hyperfind.symexec import Feasibility, FreshSupply, SymTrace, make_state, observe

from conftest import bench_source, set_zero_graph


def tiny_trace(out_term, loc=0):
    state = make_state(loc, logic.TRUE, {"out": out_term})
    return SymTrace((state,), (state,))


def test_encode_invariant_single_observation():
    body = Cmp("=", Var("out@p1"), Var("out@p2"))
    binding = {"p1": tiny_trace(Var("v!0")), "p2": tiny_trace(Var("v!1"))}
    assert encode_invariant(body, 1, binding) == Cmp("=", Var("v!0"), Var("v!1"))


def test_encode_invariant_zero_bound_is_true():
    body = Cmp("=", Var("out@p1"), Var("out@p2"))
    assert encode_invariant(body, 0, {}) == logic.TRUE


def test_encode_invariant_unbound_trace_variable():
    body = Cmp("=", Var("out@p1"), Var("out@p2"))
    with pytest.raises(EncodingError, match="'p2'"):
        encode_invariant(body, 1, {"p1": tiny_trace(Var("v!0"))})


def test_encode_invariant_voting_k2(solver_argv):
    loaded = frontend.load(bench_source("voting_buggy.hyp"))
    prog = loaded.programs["buggy"]
    feas = Feasibility(smt.Solver(solver_argv))
    traces = list(observe(prog.graph, prog.labels["head"], 2, FreshSupply(), feas))
    feas.solver.close()
    body = loaded.spec.body
    inv = encode_invariant(body, 2, {"p1": traces[0], "p2": traces[0]})
    # p1 = p2 = the B,B trace with tallies (0,1),(0,1): countA=0 must equal
    # countB=1 in both rounds, so the instantiated body is ground false.
    assert inv == logic.FALSE


def setzero_traces(solver_argv, k):
    feas = Feasibility(smt.Solver(solver_argv))
    stream = observe(set_zero_graph(), frozenset({1}), k, FreshSupply(), feas)
    traces = list(stream)
    feas.solver.close()
    assert not stream.incomplete
    return traces


def test_encode_setzero_k1_is_invalid(solver_argv):
    # Single trace with x bound to the literal 0 and an empty fresh-variable
    # set: the encoding folds to the ground judgment 0 > 0.
    traces = setzero_traces(solver_argv, 1)
    body = Cmp(">", Var("x@p"), IntLit(0))
    encoding = encode.encode([QuantifiedTraces("forall", "p", tuple(traces))], body, 1)
    assert encoding == logic.FALSE


def test_encode_setzero_k2_is_vacuously_valid(solver_argv):
    traces = setzero_traces(solver_argv, 2)
    assert traces == []
    body = Cmp(">", Var("x@p"), IntLit(0))
    encoding = encode.encode([QuantifiedTraces("forall", "p", ())], body, 2)
    assert encoding == logic.TRUE


def materialized(source, k, solver_argv):
    loaded = frontend.load(bench_source(source))
    gen = driver.generalize(loaded)
    supply = FreshSupply()
    feas = Feasibility(smt.Solver(solver_argv))
    sides = []
    for side, kind in ((gen.universal, "forall"), (gen.existential, "exists")):
        if side is None:
            continue
        stream = observe(side.graph, side.observed, k, supply, feas)
        traces = list(stream)
        assert not stream.incomplete
        sides.append((QuantifiedTraces(kind, side.trace_var, tuple(traces)), side))
    feas.solver.close()
    return gen, sides


def test_encoding_is_closed(solver_argv):
    for source in ("voting_buggy.hyp", "min_flip.hyp", "gni.hyp"):
        for k in (1, 2):
            gen, sides = materialized(source, k, solver_argv)
            encoding = encode.encode([q for q, _ in sides], gen.body, k)
            assert logic.free_vars(encoding) == frozenset()


def test_lazy_query_free_vars_are_universal_trace_vars(solver_argv):
    gen, sides = materialized("voting_buggy.hyp", 2, solver_argv)
    (univ, _), (exist, _) = sides
    for trace in univ.traces:
        query = lazy_query(trace, univ.trace_var, exist.trace_var,
                           exist.traces, gen.body, 2)
        assert query.free_vars == trace.free_vars()
        assert logic.free_vars(query.formula) <= set(query.free_vars)


def test_lazy_and_naive_agree_per_bound(solver_argv):
    # negation of the closed encoding is satisfiable iff some per-trace
    # lazy query is satisfiable (checked per fixture and bound).
    for source, bounds in (("voting_buggy.hyp", (1, 2)),
                           ("min_flip.hyp", (1, 2)),
                           ("flip_min.hyp", (1,)),
                           ("conditional_nonrefinement.hyp", (1,))):
        for k in bounds:
            gen, sides = materialized(source, k, solver_argv)
            (univ, _), (exist, _) = sides
            encoding = encode.encode([q for q, _ in sides], gen.body, k)
            with smt.Solver(solver_argv) as solver:
                naive_sat = isinstance(solver.check(logic.negate(encoding)), smt.Sat)
                lazy_sat = False
                for trace in univ.traces:
                    query = lazy_query(trace, univ.trace_var, exist.trace_var,
                                       exist.traces, gen.body, k)
                    if isinstance(solver.check(query.formula), smt.Sat):
                        lazy_sat = True
                        break
            assert naive_sat == lazy_sat, (source, k)


def oracle_validity(source, k, solver_argv):
    """(solver validity of the domain-embedded encoding, oracle verdict)."""
    loaded = frontend.load(bench_source(source))
    gen = driver.generalize(loaded)
    supply = FreshSupply()
    with smt.Solver(solver_argv) as solver:
        feas = Feasibility(solver)
        quantified = []
        for side, kind in ((gen.universal, "forall"), (gen.existential, "exists")):
            if side is None:
                continue
            traces = list(observe(side.graph, side.observed, k, supply, feas))
            quantified.append(QuantifiedTraces(kind, side.trace_var, tuple(traces)))
        encoding = encode.encode(quantified, gen.body, k, domain=(0, 1))
        negated = solver.check(logic.negate(encoding))
    valid = isinstance(negated, smt.Unsat)

    oracle = concrete.check_at(driver.oracle_quantifiers(loaded), loaded.spec.body,
                               k, [0, 1])
    return valid, oracle.verdict == "holds"


def test_encoding_validity_matches_oracle_with_domain(solver_argv):
    for source in ("voting_buggy.hyp", "voting_correct.hyp", "min_flip.hyp",
                   "flip_min.hyp", "simple_nonrefinement.hyp"):
        for k in (1, 2, 3):
            valid, oracle_holds = oracle_validity(source, k, solver_argv)
            assert valid == oracle_holds, (source, k)
