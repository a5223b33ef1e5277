import json
import os

import pytest

from hyperfind import concrete, driver, encode, frontend, logic, smt, symexec
from hyperfind.encode import EncodingError, ExistentialSide, lazy_query
from hyperfind.logic import Cmp, IntLit, Var
from hyperfind.symexec import Feasibility, FreshSupply, SymState

from conftest import (BENCH_DIR, QuantifiedTraces, assert_equivalent, bench_source,
                      closed_encoding, encode_invariant, observe, set_zero_graph,
                      symbolic_trace)


def tiny_trace(out_term, loc=0):
    state = SymState(loc, logic.TRUE, {"out": out_term}, symexec._NO_FACTS)
    return symbolic_trace((state,), (state,))


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
    body = loaded.body
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
    encoding = closed_encoding([QuantifiedTraces("forall", "p", tuple(traces))], body, 1)
    assert encoding == logic.FALSE


def test_encode_setzero_k2_is_vacuously_valid(solver_argv):
    traces = setzero_traces(solver_argv, 2)
    assert traces == []
    body = Cmp(">", Var("x@p"), IntLit(0))
    encoding = closed_encoding([QuantifiedTraces("forall", "p", ())], body, 2)
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
            encoding = closed_encoding([q for q, _ in sides], gen.body, k)
            assert logic.free_vars(encoding) == frozenset()


def test_lazy_query_free_vars_are_universal_trace_vars(solver_argv):
    gen, sides = materialized("voting_buggy.hyp", 2, solver_argv)
    (univ, _), (exist, _) = sides
    side = ExistentialSide(univ.trace_var, exist.trace_var, gen.body)
    side.prepare(2, exist.traces)
    for trace in univ.traces:
        query = lazy_query(trace, side)
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
            encoding = closed_encoding([q for q, _ in sides], gen.body, k)
            with smt.Solver(solver_argv) as solver:
                naive_sat = isinstance(solver.check(logic.negate(encoding)), smt.Sat)
                lazy_sat = False
                side = ExistentialSide(univ.trace_var, exist.trace_var, gen.body)
                side.prepare(k, exist.traces)
                for trace in univ.traces:
                    query = lazy_query(trace, side)
                    if isinstance(solver.check(query.formula), smt.Sat):
                        lazy_sat = True
                        break
            assert naive_sat == lazy_sat, (source, k)


def per_pair_query(universal, universal_var, existential_var, traces, body, k,
                   domain):
    """Reference: the lazy query encoded pair by pair, each existential
    trace instantiating the whole body with both memories at once, and its
    block renamed apart as a whole (the two sides' names are disjoint
    here)."""
    fv1 = universal.free_vars()
    c1 = logic.conj([universal.path, encode._domain_constraint(fv1, domain)])
    blocks = []
    for trace in traces:
        fv2 = trace.free_vars()
        matched = logic.conj([
            trace.path,
            encode._domain_constraint(fv2, domain),
            encode_invariant(body, k, {universal_var: universal,
                                       existential_var: trace}),
        ])
        rho = {}
        renamed = encode._apart(fv2, rho)
        blocks.append(logic.forall(renamed, logic.negate(logic.substitute(matched, rho))))
    c2 = logic.conj(blocks)
    return logic.conj([c1, c2]), c2, fv1


@pytest.mark.parametrize("domain", [None, (0, 1)])
@pytest.mark.parametrize("source, bounds", [
    ("voting_correct.hyp", (1, 2, 3, 4)),
    ("voting_buggy.hyp", (1, 2, 3)),
    ("min_flip.hyp", (1, 2, 3)),
    ("flip_min.hyp", (1, 2)),
    ("escalating_m0.hyp", (1, 2, 3, 4)),
    ("conditional_nonrefinement.hyp", (1, 2)),
])
def test_prepared_side_matches_per_pair_encoding(source, bounds, domain, solver_argv):
    for k in bounds:
        gen, sides = materialized(source, k, solver_argv)
        (univ, _), (exist, _) = sides
        side = ExistentialSide(univ.trace_var, exist.trace_var, gen.body, domain)
        side.prepare(k, exist.traces)
        for trace in univ.traces:
            query = lazy_query(trace, side)
            formula, explanation, free_vars = per_pair_query(
                trace, univ.trace_var, exist.trace_var, exist.traces, gen.body,
                k, domain)
            assert query.formula == formula, (source, k)
            assert query.explanation == explanation, (source, k)
            assert query.free_vars == free_vars, (source, k)


def bounds_walked(source, n, solver_argv):
    """The side's arguments, and per bound 1..n its universal and
    existential traces, read as a search reads them, with the search's
    feasibility."""
    gen = driver.generalize(frontend.load(bench_source(source)))
    opts = driver.SearchOptions(solver_argv=solver_argv)
    args = (gen.universal.trace_var, gen.existential.trace_var, gen.body)
    with smt.Solver(solver_argv) as solver:
        feas = Feasibility(solver)
        universal_walk, walk = driver._walks(gen, n, FreshSupply(), feas, opts)
        for k in range(1, n + 1):
            traces, incomplete = driver._materialize(walk, k)
            assert traces and not incomplete
            yield args, feas, driver._materialize(universal_walk, k)[0], traces


def sigma_key(sigma):
    return tuple(sorted(sigma.items()))


@pytest.mark.parametrize("domain", [None, (0, 1)])
@pytest.mark.parametrize("source, n", [("voting_correct.hyp", 6), ("min_flip.hyp", 3)])
def test_a_side_prepared_from_the_previous_bound_equals_a_fresh_one(source, n, domain,
                                                                     solver_argv):
    side = None
    for k, (args, _, universal, traces) in enumerate(
            bounds_walked(source, n, solver_argv), 1):
        side = side or ExistentialSide(*args, domain)
        side.prepare(k, traces)
        fresh = ExistentialSide(*args, domain)
        fresh.prepare(k, traces)
        assert side.k == fresh.k == k and side.proved == fresh.proved
        # Class numbers are the side's own, so classes compare by sigma.
        for t in range(len(traces)):
            (fv2, scope, classes), (fresh_fv2, fresh_scope, fresh_classes) = (
                side.block(t), fresh.block(t))
            assert (fv2, scope) == (fresh_fv2, fresh_scope), k
            assert ([side.sigmas[i][c] for i, c in enumerate(classes)]
                    == [fresh.sigmas[i][c] for i, c in enumerate(fresh_classes)]), k
        for i in range(k):
            assert ({sigma_key(sigma): m for sigma, m in zip(side.sigmas[i], side.members(i))
                     if m}
                    == {sigma_key(sigma): m for sigma, m in zip(fresh.sigmas[i],
                                                                fresh.members(i))}), k
        # The previous bound's instances are not read at this one.
        for trace in universal:
            assert lazy_query(trace, side) == lazy_query(trace, fresh), k


class IndexRecordingSide(ExistentialSide):
    """A side that records the indices whose instances `witness` reads."""
    __slots__ = ("read",)

    def instances(self, universal, i):
        self.read.add(i)
        return super().instances(universal, i)

    def witness(self, universal, feasibility):
        self.read = set()
        return super().witness(universal, feasibility)


@pytest.mark.parametrize("domain", [None, (0, 1)])
@pytest.mark.parametrize("source, n", [("voting_correct.hyp", 6), ("escalating.hyp", 7),
                                       ("io_loop.hyp", 6), ("min_flip.hyp", 4)])
def test_a_carried_side_finds_the_witness_and_query_of_a_fresh_one(source, n, domain,
                                                                   solver_argv):
    # Prepared at every bound from 1, the side starts each universal trace's
    # witness from its ancestor's candidates and reads one index; a side
    # prepared only at k reads every index. Both find the same witness and
    # build the same query, for every universal trace at every bound.
    side = None
    decided = 0
    for k, (args, feas, universal, traces) in enumerate(
            bounds_walked(source, n, solver_argv), 1):
        side = side or IndexRecordingSide(*args, domain)
        side.prepare(k, traces)
        fresh = IndexRecordingSide(*args, domain)
        fresh.prepare(k, traces)
        for trace in universal:
            found = side.witness(trace, feas)
            assert found == fresh.witness(trace, feas), (k, trace)
            assert side.read <= {k - 1} if k > 1 else side.read <= {0}
            assert 0 in fresh.read or not fresh.proved
            assert lazy_query(trace, side) == lazy_query(trace, fresh), k
            decided += found is not None
    assert decided or source == "min_flip.hyp"


@pytest.mark.parametrize("source, n", [("voting_correct.hyp", 5), ("io_loop.hyp", 5)])
def test_a_witness_without_an_asked_ancestor_reads_every_index(source, n, solver_argv):
    # A side prepared at k without k - 1 carries nothing from the bound it
    # last saw; a universal trace whose ancestor was never asked has no
    # candidates to start from. Both read every index, and agree with a
    # side prepared only at k.
    carried = IndexRecordingSide
    skipping, asking = None, None
    for k, (args, feas, universal, traces) in enumerate(
            bounds_walked(source, n, solver_argv), 1):
        fresh = carried(*args)
        fresh.prepare(k, traces)
        expected = [fresh.witness(trace, feas) for trace in universal]
        # Prepared at the odd bounds only.
        skipping = skipping or carried(*args)
        if k % 2:
            skipping.prepare(k, traces)
            for trace, witness in zip(universal, expected):
                assert skipping.witness(trace, feas) == witness, k
                assert 0 in skipping.read or k == 1, k
        # Prepared at every bound, but asked only for every other universal
        # trace at the bound before the last.
        asking = asking or carried(*args)
        asking.prepare(k, traces)
        for index, (trace, witness) in enumerate(zip(universal, expected)):
            if k == n - 1 and index % 2:
                continue
            assert asking.witness(trace, feas) == witness, k
            if k == n:
                ancestor = trace.parent.observed
                asked = any(other.observed is ancestor for other in previous[::2])
                assert (asking.read <= {k - 1}) if asked else 0 in asking.read, index
        previous = universal
    assert any(witness is not None for witness in expected)


def observed_trace(*outs):
    states = tuple(SymState(0, logic.TRUE, {"out": out}, symexec._NO_FACTS) for out in outs)
    return symbolic_trace(states, states)


def test_prepared_side_unbound_trace_variable():
    body = logic.conj([Cmp("=", Var("out@p1"), Var("out@p2")),
                       Cmp("=", Var("out@p3"), IntLit(0))])
    with pytest.raises(EncodingError, match="^trace variable 'p3' is not bound$"):
        ExistentialSide("p1", "p2", body)


def test_prepared_side_existential_trace_too_short():
    body = Cmp("=", Var("out@p1"), Var("out@p2"))
    with pytest.raises(EncodingError,
                       match="^trace bound to 'p2' has fewer than 2 observations$"):
        ExistentialSide("p1", "p2", body).prepare(2, [observed_trace(Var("v!2"))])


def test_prepared_side_existential_program_lacks_variable():
    body = Cmp("=", Var("out@p1"), Var("y@p2"))
    with pytest.raises(EncodingError,
                       match="^program bound to 'p2' has no variable 'y'$"):
        ExistentialSide("p1", "p2", body).prepare(1, [observed_trace(Var("v!1"))])


@pytest.mark.parametrize("domain", [None, (0, 1)])
def test_side_without_exists_is_the_negated_invariant(domain, solver_argv):
    # One block that binds nothing: "no match" is the negated invariant.
    for k in (1, 2, 3):
        gen, [(univ, _)] = materialized("positive_output.hyp", k, solver_argv)
        side = ExistentialSide(univ.trace_var, None, gen.body, domain)
        side.prepare(k, [])
        for trace in univ.traces:
            query = lazy_query(trace, side)
            explanation = logic.negate(encode_invariant(gen.body, k, {univ.trace_var: trace}))
            assert query.explanation == explanation, k
            assert query.formula == logic.conj([
                trace.path, encode._domain_constraint(trace.free_vars(), domain),
                explanation]), k


def test_side_without_exists_unbound_trace_variable():
    body = Cmp("=", Var("out@p1"), Var("out@p2"))
    with pytest.raises(EncodingError, match="^trace variable 'p2' is not bound$"):
        ExistentialSide("p1", None, body)


with open(os.path.join(BENCH_DIR, "manifest.json")) as _handle:
    NAIVE_SPECS = sorted({entry["file"] for entry in json.load(_handle)}
                         | {"positive_output.hyp", "io_loop.hyp"})


@pytest.mark.parametrize("domain", [None, (0, 1)])
@pytest.mark.parametrize("source", NAIVE_SPECS)
def test_naive_query_is_the_negated_closed_encoding(source, domain, monkeypatch,
                                                    solver_argv):
    # At every bound, the naive search's query and the negated reference
    # encoding over the same traces are equivalent: the solver refutes
    # each one's difference from the other. Each naive query is answered
    # unsat, so the search reaches bound 3.
    queries, traces = [], []
    materialize, check = driver._materialize, smt.Solver.check

    def recorded(walk, k):
        found = materialize(walk, k)
        traces.append(found[0])
        return found

    def unsat(solver, formula, *args):
        if queries and formula is queries[-1]:
            return smt.Unsat()
        return check(solver, formula, *args)

    monkeypatch.setattr(driver, "_materialize", recorded)
    monkeypatch.setattr(driver, "_emit_query",
                        lambda opts, name, formula, *rest: queries.append(formula))
    monkeypatch.setattr(smt.Solver, "check", unsat)
    gen = driver.generalize(frontend.load(bench_source(source)))
    result = driver.naive_search(gen, 3, driver.SearchOptions(solver_argv=solver_argv,
                                                              domain=domain))
    assert result.verdict == driver.NoBugUpTo(3)
    sides = [("forall", gen.universal)]
    if gen.existential is not None:
        sides.append(("exists", gen.existential))
    assert len(queries) == 3 and len(traces) == 3 * len(sides)
    monkeypatch.undo()
    with smt.Solver(solver_argv) as solver:
        for k, query in enumerate(queries, 1):
            reference = logic.negate(closed_encoding(
                [QuantifiedTraces(kind, side.trace_var, tuple(traces.pop(0)))
                 for kind, side in sides], gen.body, k, domain))
            assert_equivalent(solver, query, reference, k)


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
        encoding = closed_encoding(quantified, gen.body, k, domain=(0, 1))
        negated = solver.check(logic.negate(encoding))
    valid = isinstance(negated, smt.Unsat)

    oracle = concrete.check_at(loaded.quantifiers, loaded.body, k, [0, 1])
    return valid, oracle.verdict == "holds"


def test_encoding_validity_matches_oracle_with_domain(solver_argv):
    for source in ("voting_buggy.hyp", "voting_correct.hyp", "min_flip.hyp",
                   "flip_min.hyp", "simple_nonrefinement.hyp"):
        for k in (1, 2, 3):
            valid, oracle_holds = oracle_validity(source, k, solver_argv)
            assert valid == oracle_holds, (source, k)
