"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with the measured numbers (run with -s to see them inline)."""

import random
import time

import pytest

from hyperfind import concrete, driver, encode, frontend, logic, smt, symexec
from hyperfind.driver import (
    BugFound, Inconclusive, NoBugUpTo, SearchOptions, analyze_source, generalize,
    lazy_search, naive_search,
)
from hyperfind.encode import QuantifiedTraces
from hyperfind.logic import Cmp, IntLit, Var
from hyperfind.symexec import Feasibility, FreshSupply, observe

from conftest import bench_source, random_graph, random_observed, set_zero_graph
from test_graph import product_pair_check
from test_symexec import equivalence_check


@pytest.fixture(scope="module")
def opts(solver_argv):
    return SearchOptions(solver_argv=solver_argv)


def run_fixture(name, n, opts, algorithm="lazy"):
    return analyze_source(bench_source(name), n=n, algorithm=algorithm, opts=opts)


def oracle_for(name, k, domain=(0, 1), budget=None):
    loaded = frontend.load(bench_source(name))
    return concrete.oracle_check(driver.oracle_quantifiers(loaded),
                                 loaded.spec.body, k, list(domain), budget)


def test_acceptance_voting_symmetry(opts):
    buggy = run_fixture("voting_buggy.hyp", 4, opts)
    assert isinstance(buggy.verdict, BugFound) and buggy.verdict.k == 2
    tallies = [(mem["countA"], mem["countB"])
               for _, mem in buggy.verdict.counterexample.concrete_observed]
    assert tallies == [(0, 1), (0, 1)]
    assert buggy.stats.wall_ms < 1000

    correct = run_fixture("voting_correct.hyp", 4, opts)
    assert isinstance(correct.verdict, NoBugUpTo) and correct.verdict.n == 4
    assert correct.stats.wall_ms < 1000

    oracle_buggy = oracle_for("voting_buggy.hyp", 2)
    assert oracle_buggy.verdict == "violated" and oracle_buggy.k == 2
    oracle_correct = oracle_for("voting_correct.hyp", 4)
    assert oracle_correct.verdict == "holds"
    print(f"\nACCEPTANCE PASS voting-symmetry: buggy k=2 tallies {tallies}, "
          f"correct no-bug<=4, oracle agrees "
          f"({buggy.stats.wall_ms:.0f} ms / {correct.stats.wall_ms:.0f} ms)")


def test_acceptance_refinement(opts):
    holds = run_fixture("min_flip.hyp", 3, opts)
    assert isinstance(holds.verdict, NoBugUpTo) and holds.verdict.n == 3
    assert holds.stats.wall_ms < 1000

    swapped = run_fixture("flip_min.hyp", 3, opts)
    assert isinstance(swapped.verdict, BugFound) and swapped.verdict.k == 1
    assert swapped.stats.wall_ms < 1000
    (_, mem), = swapped.verdict.counterexample.concrete_observed
    assert mem["x"] != mem["y"]
    assert mem["out"] == max(mem["x"], mem["y"])  # flip output min never makes

    assert oracle_for("min_flip.hyp", 3).verdict == "holds"
    oracle_swapped = oracle_for("flip_min.hyp", 3)
    assert oracle_swapped.verdict == "violated" and oracle_swapped.k == 1
    print(f"\nACCEPTANCE PASS refinement: min->flip no-bug<=3, "
          f"flip->min k=1 outputs larger input (out={mem['out']}, "
          f"x={mem['x']}, y={mem['y']}), oracle agrees")


def test_acceptance_gni(opts):
    masked = run_fixture("gni.hyp", 2, opts)
    assert isinstance(masked.verdict, NoBugUpTo) and masked.verdict.n == 2
    assert masked.stats.wall_ms < 5000

    echo = run_fixture("echo_leak.hyp", 2, opts)
    assert isinstance(echo.verdict, BugFound) and echo.verdict.k == 1
    assert echo.stats.wall_ms < 5000
    (_, mem), = echo.verdict.counterexample.concrete_observed
    assert mem["p1.sec"] != mem["p2.sec"]  # the leak witness

    oracle_echo = oracle_for("echo_leak.hyp", 1)
    assert oracle_echo.verdict == "violated" and oracle_echo.k == 1
    print(f"\nACCEPTANCE PASS gni: masked server no-bug<=2 via forall-forall "
          f"product, echo leak k=1 (sec {mem['p1.sec']} vs {mem['p2.sec']}), "
          f"oracle confirms k=1 "
          f"({masked.stats.wall_ms:.0f} ms / {echo.stats.wall_ms:.0f} ms)")


def test_acceptance_bounded_semantics_fidelity(opts, solver_argv):
    naive = run_fixture("positive_output.hyp", 3, opts, algorithm="naive")
    assert isinstance(naive.verdict, BugFound) and naive.verdict.k == 1

    # Direct encoding at k=2: no observed traces, the conjunction is empty,
    # the bound-2 judgment is vacuously valid...
    graph = set_zero_graph()
    feas = Feasibility(smt.Solver(solver_argv))
    stream = observe(graph, frozenset({1}), 2, FreshSupply(), feas)
    traces = list(stream)
    feas.solver.close()
    assert traces == [] and not stream.incomplete
    body = Cmp(">", Var("x@p"), IntLit(0))
    encoding = encode.encode([QuantifiedTraces("forall", "p", ())], body, 2)
    assert encoding == logic.TRUE

    # ...while the upper-bounded verdict stays violated at every bound.
    lazy = run_fixture("positive_output.hyp", 4, opts)
    assert isinstance(lazy.verdict, BugFound) and lazy.verdict.k == 1
    for k in (1, 2, 3, 4):
        oracle = oracle_for("positive_output.hyp", k)
        assert oracle.verdict == "violated" and oracle.k == 1
    print("\nACCEPTANCE PASS bounded-semantics: k=1 violated, k=2 encoding "
          "vacuously valid, upper-bounded verdict stays violated")


def test_acceptance_escalating(opts):
    result = run_fixture("escalating.hyp", 10, opts)
    assert isinstance(result.verdict, BugFound)
    assert result.verdict.k == 7
    combos = result.stats.combinations
    assert 1195 / 3 <= combos <= 1195 * 3
    assert result.stats.wall_ms < 30_000
    # The reported schedule must genuinely beat every limit schedule: the
    # best the limit program can do at observation i is max = 15 + (i-1).
    ys = [mem["y"] for _, mem in result.verdict.counterexample.concrete_observed]
    assert any(y > 15 + i for i, y in enumerate(ys))
    print(f"\nACCEPTANCE PASS escalating: k=7, combinations={combos} "
          f"(reference 1195), y profile {ys}, wall={result.stats.wall_ms:.0f} ms")


def test_acceptance_escalating_sweep(opts):
    expected = {0: 4, 1: 4, 2: 5, 5: 5, 6: 6}
    depths = {}
    for m, want in expected.items():
        result = run_fixture(f"escalating_m{m}.hyp", 10, opts)
        assert isinstance(result.verdict, BugFound), m
        assert result.stats.wall_ms < 60_000
        depths[m] = result.verdict.k
    assert depths == expected
    print(f"\nACCEPTANCE PASS escalating-sweep: depths {depths}")


def test_acceptance_factorial_non_encodability(opts):
    result = run_fixture("factorial.hyp", 5, opts)
    assert isinstance(result.verdict, Inconclusive)
    assert result.verdict.reason == "budget"
    assert result.stats.wall_ms < 10_000
    print(f"\nACCEPTANCE PASS factorial: inconclusive(budget) in "
          f"{result.stats.wall_ms:.0f} ms")


# ---------------------------------------------------------------------------
# Property suites (criterion: <= 5 minutes total for a+b+c+d)
# ---------------------------------------------------------------------------

_property_clock = {"spent": 0.0}


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    _property_clock["spent"] += time.perf_counter() - start
    assert _property_clock["spent"] < 300, "property suites exceeded 5 minutes"
    return out


def test_acceptance_property_symbolic_concrete_equivalence(solver_argv):
    def body():
        rng = random.Random(101)
        feas = Feasibility(smt.Solver(solver_argv))
        done = attempts = 0
        while done < 200 and attempts < 600:
            attempts += 1
            graph = random_graph(rng, f"g{attempts}", ("a", "b"))
            obs = random_observed(rng, graph)
            k = rng.randint(1, 3)
            if equivalence_check(graph, obs, k, feas, solver_probe=2) is not None:
                done += 1
        feas.solver.close()
        assert done == 200
        return done

    done = _timed(body)
    print(f"\nACCEPTANCE PASS property-a: symbolic/concrete equivalence on "
          f"{done} random graphs")


def random_body(rng):
    atoms = []
    for _ in range(rng.randint(1, 2)):
        left = Var(f"{rng.choice(['a', 'b'])}@t1")
        right = Var(f"{rng.choice(['c', 'd'])}@t2")
        op = rng.choice(["=", "<=", ">=", "!="])
        if rng.random() < 0.3:
            right = logic.add(right, IntLit(rng.randint(-1, 1)))
        atoms.append(logic.cmp(op, left, right))
    return logic.conj(atoms) if rng.random() < 0.7 else logic.disj(atoms)


def test_acceptance_property_lazy_matches_oracle(solver_argv):
    def body():
        rng = random.Random(102)
        done = attempts = 0
        while done < 50 and attempts < 400:
            attempts += 1
            g1 = random_graph(rng, "u", ("a", "b"))
            g2 = random_graph(rng, "e", ("c", "d"))
            o1 = random_observed(rng, g1)
            o2 = random_observed(rng, g2)
            spec_body = random_body(rng)
            n = 2
            quants = [concrete.OracleQuantifier("forall", "t1", g1, o1),
                      concrete.OracleQuantifier("exists", "t2", g2, o2)]
            oracle = concrete.oracle_check(quants, spec_body, n, [0, 1], 16)
            if oracle.verdict == "inconclusive":
                continue
            gen = driver.GeneralizedSpec(
                universal=driver.QuantSide("t1", g1, o1),
                existential=driver.QuantSide("t2", g2, o2),
                body=spec_body)
            run_opts = SearchOptions(solver_argv=solver_argv, step_budget=16,
                                     node_budget=20_000, domain=(0, 1))
            result = lazy_search(gen, n, run_opts)
            if isinstance(result.verdict, Inconclusive):
                continue
            if oracle.verdict == "violated":
                assert isinstance(result.verdict, BugFound), attempts
                assert result.verdict.k == oracle.k, attempts
            else:
                assert isinstance(result.verdict, NoBugUpTo), attempts
            done += 1
        assert done == 50
        return done

    done = _timed(body)
    print(f"\nACCEPTANCE PASS property-b: lazy verdict equals oracle verdict "
          f"on {done} random forall/exists specs")


def test_acceptance_property_product_correctness():
    def body():
        rng = random.Random(103)
        done = attempts = 0
        while done < 100 and attempts < 400:
            attempts += 1
            g1 = random_graph(rng, "g1", ("a", "b"))
            g2 = random_graph(rng, "g2", ("c", "d"))
            o1 = random_observed(rng, g1)
            o2 = random_observed(rng, g2)
            k = rng.randint(1, 2)
            if product_pair_check(g1, o1, g2, o2, k):
                done += 1
        assert done == 100
        return done

    done = _timed(body)
    print(f"\nACCEPTANCE PASS property-c: asynchronous product pairing on "
          f"{done} random graph pairs")


def test_acceptance_property_substitution_lemma():
    def body():
        from conftest import random_formula, random_term
        rng = random.Random(104)
        names = ["a", "b", "c", "d"]
        for _ in range(1000):
            phi = random_formula(rng, names)
            sigma = {name: random_term(rng, names)
                     for name in rng.sample(names, rng.randint(0, 4))}
            rho = {name: rng.randint(-8, 8) for name in names}
            direct = logic.eval_formula(logic.substitute(phi, sigma), rho)
            composed = dict(rho)
            composed.update({n: logic.eval_term(t, rho) for n, t in sigma.items()})
            assert direct == logic.eval_formula(phi, composed)
        return 1000

    done = _timed(body)
    print(f"\nACCEPTANCE PASS property-d: substitution lemma on {done} "
          f"random triples")


def test_acceptance_sequential_spot_checks(opts):
    # One-shot programs with a single observation at the end: each must be
    # refuted within a tight combination budget.
    bounds = {"simple_nonrefinement.hyp": 1,
              "simple_leak.hyp": 1,
              "conditional_nonrefinement.hyp": 4}
    seen = {}
    for name, combo_bound in bounds.items():
        result = run_fixture(name, 3, opts)
        assert isinstance(result.verdict, BugFound), name
        assert result.stats.combinations <= combo_bound, name
        assert result.stats.wall_ms < 1000, name
        seen[name.replace(".hyp", "")] = result.stats.combinations
    print(f"\nACCEPTANCE PASS sequential-spot-checks: combinations {seen}")
