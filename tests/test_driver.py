import io
import json
import os
import re
import subprocess
import sys

import pytest

from hyperfind import concrete, driver, encode, frontend, logic, refsolver, smt, smtlib, symexec
from hyperfind.cli import _parse_domain, main as cli_main
from hyperfind.driver import (
    BugFound, Inconclusive, NoBugUpTo, SearchOptions, analyze_source,
    generalize, lazy_search, naive_search,
)
from hyperfind.graph import Quantifier

from conftest import BENCH_DIR, bench_source


@pytest.fixture(scope="module")
def opts(solver_argv):
    return SearchOptions(solver_argv=solver_argv)


def run_fixture(name, n, opts, algorithm="lazy"):
    return analyze_source(bench_source(name), n=n, algorithm=algorithm, opts=opts)


def test_generalize_identity_for_forall_exists():
    loaded = frontend.load(bench_source("min_flip.hyp"))
    gen = generalize(loaded)
    assert gen.universal.trace_var == "p1"
    assert gen.universal.graph is loaded.programs["min"].graph
    assert gen.existential.trace_var == "p2"
    assert gen.existential.graph is loaded.programs["flip"].graph
    assert gen.universal is loaded.quantifiers[0]
    assert gen.existential is loaded.quantifiers[1]
    assert gen.body == loaded.body


def test_generalize_folds_universal_block():
    loaded = frontend.load(bench_source("gni.hyp"))
    gen = generalize(loaded)
    assert (gen.universal.kind, gen.universal.trace_var) == ("forall", "p1&p2")
    variables = set(gen.universal.graph.variables)
    assert {"p1.pub", "p1.sec", "p2.pub", "p2.sec"} <= variables
    assert gen.existential.trace_var == "p3"
    body_vars = logic.free_vars(gen.body)
    assert "p1.pub@p1&p2" in body_vars
    assert "p2.sec@p1&p2" in body_vars
    assert "pub@p3" in body_vars


def test_generalize_forall_only():
    source = """
    prog p { input x; out := x; observe end; }
    forall t1 in p obs {end} . forall t2 in p obs {end} .
    always (out@t1 == out@t2)
    """
    gen = generalize(frontend.load(source))
    assert gen.existential is None
    assert gen.universal.trace_var == "t1&t2"


def test_forall_only_spec_detects_nondeterminism(opts):
    # observational determinism for a program that havocs its output fails
    source = """
    prog p { havoc x; out := x; observe end; }
    forall t1 in p obs {end} . forall t2 in p obs {end} .
    always (out@t1 == out@t2)
    """
    result = lazy_search(generalize(frontend.load(source)), 2, opts)
    assert isinstance(result.verdict, BugFound)
    assert result.verdict.k == 1
    cex = result.verdict.counterexample
    outs = {var: value for (loc, mem) in cex.concrete_observed for var, value in mem.items()}
    assert outs["t1.out"] != outs["t2.out"]


def test_forall_only_deterministic_program_passes(opts):
    source = """
    prog p { input x; out := 7; observe end; }
    forall t1 in p obs {end} . forall t2 in p obs {end} .
    always (out@t1 == out@t2)
    """
    result = lazy_search(generalize(frontend.load(source)), 2, opts)
    assert isinstance(result.verdict, NoBugUpTo)


def test_lazy_and_naive_verdicts_agree(opts):
    for name, n in (("voting_buggy.hyp", 3), ("voting_correct.hyp", 3),
                    ("min_flip.hyp", 3), ("flip_min.hyp", 3),
                    ("simple_nonrefinement.hyp", 2),
                    ("conditional_nonrefinement.hyp", 2)):
        lazy = run_fixture(name, n, opts, "lazy")
        naive = run_fixture(name, n, opts, "naive")
        assert type(lazy.verdict) is type(naive.verdict), name
        if isinstance(lazy.verdict, BugFound):
            assert lazy.verdict.k == naive.verdict.k, name
            assert naive.verdict.counterexample is None


def test_counterexample_replays_and_is_deterministic(opts):
    first = run_fixture("voting_buggy.hyp", 4, opts)
    second = run_fixture("voting_buggy.hyp", 4, opts)
    assert isinstance(first.verdict, BugFound) and first.verdict.k == 2
    cex1 = first.verdict.counterexample
    cex2 = second.verdict.counterexample
    assert cex1.model == cex2.model
    assert cex1.concrete_full == cex2.concrete_full

    loaded = frontend.load(bench_source("voting_buggy.hyp"))
    gen = generalize(loaded)
    assert concrete.replay(gen.universal.graph, gen.universal.observed,
                           cex1.concrete_full, cex1.concrete_observed) is None


def test_bug_found_is_stable_under_larger_bound(opts):
    small = run_fixture("voting_buggy.hyp", 2, opts)
    large = run_fixture("voting_buggy.hyp", 8, opts)
    assert small.verdict.k == large.verdict.k == 2
    assert (small.verdict.counterexample.concrete_observed
            == large.verdict.counterexample.concrete_observed)


def test_unknowns_never_produce_bug_found(solver_argv):
    # A zero query timeout forces Unknown on every lazy query; the search
    # must degrade to inconclusive rather than claim a bug.
    opts = SearchOptions(solver_argv=solver_argv, query_timeout_ms=0)
    result = run_fixture("voting_buggy.hyp", 2, opts)
    assert isinstance(result.verdict, Inconclusive)
    assert result.verdict.reason == "solver-unknown"


def test_factorial_budget_inconclusive(opts):
    result = run_fixture("factorial.hyp", 3, opts)
    assert isinstance(result.verdict, Inconclusive)
    assert result.verdict.reason == "budget"


@pytest.mark.parametrize("algorithm, side", [("lazy", "existential"), ("naive", "universal")])
@pytest.mark.parametrize("args, budget", [([], 80), (["--step-budget", "15"], 15)])
def test_a_step_budget_verdict_names_its_budget(capsys, algorithm, side, args, budget):
    # factorial's countdown outruns the step budget at bound 1, 80 by
    # default. The lazy search reads the existential side's traces first,
    # the naive search the universal side's.
    detail = f"bound 1 of the {side} side was cut at step budget {budget} (--step-budget)"
    argv = [fixture_path("factorial.hyp"), "--max-observations", "3",
            "--algorithm", algorithm, *args]
    assert cli_main(argv + ["--report", "text"]) == 2
    assert capsys.readouterr().out.startswith(f"inconclusive (budget: {detail}) (wall=")
    assert cli_main(argv + ["--report", "json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert (report["reason"], report["detail"], report["checked"]) == ("budget", detail, 0)


@pytest.mark.parametrize("algorithm, checked", [("lazy", 2), ("naive", 2)])
def test_a_node_budget_verdict_names_the_cut_it_met_first(opts, capsys, algorithm, checked):
    # A node budget of 20 cuts gni's universal side at bounds 3 and 4. The
    # lazy search checks bound 4 too and names the first cut; the naive
    # search ends at it. Both count bound 2 as the last checked to the
    # end. The node budget has no flag.
    from hyperfind.cli import _print_text_report
    detail = ("bound 3 of the universal side was cut at node budget 20 "
              "(SearchOptions.node_budget)")
    result = run_fixture("gni.hyp", 4, SearchOptions(solver_argv=opts.solver_argv,
                                                     node_budget=20), algorithm)
    assert result.verdict == Inconclusive("budget", detail)
    report = driver.report_dict(result)
    assert (report["reason"], report["detail"], report["checked"]) == ("budget", detail,
                                                                       checked)
    _print_text_report(result)
    assert capsys.readouterr().out.startswith(f"inconclusive (budget: {detail}) (wall=")


def test_combinations_count_pairs(opts):
    result = run_fixture("voting_correct.hyp", 4, opts)
    # universal and existential sets both have 2^k traces at bound k
    assert result.stats.combinations == sum((2 ** k) * (2 ** k) for k in (1, 2, 3, 4))
    # one query per universal trace, sent or decided without the solver
    assert (result.stats.sat_calls + result.stats.decided
            == sum(2 ** k for k in (1, 2, 3, 4)))


# The `x % 3` guard keeps the paths' feasibility checks on the solver, so a
# search runs feasibility checks and queries on it.
ONE_LOOP = """
    prog p {
      loop {
        input x;
        if (x > 0) {
          if (x % 3 == 1) { out := x; } else { out := 0; }
        } else {
          out := 0;
        }
        observe step;
      }
    }
    forall p1 in p obs {step} .
    exists p2 in p obs {step} .
    always (out@p1 == out@p2)
    """


def captured(node, scope):
    """Names a quantifier in `node` binds while they are free around it
    (`scope`) or bound by an enclosing quantifier."""
    if isinstance(node, logic.Quant):
        return (set(node.vars) & scope) | captured(node.body, scope | set(node.vars))
    if isinstance(node, (logic.And, logic.Or)):
        return set().union(*(captured(arg, scope) for arg in node.args))
    if isinstance(node, logic.Not):
        return captured(node.arg, scope)
    return set()


@pytest.mark.parametrize("name", ["voting_correct.hyp", "voting_buggy.hyp"])
def test_a_side_both_quantifiers_share_is_renamed_apart(opts, monkeypatch, name):
    # Both quantifiers range over one program, so both sides come from one
    # walk and carry the same fresh names: an existential binder must not
    # capture a variable of the universal trace, in any lazy query or in
    # any naive query.
    queries, naive_queries = [], []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            queries.append(fn(*args, **kwargs))
            return queries[-1]
        return wrapper

    def emitted(opts, name, formula, wanted, provenance):
        if name.startswith("naive"):
            naive_queries.append(formula)

    monkeypatch.setattr(encode, "lazy_query", recorded(encode.lazy_query))
    monkeypatch.setattr(driver, "_emit_query", emitted)
    lazy = run_fixture(name, 3, opts)
    naive = run_fixture(name, 3, opts, "naive")
    assert queries and naive_queries
    for query in queries:
        assert not captured(query.formula, set(query.free_vars))
    for query in naive_queries:
        assert not captured(query, set())
    if name == "voting_buggy.hyp":
        assert isinstance(naive.verdict, BugFound) and naive.verdict.k == 2
        cex = lazy.verdict.counterexample
        assert lazy.verdict.k == 2
        assert [(mem["countA"], mem["countB"]) for _, mem in cex.concrete_observed] \
            == [(0, 1), (0, 1)]
    else:
        assert lazy.verdict == naive.verdict == NoBugUpTo(3)


def test_search_runs_feasibility_and_queries_on_one_solver_process(process_argv, sessions):
    result = analyze_source(ONE_LOOP, n=2, opts=SearchOptions(solver_argv=process_argv))
    assert isinstance(result.verdict, NoBugUpTo)
    assert result.stats.feasibility_calls > 0 and result.stats.sat_calls > 0
    assert len(sessions) == 1


@pytest.fixture
def no_solver_on_path(monkeypatch):
    """Make `smt.resolve_solver` fall back to the bundled solver. Its memo of
    the PATH lookup is cleared, so that it looks again."""
    monkeypatch.setattr(smt, "_found_on_path", {})
    monkeypatch.setattr(smt.shutil, "which", lambda name: None)


def test_path_is_searched_once_per_value(no_solver_on_path, monkeypatch):
    looked_up = []
    monkeypatch.setattr(smt.shutil, "which", lambda name: looked_up.append(name))
    for _ in range(2):
        result = analyze_source(ONE_LOOP, n=2)
        assert result.stats.sat_calls > 0  # a session started and resolved the solver
    assert looked_up == ["yices-smt2", "z3", "cvc5"]
    monkeypatch.setenv("PATH", os.pathsep.join(["/nonexistent", os.environ.get("PATH", "")]))
    assert analyze_source(ONE_LOOP, n=2).stats.sat_calls > 0
    assert looked_up == ["yices-smt2", "z3", "cvc5"] * 2


def test_default_search_starts_no_process(no_solver_on_path, sessions):
    result = analyze_source(ONE_LOOP, n=2)
    assert isinstance(result.verdict, NoBugUpTo)
    assert result.stats.feasibility_calls > 0 and result.stats.sat_calls > 0
    assert sessions == []


def test_in_process_and_child_solver_agree_on_the_manifest(process_argv, sessions):
    with open(os.path.join(BENCH_DIR, "manifest.json")) as handle:
        manifest = json.load(handle)
    backends = {"in-process": SearchOptions(solver_argv=smt.BUNDLED_SOLVER),
                "child": SearchOptions(solver_argv=process_argv)}
    opened = {}
    for entry in manifest:
        runs = {}
        for backend, backend_opts in backends.items():
            before = len(sessions)
            result = run_fixture(entry["file"], entry["max_observations"], backend_opts)
            stats = result.stats
            # Verdicts compare in full: k, and the counterexample's trace,
            # model, concrete runs and explanation.
            runs[backend] = (result.verdict, stats.combinations, stats.sat_calls,
                             stats.decided, stats.feasibility_calls)
        opened[entry["name"]] = len(sessions) - before
        assert runs["in-process"] == runs["child"], entry["name"]
    # A session starts on the first check. `voting-correct` decides every
    # query without the solver and checks no path, so it starts none.
    assert opened == {entry["name"]: int(entry["name"] != "voting-correct")
                      for entry in manifest}


@pytest.mark.parametrize("error", [RecursionError, ZeroDivisionError, KeyError])
def test_cli_in_process_solver_exception_is_inconclusive(
        no_solver_on_path, monkeypatch, capsys, error):
    from hyperfind import refsolver

    def fail(self):
        raise error("injected")
    monkeypatch.setattr(refsolver.Session, "check_sat", fail)
    code = cli_main([fixture_path("gni.hyp")])
    out, err = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in err
    report = json.loads(out)
    assert (report["verdict"], report["reason"]) == ("inconclusive", "solver-error")
    assert error.__name__ in report["detail"]


@pytest.mark.parametrize("algorithm", ["lazy", "naive"])
@pytest.mark.parametrize("error, reason", [(MemoryError, "memory"),
                                           (KeyboardInterrupt, "interrupted")])
def test_a_search_out_of_memory_or_interrupted_names_its_last_bound(
        no_solver_on_path, monkeypatch, capsys, error, reason, algorithm):
    # The error strikes at bound 3: in the lazy search's first witness
    # there, in the naive search's preparation of it.
    def at_bound_3(original, bound):
        def failing(side, *args):
            if bound(side, *args) == 3:
                raise error()
            return original(side, *args)
        return failing
    side = encode.ExistentialSide
    if algorithm == "lazy":
        monkeypatch.setattr(side, "witness", at_bound_3(side.witness, lambda s, *_: s.k))
    else:
        monkeypatch.setattr(side, "prepare", at_bound_3(side.prepare, lambda s, k, _: k))
    code = cli_main([fixture_path("voting_correct.hyp"), "--max-observations", "4",
                     "--algorithm", algorithm, "--report", "json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in err
    report = json.loads(out)
    assert (report["verdict"], report["reason"]) == ("inconclusive", reason)
    assert report["detail"].startswith("bound 3 ")
    assert report["detail"].endswith("bounds up to k=2 were checked to the end")


def test_failed_replay_is_inconclusive(opts, monkeypatch):
    monkeypatch.setattr(concrete, "replay", lambda *args, **kwargs: "forced")
    result = run_fixture("voting_buggy.hyp", 4, opts)
    assert result.verdict == Inconclusive("replay-failed", "forced")
    report = driver.report_dict(result)
    assert (report["verdict"], report["reason"]) == ("inconclusive", "replay-failed")


def test_report_dict_schema(opts):
    result = run_fixture("voting_buggy.hyp", 4, opts)
    report = driver.report_dict(result)
    assert report["verdict"] == "bug-found"
    assert report["k"] == 2
    cex = report["counterexample"]
    assert set(cex) == {"observed_trace", "full_trace", "model", "explanation_smt"}
    assert all(set(entry) == {"location", "memory"} for entry in cex["observed_trace"])
    tallies = [(e["memory"]["countA"], e["memory"]["countB"])
               for e in cex["observed_trace"]]
    assert tallies == [(0, 1), (0, 1)]
    assert set(report["stats"]) == {"combinations", "sat_calls", "decided",
                                     "feasibility_calls", "wall_ms"}
    json.dumps(report)  # must be serializable
    # An inconclusive report names the budget that cut it and the last bound
    # checked to the end.
    cut = driver.report_dict(run_fixture(
        "voting_correct.hyp", 4, SearchOptions(solver_argv=opts.solver_argv, step_budget=15)))
    assert set(cut) == {"verdict", "k", "counterexample", "stats", "reason", "detail",
                        "checked"}
    assert (cut["verdict"], cut["reason"], cut["checked"]) == ("inconclusive", "budget", 2)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def fixture_path(name):
    return os.path.join(BENCH_DIR, name)


def test_cli_exit_codes(tmp_path, capsys):
    assert cli_main([fixture_path("min_flip.hyp"), "--max-observations", "3"]) == 0
    assert cli_main([fixture_path("voting_buggy.hyp"), "--max-observations", "4"]) == 1
    assert cli_main([fixture_path("factorial.hyp")]) == 2
    bad = tmp_path / "bad.hyp"
    bad.write_text("prog p { x := ; }")
    assert cli_main([str(bad)]) == 3
    assert cli_main([str(tmp_path / "missing.hyp")]) == 3
    capsys.readouterr()


@pytest.fixture
def default_int_digits():
    """Python's default int/str digit limit (3.11+) for the test, restored
    afterwards: `cli.main` lifts it for the whole process."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("assigned, value", [
    ("7" * 5000, 7 * (10 ** 5000 - 1) // 9),  # 5,000 sevens
    ("3" * 3000 + " * " + "3" * 3000, ((10 ** 3000 - 1) // 3) ** 2),
], ids=["literal-5000-digits", "product-of-3000-digits"])
def test_cli_reports_integers_of_any_length(tmp_path, capsys, default_int_digits,
                                            assigned, value):
    path = tmp_path / "long.hyp"
    path.write_text(f"prog p {{ x := {assigned}; observe a; }}\n"
                    "forall t in p obs {a} . always (x@t == 0)")
    assert cli_main([str(path), "--report", "json"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    cex = json.loads(out)["counterexample"]
    assert cex["full_trace"][-1]["memory"] == {"x": value}


def test_load_rejects_a_literal_beyond_the_int_digit_limit(default_int_digits):
    # Outside the CLI, Python's default limit holds: the literal is a parse
    # error at its own position, not a ValueError.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python before 3.11 has no int/str digit limit")
    source = ("prog p { havoc sec; out := sec + " + "7" * 5000 + "; observe a; }\n"
              "forall t in p obs {a} . always (out@t == 0)")
    for load in (frontend.load, analyze_source):
        with pytest.raises(frontend.ParseError) as error:
            load(source)
        assert (error.value.line, error.value.col) == (1, 34)
        assert "5000 digits exceeds Python's limit of 4300 digits" in str(error.value)


def test_cli_rejects_a_non_ascii_digit(tmp_path, capsys):
    path = tmp_path / "digit.hyp"
    path.write_text("prog p { x := \u00b2; observe a; }\n"
                    "forall t in p obs {a} . always (x@t == 0)", encoding="utf-8")
    assert cli_main([str(path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: line 1, column 15: unexpected character '\u00b2'\n"


@pytest.mark.parametrize("source, position", [
    ("prog p {\n  x := 1; # c", "line 2, column 14"),
    ("prog p {\n  x := 1; # c\n", "line 3, column 1"),
    ("prog p {\n  x := 1;", "line 2, column 10"),
])
def test_cli_names_the_end_of_input_after_a_trailing_comment(tmp_path, capsys, source,
                                                             position):
    # The end of input is named as such, and its column counts the
    # characters of a comment before it.
    path = tmp_path / "cut.hyp"
    path.write_text(source, encoding="utf-8")
    assert cli_main([str(path)]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {position}: expected a statement, found end of input\n")


@pytest.mark.parametrize("args", [
    "--max-observations 0", "--max-observations -1", "--oracle --max-observations -1",
    "--step-budget 0", "--oracle --step-budget 0", "--bench --repetitions 0",
    "--timeout-ms -1", "--feas-timeout-ms -1", "--max-observations x",
])
def test_cli_rejects_out_of_range_numbers(args, capsys):
    assert cli_main([fixture_path("gni.hyp"), *args.split()]) == 3
    err = capsys.readouterr().err
    assert "error: argument" in err and "Traceback" not in err


def test_cli_input_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.hyp"
    path.write_bytes("// caf\xe9\n".encode("latin-1"))
    assert cli_main([str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec")


@pytest.mark.parametrize("content", [
    b"\xff\xfe[]",                                     # not UTF-8
    b'{"name": "gni", "file": "gni.hyp"}',              # an object, not a list
    b'["gni.hyp"]',                                      # a list of strings
])
def test_cli_bench_on_a_malformed_manifest_is_a_usage_error(tmp_path, capsys, content):
    path = tmp_path / "manifest.json"
    path.write_bytes(content)
    assert cli_main([str(path), "--bench"]) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_bench_rejects_a_manifest_that_is_not_a_list_of_objects(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"name": "gni", "file": fixture_path("gni.hyp")}))
    with pytest.raises(ValueError, match="a manifest is a JSON list of objects"):
        driver.bench(str(path))


def test_cli_json_report_is_default(capsys):
    code = cli_main([fixture_path("voting_buggy.hyp"), "--max-observations", "4"])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "bug-found"
    assert report["k"] == 2
    tallies = [(e["memory"]["countA"], e["memory"]["countB"])
               for e in report["counterexample"]["observed_trace"]]
    assert tallies == [(0, 1), (0, 1)]


def test_min_flip_queries_bind_no_variable(opts, tmp_path):
    # Each "no match" block of min_flip pins every existential input to a
    # universal term, so the one-point rule leaves no binder; the queries
    # are still sent.
    result = run_fixture("min_flip.hyp", 3, SearchOptions(solver_argv=opts.solver_argv,
                                                          emit_smt_dir=str(tmp_path)))
    assert result.verdict == NoBugUpTo(3)
    queries = sorted(tmp_path.iterdir())
    assert result.stats.sat_calls == len(queries) == 14 and result.stats.decided == 0
    for query in queries:
        text = query.read_text()
        assert "forall" not in text and "exists" not in text, text


def test_cli_flip_min_explanation_binds_no_variable(capsys):
    # The counterexample is the one found before the one-point rule; only
    # the explanation lost its quantifier blocks.
    assert cli_main([fixture_path("flip_min.hyp")]) == 1
    cex = json.loads(capsys.readouterr().out)["counterexample"]
    assert "forall" not in cex["explanation_smt"]
    assert cex["model"] == {"v!2": 0, "v!3": -1}
    assert cex["observed_trace"] == [
        {"location": 8, "memory": {"out": 0, "x": 0, "y": -1}}]


def test_cli_text_report(capsys):
    code = cli_main([fixture_path("voting_buggy.hyp"), "--max-observations", "4",
                     "--report", "text"])
    out = capsys.readouterr().out
    assert code == 1
    assert "bug found at k=2" in out


def test_cli_oracle_mode(capsys):
    assert cli_main([fixture_path("voting_buggy.hyp"), "--oracle",
                     "--domain", "0..1", "--max-observations", "2"]) == 1
    assert cli_main([fixture_path("voting_correct.hyp"), "--oracle",
                     "--domain", "0..1", "--max-observations", "3"]) == 0
    assert cli_main([fixture_path("voting_buggy.hyp"), "--oracle",
                     "--domain", "nonsense"]) == 3
    capsys.readouterr()


def test_cli_oracle_rejects_a_domain_it_could_never_enumerate():
    result = subprocess.run(
        [sys.executable, "-m", "hyperfind.cli", fixture_path("voting_buggy.hyp"),
         "--oracle", "--domain", "0..2000000000", "--max-observations", "2"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 3
    assert result.stderr.startswith("error: domain '0..2000000000' has 2000000001 values")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_cli_dump_graphs(capsys):
    assert cli_main([fixture_path("positive_output.hyp"), "--dump-graphs"]) == 0
    out = capsys.readouterr().out
    assert "x := 0" in out
    assert "->" in out
    # Each program is printed once, and a block of several quantifiers
    # also as its product graph.
    for name, products in (("gni.hyp", 1), ("echo_leak.hyp", 1), ("simple_leak.hyp", 1),
                           ("voting_correct.hyp", 0)):
        assert cli_main([fixture_path(name), "--dump-graphs"]) == 0
        names = re.findall(r"^graph (\S+)", capsys.readouterr().out, re.M)
        assert len(set(names)) == len(names), name
        assert len([n for n in names if "(x)" in n]) == products, name


def test_cli_emit_smt(tmp_path, capsys):
    code = cli_main([fixture_path("simple_nonrefinement.hyp"),
                     "--emit-smt", str(tmp_path / "queries")])
    capsys.readouterr()
    assert code == 1
    files = sorted(os.listdir(tmp_path / "queries"))
    assert files and files[0].startswith("query_k1_")
    text = (tmp_path / "queries" / files[0]).read_text()
    assert "(set-logic" in text and "(check-sat)" in text
    assert text.startswith("; k=1 universal-trace=1\n")
    # The bundled solver skips the comment and answers the query.
    out = io.StringIO()
    smtlib.run(io.StringIO(text), out)
    assert out.getvalue().splitlines()[0] == "sat"

    code = cli_main([fixture_path("simple_nonrefinement.hyp"), "--algorithm",
                     "naive", "--emit-smt", str(tmp_path / "naive")])
    capsys.readouterr()
    assert code == 1
    text = (tmp_path / "naive" / "naive_k1.smt2").read_text()
    assert text.startswith("; naive k=1\n")


def test_cli_emit_smt_writes_decided_queries(tmp_path, capsys):
    # Every query of voting_correct is decided without the solver; each is
    # still written, naming its witness, and the bundled solver, run on the
    # file, answers unsat.
    code = cli_main([fixture_path("voting_correct.hyp"), "--max-observations", "3",
                     "--emit-smt", str(tmp_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (report["stats"]["sat_calls"], report["stats"]["decided"]) == (0, 2 + 4 + 8)
    files = sorted(os.listdir(tmp_path))
    assert files == [f"query_k{k}_{index:04d}.smt2"
                     for k in (1, 2, 3) for index in range(1, 2 ** k + 1)]
    for name in files:
        text = (tmp_path / name).read_text()
        k, index = int(name[7]), int(name[9:13])
        assert re.match(rf"; k={k} universal-trace={index} decided: existential "
                        r"trace \d+ matches on every input\n", text), name
        out = io.StringIO()
        smtlib.run(io.StringIO(text), out)
        assert out.getvalue().splitlines()[0] == "unsat", name


@pytest.mark.parametrize("target", ["file", "file/queries"])
def test_cli_emit_smt_to_an_unusable_path_is_a_usage_error(tmp_path, target):
    (tmp_path / "file").write_text("")
    result = subprocess.run(
        [sys.executable, "-m", "hyperfind.cli", fixture_path("gni.hyp"),
         "--emit-smt", str(tmp_path / target)],
        capture_output=True, text=True)
    assert result.returncode == 3
    assert result.stderr.startswith("error: --emit-smt: ") and "Traceback" not in result.stderr
    assert result.stdout == ""


def test_cli_domain_is_not_materialized():
    domain = _parse_domain("-5..999999999995")
    assert len(domain) == 10 ** 12 + 1
    assert (domain[0], domain[-1]) == (-5, 999999999995)
    assert _parse_domain("3..2") is None


def test_bench_harness_records_errors(tmp_path, capsys):
    manifest = [
        {"name": "ok", "file": fixture_path("simple_nonrefinement.hyp"),
         "max_observations": 2, "repetitions": 1},
        {"name": "broken", "file": str(tmp_path / "nope.hyp"),
         "max_observations": 2, "repetitions": 1},
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    rows = driver.bench(str(path))
    assert rows[0].name == "ok" and rows[0].verdict == "bug-found" and rows[0].k == 1
    assert rows[1].name == "broken" and rows[1].verdict == "error"
    assert rows[1].error

    # --bench writes no query, whatever --emit-smt says.
    assert cli_main([str(path), "--bench", "--repetitions", "1",
                     "--emit-smt", str(tmp_path / "queries")]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "error" in out
    assert not (tmp_path / "queries").exists()


def test_an_interrupted_search_stops_the_bench_harness(tmp_path, monkeypatch):
    # A search turns KeyboardInterrupt into a verdict; the harness, which
    # records each instance's failure and goes on, stops on it instead.
    def interrupted(side, universal, feasibility):
        raise KeyboardInterrupt
    monkeypatch.setattr(encode.ExistentialSide, "witness", interrupted)
    entry = {"name": "voting", "file": fixture_path("voting_correct.hyp"),
             "max_observations": 2, "repetitions": 1}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([entry, entry]))
    with pytest.raises(KeyboardInterrupt):
        driver.bench(str(path))


@pytest.mark.parametrize("field, value", [
    ("max_observations", 0), ("max_observations", -1), ("repetitions", 0), ("repetitions", -1),
])
def test_bench_reports_a_bound_below_one_as_an_error_row(tmp_path, field, value):
    entry = {"name": "gni", "file": fixture_path("gni.hyp"),
             "max_observations": 2, "repetitions": 1}
    entry[field] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([entry]))
    (row,) = driver.bench(str(path))
    assert (row.name, row.verdict, row.k, row.combinations) == ("gni", "error", None, None)
    assert row.error == f"{field} must be at least 1, got {value}"


@pytest.mark.parametrize("search", [lazy_search, naive_search])
@pytest.mark.parametrize("n", [0, -1])
def test_search_rejects_a_bound_below_one(search, n):
    gen = generalize(frontend.load(bench_source("gni.hyp")))
    with pytest.raises(ValueError, match=f"must be at least 1, got {n}"):
        search(gen, n)


def test_bench_escalating_detection_depths(tmp_path, opts):
    manifest = [
        {"name": "easy", "file": fixture_path("escalating_m0.hyp"),
         "max_observations": 10, "repetitions": 1},
        {"name": "hard", "file": fixture_path("escalating.hyp"),
         "max_observations": 10, "repetitions": 1},
    ]
    path = tmp_path / "escalating.json"
    path.write_text(json.dumps(manifest))
    rows = driver.bench(str(path), opts)
    assert [(row.name, row.verdict, row.k) for row in rows] == [
        ("easy", "bug-found", 4),
        ("hard", "bug-found", 7),
    ]


# The search work of every manifest instance at its bound: verdict, k,
# combinations, queries (sent plus decided), decided, feasibility_calls and
# `symexec.extend` calls, one per search-tree node extended (a node's run is
# stepped without `extend`). Queries sent is `sat_calls`; decided ones are
# answered without the solver (lazy search only).
# A change to exploration, encoding or the search loops that is meant to
# leave the searches alone must leave this table alone.
MANIFEST_WORK = {
    ("voting-buggy", "lazy"): ("bug-found", 2, 8, 3, 2, 0, 9),
    ("voting-buggy", "naive"): ("bug-found", 2, 2, 2, 0, 0, 9),
    ("voting-correct", "lazy"): ("no-bug", 4, 340, 30, 30, 0, 45),
    ("voting-correct", "naive"): ("no-bug", 4, 4, 4, 0, 0, 45),
    ("min-flip", "lazy"): ("no-bug", 3, 84, 14, 0, 0, 54),
    ("min-flip", "naive"): ("no-bug", 3, 3, 3, 0, 0, 54),
    ("flip-min", "lazy"): ("bug-found", 1, 2, 1, 0, 0, 6),
    ("flip-min", "naive"): ("bug-found", 1, 1, 1, 0, 0, 6),
    ("gni", "lazy"): ("no-bug", 2, 2, 2, 0, 0, 20),
    ("gni", "naive"): ("no-bug", 2, 2, 2, 0, 0, 20),
    ("echo-leak", "lazy"): ("bug-found", 1, 1, 1, 0, 0, 11),
    ("echo-leak", "naive"): ("bug-found", 1, 1, 1, 0, 0, 11),
    ("simple-nonrefinement", "lazy"): ("bug-found", 1, 1, 1, 0, 0, 2),
    ("simple-nonrefinement", "naive"): ("bug-found", 1, 1, 1, 0, 0, 2),
    ("simple-leak", "lazy"): ("bug-found", 1, 1, 1, 0, 0, 6),
    ("simple-leak", "naive"): ("bug-found", 1, 1, 1, 0, 0, 6),
    ("conditional-nonrefinement", "lazy"): ("bug-found", 1, 4, 2, 0, 0, 4),
    ("conditional-nonrefinement", "naive"): ("bug-found", 1, 1, 1, 0, 0, 4),
    ("escalating-m0", "lazy"): ("bug-found", 4, 45, 10, 9, 0, 21),
    ("escalating-m0", "naive"): ("bug-found", 4, 4, 4, 0, 0, 23),
    ("escalating-m1", "lazy"): ("bug-found", 4, 45, 10, 9, 0, 21),
    ("escalating-m1", "naive"): ("bug-found", 4, 4, 4, 0, 0, 23),
    ("escalating-m2", "lazy"): ("bug-found", 5, 133, 18, 17, 0, 41),
    ("escalating-m2", "naive"): ("bug-found", 5, 5, 5, 0, 0, 47),
    ("escalating-m5", "lazy"): ("bug-found", 5, 165, 20, 19, 0, 42),
    ("escalating-m5", "naive"): ("bug-found", 5, 5, 5, 0, 0, 47),
    ("escalating-m6", "lazy"): ("bug-found", 6, 501, 36, 35, 0, 82),
    ("escalating-m6", "naive"): ("bug-found", 6, 6, 6, 0, 0, 95),
    ("escalating", "lazy"): ("bug-found", 7, 1941, 72, 71, 0, 164),
    ("escalating", "naive"): ("bug-found", 7, 7, 7, 0, 0, 191),
}


def manifest_entries():
    with open(os.path.join(BENCH_DIR, "manifest.json")) as handle:
        return [(entry, algorithm) for entry in json.load(handle)
                for algorithm in ("lazy", "naive")]


@pytest.mark.parametrize("entry, algorithm", manifest_entries(),
                         ids=lambda value: value["name"] if isinstance(value, dict) else value)
def test_manifest_search_work_is_pinned(opts, extend_calls, entry, algorithm):
    result = analyze_source(bench_source(entry["file"]), n=entry["max_observations"],
                            algorithm=algorithm, opts=opts)
    report = driver.report_dict(result)
    stats = report["stats"]
    assert (report["verdict"], report["k"], stats["combinations"],
            stats["sat_calls"] + stats["decided"], stats["decided"],
            stats["feasibility_calls"], extend_calls[0]) == MANIFEST_WORK[entry["name"], algorithm]


@pytest.mark.parametrize("algorithm", ["lazy", "naive"])
def test_countdown_paths_never_reach_the_solver(solver_argv, extend_calls, algorithm):
    # Each path of factorial.hyp bounds its input from below and above, so
    # `Feasibility` decides all of them without the solver (68 checks went
    # to it when only disjoint atoms were decided).
    opts = SearchOptions(solver_argv=solver_argv, step_budget=140)
    result = analyze_source(bench_source("factorial.hyp"), n=1, algorithm=algorithm, opts=opts)
    assert driver.verdict_name(result.verdict) == ("inconclusive", None)
    assert result.stats.feasibility_calls == 0
    assert extend_calls[0] == 36


# Lazy searches that decide queries without the solver: the manifest's at
# their bounds, and two counting properties whose every query is decided.
DECIDING_SEARCHES = [(entry["file"], entry["max_observations"])
                     for entry, algorithm in manifest_entries() if algorithm == "lazy"
                     ] + [("voting_correct.hyp", 6), ("io_loop.hyp", 4)]


def record_decided(monkeypatch):
    """The queries of the universal traces that `ExistentialSide.witness`
    decides, each with the witness's scope."""
    decided = []
    witness = encode.ExistentialSide.witness

    def recorded(side, universal, feasibility):
        found = witness(side, universal, feasibility)
        if found is not None:
            decided.append((encode.lazy_query(universal, side),
                            side.block(found)[1]))
        return found
    monkeypatch.setattr(encode.ExistentialSide, "witness", recorded)
    return decided


@pytest.mark.parametrize("source, n", DECIDING_SEARCHES)
def test_every_decided_query_is_unsat(monkeypatch, source, n):
    decided = record_decided(monkeypatch)
    result = run_fixture(source, n, SearchOptions(solver_argv=smt.BUNDLED_SOLVER))
    assert len(decided) == result.stats.decided
    with smt.Solver(smt.BUNDLED_SOLVER) as solver:
        for query, _ in decided:
            assert solver.check(query.formula, query.free_vars) == smt.Unsat()


@pytest.mark.parametrize("source, n, guarded", [
    ("voting_buggy.hyp", 4, True), ("voting_correct.hyp", 6, True),
    ("io_loop.hyp", 4, True), ("escalating.hyp", 10, False),
])
def test_unknown_path_feasibility_decides_no_query(opts, monkeypatch, source, n,
                                                   guarded):
    # An unknown answer proves no path, so a witness whose path passed a
    # guard is lost, and its query goes to the solver, which reaches the
    # same verdict. `limit` in escalating.hyp has no guard: its paths stay
    # true, proved without a check, and decide the same queries. With no
    # verdict from the facts, every guarded path reaches the check.
    expected = run_fixture(source, n, opts)
    assert expected.stats.decided > 0
    monkeypatch.setattr(symexec, "_verdict", lambda facts: None)
    monkeypatch.setattr(symexec.Feasibility, "check",
                        lambda self, formula: smt.Unknown("forced"))
    result = run_fixture(source, n, opts)
    assert result.stats.decided == (0 if guarded else expected.stats.decided)
    assert (result.stats.sat_calls + result.stats.decided
            == expected.stats.sat_calls + expected.stats.decided)
    assert result.verdict == expected.verdict


# Only inputs above 5 let `big` output 1, except 0 in `big_or_zero`.
DOMAIN_SPEC = """
    prog one {{ loop {{ input x; out := 1; observe end; }} }}
    prog big {{
      loop {{
        input x;
        if (x > 5) {{ out := 1; }} else {{ {otherwise} }}
        observe end;
      }}
    }}
    forall a in one obs {{end}} .
    exists b in big obs {{end}} .
    always (out@a == out@b)
    """


@pytest.mark.parametrize("otherwise, verdict", [
    ("out := 0;", BugFound),
    ("if (x == 0) { out := 1; } else { out := 0; }", NoBugUpTo),
])
def test_domain_unsat_scope_is_never_a_witness(monkeypatch, otherwise, verdict):
    # Without a domain, the x > 5 trace matches every universal trace. In
    # the domain 0..1 its scope (path and domain) is unsat: it is no
    # witness, and no match is left unless `x == 0` supplies one.
    source = DOMAIN_SPEC.format(otherwise=otherwise)
    checks = [0]
    check = symexec.Feasibility.check

    def counted(self, formula):
        checks[0] += 1
        return check(self, formula)

    monkeypatch.setattr(symexec.Feasibility, "check", counted)
    free = analyze_source(source, n=3)
    free_checks, checks[0] = checks[0], 0
    assert free.verdict == NoBugUpTo(3)
    assert free.stats.decided == 1 + 1 + 1
    decided = record_decided(monkeypatch)
    result = analyze_source(source, n=3, opts=SearchOptions(domain=(0, 1)))
    loaded = frontend.load(source)
    oracle = concrete.oracle_check(loaded.quantifiers, loaded.body, 3, range(0, 2))
    assert isinstance(result.verdict, verdict)
    assert oracle.verdict == ("violated" if verdict is BugFound else "holds")
    if verdict is BugFound:
        assert result.verdict.k == oracle.k == 1
        assert decided == []
    else:
        assert len(decided) == result.stats.decided == 3
        # The paths are the same with or without a domain; on top of their
        # checks, each candidate's scope is checked once in its bound: at
        # bound k, the 2^k traces that output 1 at every index, until the
        # first one that never takes x > 5.
        assert checks[0] - free_checks == 2 + 4 + 8
    with smt.Solver(smt.BUNDLED_SOLVER) as solver:
        for _, scope in decided:
            assert isinstance(solver.check(scope), smt.Sat)


def test_naive_matches_oracle_on_random_specs(solver_argv):
    # The closed encoding goes through the solver with genuine quantifier
    # alternation; its verdicts must match the finite-domain oracle.
    import random
    from conftest import random_graph, random_observed
    from test_acceptance import random_body

    rng = random.Random(61)
    done = attempts = 0
    while done < 25 and attempts < 200:
        attempts += 1
        g1 = random_graph(rng, "u", ("a", "b"))
        g2 = random_graph(rng, "e", ("c", "d"))
        o1 = random_observed(rng, g1)
        o2 = random_observed(rng, g2)
        spec_body = random_body(rng)
        quants = [Quantifier("forall", "t1", g1, o1), Quantifier("exists", "t2", g2, o2)]
        oracle = concrete.oracle_check(quants, spec_body, 2, [0, 1], 16)
        if oracle.verdict == "inconclusive":
            continue
        gen = driver.GeneralizedSpec(*quants, body=spec_body)
        run_opts = SearchOptions(solver_argv=solver_argv, step_budget=16,
                                 node_budget=20_000, domain=(0, 1))
        result = naive_search(gen, 2, run_opts)
        if isinstance(result.verdict, Inconclusive):
            continue
        if oracle.verdict == "violated":
            assert isinstance(result.verdict, BugFound), attempts
            assert result.verdict.k == oracle.k, attempts
        else:
            assert isinstance(result.verdict, NoBugUpTo), attempts
        done += 1
    assert done == 25


def test_cli_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-m", "hyperfind.cli", fixture_path("positive_output.hyp"),
         "--report", "text"],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert "bug found at k=1" in result.stdout


def run_cli_on_assignment(tmp_path, expr, *args):
    """The CLI, as a user starts it with `args`, on a spec whose program
    assigns `expr`."""
    path = tmp_path / "deep.hyp"
    path.write_text(f"prog p {{ havoc y; x := {expr}; observe end; }}\n"
                    "forall a in p obs {end} . exists b in p obs {end} .\n"
                    "always (x@a == x@b)\n")
    return subprocess.run([sys.executable, "-m", "hyperfind.cli", str(path), *args],
                          capture_output=True, text=True)


def test_cli_input_nested_too_deeply_to_load_is_a_parse_error(tmp_path):
    result = run_cli_on_assignment(tmp_path, "(" * 500 + "1" + ")" * 500)
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert "nests too deeply" in result.stderr


def test_cli_term_nested_too_deeply_to_search_is_inconclusive(tmp_path):
    # 600 summands load, but the search's term walks exceed the recursion
    # limit: both searches hash the existential terms when they prepare a
    # bound's existential side.
    for algorithm in ("lazy", "naive"):
        result = run_cli_on_assignment(tmp_path, " + ".join(["y"] * 600),
                                       "--algorithm", algorithm)
        assert result.returncode == 2, algorithm
        assert "Traceback" not in result.stderr
        report = json.loads(result.stdout)
        assert (report["verdict"], report["reason"]) == ("inconclusive", "recursion-limit")
        assert "nests too deeply" in report["detail"]


def test_cli_term_nested_too_deeply_to_dump_is_a_usage_error(tmp_path):
    result = run_cli_on_assignment(tmp_path, " + ".join(["y"] * 600), "--dump-graphs")
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert "nests too deeply" in result.stderr


@pytest.mark.parametrize("solver",["/bin/false", "/nonexistent/solver-binary"])
def test_cli_solver_failure_is_inconclusive(solver):
    result = subprocess.run(
        [sys.executable, "-m", "hyperfind.cli", fixture_path("gni.hyp"),
         "--solver", solver],
        capture_output=True, text=True)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    report = json.loads(result.stdout)
    assert (report["verdict"], report["reason"]) == ("inconclusive", "solver-error")
    assert report["detail"]
