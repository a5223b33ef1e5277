import json
import os
import subprocess
import sys

import pytest

from hyperfind import concrete, driver, frontend, logic, smt
from hyperfind.cli import main as cli_main
from hyperfind.driver import (
    BugFound, Inconclusive, NoBugUpTo, SearchOptions, analyze_source,
    generalize, lazy_search, naive_search,
)

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
    assert gen.body == loaded.spec.body


def test_generalize_folds_universal_block():
    loaded = frontend.load(bench_source("gni.hyp"))
    gen = generalize(loaded)
    assert gen.universal.trace_var == "p1&p2"
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
    replay = concrete.replay(gen.universal.graph, gen.universal.observed,
                             cex1.concrete_full, cex1.concrete_observed)
    assert replay.ok


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


def test_combinations_count_pairs(opts):
    result = run_fixture("voting_correct.hyp", 4, opts)
    # universal and existential sets both have 2^k traces at bound k
    assert result.stats.combinations == sum((2 ** k) * (2 ** k) for k in (1, 2, 3, 4))
    assert result.stats.sat_calls == sum(2 ** k for k in (1, 2, 3, 4))


def test_search_runs_feasibility_and_queries_on_one_solver_process(opts, sessions):
    source = """
    prog p {
      loop {
        input x;
        if (x > 0) {
          if (x < 3) { out := x; } else { out := 0; }
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
    result = analyze_source(source, n=2, opts=opts)
    assert isinstance(result.verdict, NoBugUpTo)
    assert result.stats.feasibility_calls > 0 and result.stats.sat_calls > 0
    assert len(sessions) == 1


def test_failed_replay_is_inconclusive(opts, monkeypatch):
    monkeypatch.setattr(concrete, "replay",
                        lambda *args, **kwargs: concrete.ReplayResult(False, "forced"))
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
    assert set(report["stats"]) == {"combinations", "sat_calls", "wall_ms"}
    json.dumps(report)  # must be serializable


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


def test_cli_dump_graphs(capsys):
    assert cli_main([fixture_path("positive_output.hyp"), "--dump-graphs"]) == 0
    out = capsys.readouterr().out
    assert "x := 0" in out
    assert "->" in out


def test_cli_emit_smt(tmp_path, capsys):
    code = cli_main([fixture_path("simple_nonrefinement.hyp"),
                     "--emit-smt", str(tmp_path / "queries")])
    capsys.readouterr()
    assert code == 1
    files = sorted(os.listdir(tmp_path / "queries"))
    assert files and files[0].startswith("query_k1_")
    text = (tmp_path / "queries" / files[0]).read_text()
    assert "(set-logic" in text and "(check-sat)" in text


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

    assert cli_main([str(path), "--bench", "--repetitions", "1"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "error" in out


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
        quants = [concrete.OracleQuantifier("forall", "t1", g1, o1),
                  concrete.OracleQuantifier("exists", "t2", g2, o2)]
        oracle = concrete.oracle_check(quants, spec_body, 2, [0, 1], 16)
        if oracle.verdict == "inconclusive":
            continue
        gen = driver.GeneralizedSpec(
            universal=driver.QuantSide("t1", g1, o1),
            existential=driver.QuantSide("t2", g2, o2),
            body=spec_body)
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


@pytest.mark.parametrize("solver", ["/bin/false", "/nonexistent/solver-binary"])
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
