"""The benchmark's tracer, `perfbench/spans.py`, patches hyperfind's module
boundaries by name from outside. These tests fail when a change to the
program renames or deletes a name it patches, or moves exploration out of
the spans that measure it."""

import os
import sys

from hyperfind import concrete, driver, encode, frontend, graph, smt, symexec
from hyperfind.driver import NoBugUpTo, SearchOptions

from conftest import bench_source, fresh_bound_search

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
import spans  # noqa: E402

PATCHED = (driver, frontend, graph, symexec, symexec.ObserveStream,
           symexec.Feasibility, symexec.SymTrace, encode, smt, smt.SolverSession,
           concrete)


def test_traced_search_measures_exploration_and_uninstalls(solver_argv):
    before = {owner: dict(vars(owner)) for owner in PATCHED}
    source = bench_source("voting_correct.hyp")
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        result = driver.analyze_source(source, n=3,
                                       opts=SearchOptions(solver_argv=solver_argv))
    finally:
        uninstall()
    assert result.verdict == NoBugUpTo(3)
    metrics = spans.layer_metrics(tracer, 0.0)
    assert metrics["symexec.explore_ms"] > 0

    # Both quantifiers range over one program, so the search walks one
    # tree and extends each of its nodes with fewer than 3 observations
    # once: as often as a walk over bounds 1..3 extends a node.
    side = driver.generalize(frontend.load(source)).universal
    with smt.Solver(solver_argv) as solver:
        walk = symexec.Walk(side.graph, side.observed, 3, symexec.FreshSupply(),
                            symexec.Feasibility(solver))
        for j in (1, 2, 3):
            list(walk.stream(j))
    extended = sum(kids is not None for kids in walk.tree)
    assert metrics["symexec.extend_calls"] == extended > 0
    # The universal side streams the bound that the existential side
    # listed on the shared walk, so each side counts every trace it reads.
    assert metrics["symexec.traces_u"] == metrics["symexec.traces_e"] > 0

    for owner, attributes in before.items():
        after = vars(owner)
        for name, value in attributes.items():
            assert after[name] is value, (owner, name)


def test_traced_naive_search_counts_one_encode_per_universal_trace(solver_argv):
    # The naive query is built from one lazy query per universal trace, so
    # the encode layer counts as many queries as bounds 1..3 hold
    # universal traces.
    before = {owner: dict(vars(owner)) for owner in PATCHED}
    source = bench_source("voting_correct.hyp")
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        result = driver.analyze_source(source, n=3, algorithm="naive",
                                       opts=SearchOptions(solver_argv=solver_argv))
    finally:
        uninstall()
    assert result.verdict == NoBugUpTo(3)
    side = driver.generalize(frontend.load(source)).universal
    with smt.Solver(solver_argv) as solver:
        traces = sum(len(fresh_bound_search(side.graph, side.observed, k,
                                            symexec.FreshSupply(),
                                            symexec.Feasibility(solver))[0])
                     for k in (1, 2, 3))
    assert spans.layer_metrics(tracer, 0.0)["encode.queries"] == traces > 0

    for owner, attributes in before.items():
        after = vars(owner)
        for name, value in attributes.items():
            assert after[name] is value, (owner, name)


def test_in_process_checks_stay_inside_the_solver_spans():
    # The bundled solver runs in this process, yet every check it answers is
    # still timed by the traced `smt.*` layers: one session, one check per
    # query sent.
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        result = driver.analyze_source(bench_source("min_flip.hyp"), n=3)
    finally:
        uninstall()
    metrics = spans.layer_metrics(tracer, 0.0)
    assert metrics["smt.sessions"] == 1
    assert metrics["smt.checks"] == result.stats.sat_calls == 14
