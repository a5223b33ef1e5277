"""Out-of-program tracing: spans at the module boundaries of hyperfind.

`install` wraps the public entry points of each module from outside (the
program itself is not changed) and records, per span name, the number of
spans, their total time and their self time: a span's duration minus the
part of it that its child spans cover. Spans are kept in memory as those
per-name sums and read out by the benchmark after each pass.

Only module boundaries get spans. Hot helpers such as `logic.free_vars` and
`logic.substitute` are deliberately not wrapped: a span costs a few
microseconds, and wrapping a helper that runs hundreds of thousands of times
per search would measure the tracer instead of the program. The recursive
serializer `smt.formula_to_smt` is traced only at its outermost call.

Every span opens under the root span `driver.search`, which wraps
`driver.analyze_source`. Whatever no named layer's span covers is left in the
root's self time (`driver.self_ms`): the driver's own work, and any helper
that no span wraps.

What tracing adds is measured, not assumed: `wrapper_costs_s` times a wrapped
no-op against a bare one, and `overhead_s` multiplies that cost by the
number of spans and counted calls of a traced pass.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from typing import Dict, List

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack: List[list] = []          # [name, start, child time]
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.spans: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> None:
        self.stack.append([name, _clock(), 0.0])

    def end(self) -> None:
        name, start, children = self.stack.pop()
        elapsed = _clock() - start
        self.total[name] += elapsed
        self.self_time[name] += elapsed - children
        self.spans[name] += 1
        if self.stack:
            self.stack[-1][2] += elapsed

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount


def spanner(tracer: Tracer, error_type):
    """Returns `span(name, fn)`, which wraps `fn` in a span of `tracer`."""
    def span(name, fn):
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            except error_type as exc:
                # Count each transport failure once, where it first surfaces.
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.count("smt.errors")
                raise
            finally:
                tracer.end()
        return wrapper
    return span


def counter(tracer: Tracer, name: str, fn):
    """Wraps `fn` so that its calls are counted, without a span."""
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


def _per_call_s(fn, calls: int = 20000, repeats: int = 7) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = _clock()
        for _ in range(calls):
            fn()
        best = min(best, _clock() - start)
    return best / calls


def wrapper_costs_s() -> Dict[str, float]:
    """What one span and one counted call add to a call, in seconds.

    Each is a wrapped no-op's time minus a bare no-op's, the best of several
    timings (as `timeit` takes it), so that the figure is the wrapper's own
    cost and not the machine's noise.
    """
    from hyperfind import smt

    def noop():
        return None

    tracer = Tracer()
    bare = _per_call_s(noop)
    spanned = spanner(tracer, smt.SolverError)("calibrate", noop)
    counted = counter(tracer, "calibrate", noop)
    return {
        "span": max(0.0, _per_call_s(spanned) - bare),
        "count": max(0.0, _per_call_s(counted) - bare),
    }


def overhead_s(tracer: Tracer, costs: Dict[str, float]) -> float:
    """The time the spans and counted calls of one traced pass added."""
    return (costs["span"] * sum(tracer.spans.values())
            + costs["count"] * tracer.counts["symexec.extend_calls"])


def install(tracer: Tracer):
    """Patch hyperfind's module boundaries; returns a function that undoes it."""
    from hyperfind import concrete, driver, encode, frontend, graph, smt, symexec

    undo = []

    def patch(owner, attr, replacement):
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    span = spanner(tracer, smt.SolverError)

    # -- driver ----------------------------------------------------------
    # Lazy search materializes only the existential side, through
    # driver._materialize; every other stream is the universal side's.
    side = {"now": "u"}
    original_materialize = driver._materialize

    def materialize(*args, **kwargs):
        side["now"] = "e"
        try:
            return original_materialize(*args, **kwargs)
        finally:
            side["now"] = "u"
    patch(driver, "_materialize", materialize)
    patch(driver, "analyze_source", span("driver.search", driver.analyze_source))

    # -- frontend ----------------------------------------------------------
    traced_load = span("frontend.load", frontend.load)

    def load(source):
        loaded = traced_load(source)
        tracer.count("frontend.locations", sum(
            len(p.graph.locations) for p in loaded.programs.values()))
        return loaded
    patch(frontend, "load", load)

    # -- graph -------------------------------------------------------------
    traced_product = span("graph.product", graph.async_product)

    def async_product(*args, **kwargs):
        product = traced_product(*args, **kwargs)
        tracer.count("graph.product_locations", len(product.graph.locations))
        return product
    patch(graph, "async_product", async_product)

    # -- symexec -----------------------------------------------------------
    original_iter = symexec.ObserveStream.__iter__

    def stream_iter(stream):
        traces = "symexec.traces_" + side["now"]
        inner = original_iter(stream)
        while True:
            tracer.begin("symexec.explore")
            try:
                trace = next(inner)
            except StopIteration:
                return
            finally:
                tracer.end()
            tracer.count(traces)
            yield trace
    patch(symexec.ObserveStream, "__iter__", stream_iter)

    # Counted only: its time is part of the enclosing explore span.
    patch(symexec, "extend",
          counter(tracer, "symexec.extend_calls", symexec.extend))

    traced_feas = span("symexec.feas", symexec.Feasibility.check)

    def feas_check(self, formula):
        tracer.count("symexec.feas_checks")
        return traced_feas(self, formula)
    patch(symexec.Feasibility, "check", feas_check)

    patch(symexec.SymTrace, "free_vars",
          span("symexec.free_vars", symexec.SymTrace.free_vars))

    # -- encode ------------------------------------------------------------
    patch(encode, "lazy_query", span("encode.query", encode.lazy_query))

    # -- smt ---------------------------------------------------------------
    session = smt.SolverSession

    patch(session, "__init__", span("smt.spawn", session.__init__))
    patch(session, "close", span("smt.close", session.close))
    patch(session, "assert_formula",
          span("smt.assert", session.assert_formula))
    for attr in ("declare", "push", "pop", "reset"):
        patch(session, attr, span("smt.stack", session.__dict__[attr]))

    original_check = session.check

    def check(self, *args, **kwargs):
        first = not self.__dict__.get("_perfbench_checked", False)
        self._perfbench_checked = True
        result = traced_checks[first](self, *args, **kwargs)
        if isinstance(result, smt.Unknown):
            tracer.count("smt.unknowns")
        return result
    traced_checks = {
        True: span("smt.first_check", original_check),
        False: span("smt.check", original_check),
    }
    patch(session, "check", check)

    traced_check_formula = span("smt.stack", session.check_formula)

    def check_formula(self, *args, **kwargs):
        # Only symexec.Feasibility checks through check_formula.
        tracer.count("symexec.feas_solver_calls")
        result = traced_check_formula(self, *args, **kwargs)
        if isinstance(result, smt.Unsat):
            tracer.count("symexec.feas_pruned")
        return result
    patch(session, "check_formula", check_formula)

    original_serialize = smt.formula_to_smt

    def formula_to_smt(formula):
        # Recursive calls resolve the module global, so point it at the
        # original while the outermost call runs: one span per assert.
        smt.formula_to_smt = original_serialize
        tracer.begin("smt.serialize")
        try:
            text = original_serialize(formula)
        finally:
            tracer.end()
            smt.formula_to_smt = formula_to_smt
        tracer.count("smt.query_bytes", len(text))
        return text
    patch(smt, "formula_to_smt", formula_to_smt)

    # -- concrete ----------------------------------------------------------
    patch(concrete, "replay", span("concrete.replay", concrete.replay))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def layer_metrics(tracer: Tracer, refsolver_cpu_s: float) -> Dict[str, float]:
    """Per-layer figures of one traced pass, from the tracer's sums."""
    ms = defaultdict(float, {k: 1000.0 * v for k, v in tracer.self_time.items()})
    c = tracer.counts
    n = tracer.spans
    solver_calls = c["symexec.feas_solver_calls"]
    return {
        "frontend.load_ms": ms["frontend.load"],
        "frontend.locations": c["frontend.locations"],
        "graph.product_ms": ms["graph.product"],
        "graph.product_locations": c["graph.product_locations"],
        "symexec.explore_ms": ms["symexec.explore"],
        "symexec.extend_calls": c["symexec.extend_calls"],
        "symexec.traces_u": c["symexec.traces_u"],
        "symexec.traces_e": c["symexec.traces_e"],
        "symexec.feas_checks": c["symexec.feas_checks"],
        "symexec.feas_solver_calls": solver_calls,
        "symexec.feas_pruned_ratio":
            c["symexec.feas_pruned"] / solver_calls if solver_calls else 0.0,
        # Inclusive: the feasibility layer's cost, its solver round trips too.
        "symexec.feas_ms": 1000.0 * tracer.total["symexec.feas"],
        "symexec.free_vars_calls": n["symexec.free_vars"],
        "symexec.free_vars_ms": ms["symexec.free_vars"],
        "encode.query_ms": ms["encode.query"],
        "encode.queries": n["encode.query"],
        "smt.sessions": n["smt.spawn"],
        "smt.spawn_ms": ms["smt.spawn"],
        "smt.first_check_ms": ms["smt.first_check"],
        "smt.close_ms": ms["smt.close"],
        "smt.checks": n["smt.first_check"] + n["smt.check"],
        "smt.check_ms": ms["smt.check"],
        "smt.unknowns": c["smt.unknowns"],
        "smt.errors": c["smt.errors"],
        "smt.assert_ms": ms["smt.assert"],
        "smt.serialize_ms": ms["smt.serialize"],
        "smt.stack_ms": ms["smt.stack"],
        "smt.query_bytes": c["smt.query_bytes"],
        "refsolver.cpu_s": refsolver_cpu_s,
        "concrete.replays": n["concrete.replay"],
        "concrete.replay_ms": ms["concrete.replay"],
        "driver.self_ms": ms["driver.search"],
    }
