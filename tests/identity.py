"""Fingerprint a fixed set of 58 searches, to compare two checkouts.

Usage:

    python tests/identity.py CHECKOUT_ROOT > fingerprint.json
    python tests/identity.py PARENT_ROOT CHANGE_ROOT

With one root, the script imports `hyperfind` from `CHECKOUT_ROOT/src`
and the inputs from `CHECKOUT_ROOT/benchmarks`, runs the searches below
one after the other in this process, and prints one JSON object per
search. With two, it fingerprints each root in its own subprocess and
compares the two: it prints every search and field that differ, with a
count, and exits 1, or says that all searches are identical and exits 0.
A refactor that keeps every search's behaviour leaves no difference.

The searches:
- the 15 manifest instances at their bounds, lazy and naive;
- `voting_correct` lazy n=6 and naive n=3, `voting_buggy` naive n=4;
- `factorial` lazy and naive n=1 at step budget 140, naive n=3 at 60;
- `factorial` n=3 and n=5 at the default step budget, lazy and naive
  (both are cut by the budget);
- `min_flip` lazy n=4 and `io_loop` lazy n=6;
- seven small inputs at domain (0, 1) and n=3, lazy and naive;
- `voting_correct` lazy n=4 and `escalating` lazy n=5 at domain (0, 1),
  which decide queries through a witness whose scope (path and domain)
  is checked, some of those scopes folding to true.

Each record holds the verdict's repr (with the full counterexample), its
name and bound, the search's counters (`combinations`, `sat_calls`,
`decided`, `feasibility_calls`), the calls of `symexec.extend`, the
nodes of the search's symbolic execution trees (the sum of
`len(walk.tree)` over the `symexec.Walk`s it made), the witness that
`encode.ExistentialSide.witness` found for each decided query, in order,
and every check sent to the solver: the SMT-LIB text of its formula, its
wanted names and its answer. Pytest does not collect this file.
"""

import itertools
import json
import os
import subprocess
import sys

DOMAIN_INPUTS = ("positive_output", "echo_leak", "simple_leak", "simple_nonrefinement",
                 "conditional_nonrefinement", "gni", "flip_min")


def searches(inputs):
    """(label, file, n, algorithm, options) of each search."""
    with open(os.path.join(inputs, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    for entry in manifest:
        for algorithm in ("lazy", "naive"):
            yield entry["name"], entry["file"], entry["max_observations"], algorithm, {}
    yield "voting_correct", "voting_correct.hyp", 6, "lazy", {}
    yield "voting_correct", "voting_correct.hyp", 3, "naive", {}
    yield "voting_buggy", "voting_buggy.hyp", 4, "naive", {}
    for algorithm in ("lazy", "naive"):
        yield "factorial", "factorial.hyp", 1, algorithm, {"step_budget": 140}
    yield "factorial", "factorial.hyp", 3, "naive", {"step_budget": 60}
    for n in (3, 5):
        for algorithm in ("lazy", "naive"):
            yield "factorial", "factorial.hyp", n, algorithm, {}
    yield "min_flip", "min_flip.hyp", 4, "lazy", {}
    yield "io_loop", "io_loop.hyp", 6, "lazy", {}
    for name in DOMAIN_INPUTS:
        for algorithm in ("lazy", "naive"):
            yield name, f"{name}.hyp", 3, algorithm, {"domain": (0, 1)}
    yield "voting_correct", "voting_correct.hyp", 4, "lazy", {"domain": (0, 1)}
    yield "escalating", "escalating.hyp", 5, "lazy", {"domain": (0, 1)}


def main(root):
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    from hyperfind import driver, encode, smt, symexec

    checks, witnesses, extends, walks = [], [], [0], []
    check, extend = smt.Solver.check, symexec.extend
    witness = encode.ExistentialSide.witness
    walk_init = symexec.Walk.__init__

    def recorded_check(self, formula, wanted=(), timeout_ms=None):
        result = check(self, formula, wanted, timeout_ms)
        checks.append([smt.formula_to_smt(formula), sorted(wanted), repr(result)])
        return result

    def counted_extend(*args, **kwargs):
        extends[0] += 1
        return extend(*args, **kwargs)

    def recorded_walk_init(self, *args, **kwargs):
        walk_init(self, *args, **kwargs)
        walks.append(self)

    def recorded_witness(self, universal, feasibility):
        found = witness(self, universal, feasibility)
        if found is not None:
            witnesses.append(found)
        return found

    smt.Solver.check = recorded_check
    symexec.extend = counted_extend
    encode.ExistentialSide.witness = recorded_witness
    symexec.Walk.__init__ = recorded_walk_init
    inputs = os.path.join(root, "benchmarks")
    for label, name, n, algorithm, options in searches(inputs):
        with open(os.path.join(inputs, name), encoding="utf-8") as handle:
            source = handle.read()
        checks.clear()
        witnesses.clear()
        walks.clear()
        extends[0] = 0
        result = driver.analyze_source(source, n=n, algorithm=algorithm,
                                       opts=driver.SearchOptions(**options))
        stats = result.stats
        print(json.dumps({
            "search": [label, n, algorithm, {k: list(v) if isinstance(v, tuple) else v
                                             for k, v in options.items()}],
            "verdict": repr(result.verdict),
            "name": driver.verdict_name(result.verdict),
            "combinations": stats.combinations,
            "sat_calls": stats.sat_calls,
            "decided": stats.decided,
            "feasibility_calls": stats.feasibility_calls,
            "extend_calls": extends[0],
            "nodes": sum(len(walk.tree) for walk in walks),
            "checks": checks,
            "witnesses": witnesses,
        }, sort_keys=True))


def differences(parent_prints, change_prints):
    """Every (search, field, parent's value, change's value) in which two
    fingerprint lists differ, in search order. A search that only one list
    holds differs in its field "search"."""
    found = []
    for before, after in itertools.zip_longest(parent_prints, change_prints, fillvalue={}):
        fields = (sorted(before.keys() | after.keys()) if before and after else ["search"])
        for field in fields:
            if before.get(field) != after.get(field):
                found.append(((before or after)["search"], field,
                              before.get(field), after.get(field)))
    return found


def compare(parent, change):
    """0 when the two roots' fingerprints are equal, else 1 after printing
    every search and field that differ."""
    prints = []
    for root in (parent, change):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), root],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"fingerprinting {root} failed with exit code {proc.returncode}")
        prints.append([json.loads(line) for line in proc.stdout.splitlines()])
    found = differences(*prints)
    for search, field, before, after in found:
        print(f"search {json.dumps(search)} differs in {field!r}:\n"
              f"  {parent}: {json.dumps(before)}\n"
              f"  {change}: {json.dumps(after)}")
    if found:
        searches = len({json.dumps(search) for search, _, _, _ in found})
        print(f"{len(found)} differences in {searches} of "
              f"{max(map(len, prints))} searches")
        return 1
    print(f"identical: {len(prints[0])} searches")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        main(sys.argv[1])
    elif len(sys.argv) == 3:
        sys.exit(compare(sys.argv[1], sys.argv[2]))
    else:
        sys.exit("usage: python tests/identity.py CHECKOUT_ROOT\n"
                 "       python tests/identity.py PARENT_ROOT CHANGE_ROOT")
