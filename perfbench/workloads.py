"""Workload definitions and the expected-answer table.

Every expected verdict and detection bound `k` below is derived by hand from
the comments in the `.hyp` files and from the acceptance tests
(`tests/test_acceptance.py`, `tests/test_driver.py`), never from a hyperfind
run. A search whose verdict or `k` differs from this table counts as failed.

`combinations` and `sat_calls` are the exact counts the seed commit reports
for each instance. They are not part of the answer: the run flags a drift
from them, so that a change in the amount of work is visible, but a drift
alone does not fail a search.

The `suite` workload is read from `benchmarks/manifest.json`, as
`driver.bench` reads it; this file only adds the answers, keyed by manifest
name, and refuses a manifest whose names differ from the table's.
"""

from __future__ import annotations

import json
import os
from typing import Dict, NamedTuple, Optional, Tuple

BUG = "bug-found"
NO_BUG = "no-bug"
BUDGET = "inconclusive:budget"

# A search slower than this counts as failed. The slowest search of any
# workload takes about 1 s on a 2-vCPU VM.
LIMIT_S = 60.0


class Answer(NamedTuple):
    verdict: str        # expected verdict
    k: Optional[int]    # expected detection bound (bug-found) or n (no-bug)
    combinations: int   # seed count, drift is flagged
    sat_calls: int      # seed count, drift is flagged


class Instance(NamedTuple):
    name: str
    file: str           # relative to benchmarks/
    n: int              # bound on the number of observations
    answer: Answer
    step_budget: Optional[int] = None


# Answers for the instances of benchmarks/manifest.json at their manifest
# bounds, keyed by manifest name.
SUITE_ANSWERS: Dict[str, Answer] = {
    # Buggy tally: the tallies (0,1),(0,1) have no flipped run at k = 2.
    "voting-buggy": Answer(BUG, 2, 8, 3),
    # Correct tally: symmetry holds up to the bound.
    "voting-correct": Answer(NO_BUG, 4, 340, 30),
    # min refines flip: holds.
    "min-flip": Answer(NO_BUG, 3, 84, 14),
    # flip outputs the larger input at the first observation.
    "flip-min": Answer(BUG, 1, 2, 1),
    # Masked server: GNI holds (forall-forall product).
    "gni": Answer(NO_BUG, 2, 2, 2),
    # Output pins the secret at the first observation.
    "echo-leak": Answer(BUG, 1, 1, 1),
    # Single observation at the end; no reference run matches.
    "simple-nonrefinement": Answer(BUG, 1, 1, 1),
    # Single observation at the end; output equals the secret.
    "simple-leak": Answer(BUG, 1, 1, 1),
    # Single observation at the end; the else branch diverges.
    "conditional-nonrefinement": Answer(BUG, 1, 4, 2),
    # Escalating sweep over the limit's start value m: k = 4, 4, 5, 5, 6.
    "escalating-m0": Answer(BUG, 4, 45, 10),
    "escalating-m1": Answer(BUG, 4, 45, 10),
    "escalating-m2": Answer(BUG, 5, 133, 18),
    "escalating-m5": Answer(BUG, 5, 165, 20),
    "escalating-m6": Answer(BUG, 6, 501, 36),
    # Limit starts at 15: y overtakes every schedule at k = 7.
    "escalating": Answer(BUG, 7, 1941, 72),
}


def suite(inputs: str) -> Tuple[Instance, ...]:
    """The manifest's instances, with the answers of `SUITE_ANSWERS`."""
    with open(os.path.join(inputs, "manifest.json")) as handle:
        manifest = json.load(handle)
    names = [entry["name"] for entry in manifest]
    if sorted(names) != sorted(SUITE_ANSWERS):
        raise ValueError(
            "benchmarks/manifest.json and the answer table differ in "
            f"{sorted(set(names) ^ set(SUITE_ANSWERS))}")
    return tuple(
        Instance(entry["name"], entry["file"],
                 int(entry.get("max_observations", 10)),
                 SUITE_ANSWERS[entry["name"]])
        for entry in manifest)


def load(inputs: str) -> Dict[str, Tuple[Instance, ...]]:
    """Each workload's instances, read from the `benchmarks/` directory.

    Each workload loads a different layer, so that a gain in one layer
    cannot hide a loss in another. A run shuffles the instances of its
    workload by its seed before each pass.

    The fastest call of any search takes at most about 0.6 s on a 2-vCPU
    VM, so that one run times every instance over a dozen times. On a
    shared VM one search of the same input swings by a third from one call
    to the next, and its fastest call in a run is steadier the more calls
    the run holds. For the same reason `min_flip.hyp`, whose queries are
    the largest quantified ones, is no workload of its own: a fourth
    workload would shorten every run, and `suite` holds it at n=3.
    """
    return {
        # Small searches: solver spawn, the first check (which absorbs the
        # solver interpreter's start-up) and close dominate. Replay and the
        # asynchronous product run only here.
        "suite": suite(inputs),
        # 126 queries over 5,460 trace pairs: encode.lazy_query and its
        # free-variable walk take ~60% of the pass, solver checks ~5%
        # beyond the solver's start-up.
        "voting-correct-n6": (
            Instance("voting-correct-n6", "voting_correct.hyp", 6,
                     Answer(NO_BUG, 6, 5460, 126)),),
        # No queries, but 68 small quantifier-free feasibility checks over
        # push/pop: the only workload where path feasibility reaches the
        # solver.
        "factorial-deep": (
            Instance("factorial-deep", "factorial.hyp", 1,
                     Answer(BUDGET, None, 0, 0), step_budget=140),),
    }
