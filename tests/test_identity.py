"""Smoke test of `tests/identity.py`, which pytest does not collect: its two
modes still run on this checkout."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tests", "identity.py")


def run(*roots):
    return subprocess.run([sys.executable, SCRIPT, *roots], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def test_identity_fingerprints_58_searches():
    proc = run(ROOT)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 58
    assert all(record["verdict"] and "checks" in record for record in records)
    # Every search walks at least its root; the count does not depend on
    # how many `extend` calls a node's run takes.
    assert all(record["nodes"] >= 1 for record in records)


def test_identity_finds_a_checkout_identical_to_itself():
    proc = run(ROOT, ROOT)
    assert (proc.returncode, proc.stdout) == (0, "identical: 58 searches\n"), proc.stderr


def load_script():
    """`tests/identity.py` as a module."""
    import importlib.util
    spec = importlib.util.spec_from_file_location("identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_lists_every_difference():
    # Every differing field of every search is listed, in search order and
    # field order; a search that one side lacks differs in "search".
    differences = load_script().differences
    a = {"search": ["a", 1], "verdict": "v", "extend_calls": 3, "checks": []}
    b = {"search": ["b", 2], "verdict": "w", "extend_calls": 5, "checks": []}
    c = {"search": ["c", 3], "verdict": "x", "extend_calls": 1, "checks": []}
    assert differences([a, b], [a, b]) == []
    changed = [a, dict(b, extend_calls=4, verdict="W"), dict(c, checks=[1])]
    assert differences([a, b, c], changed) == [
        (["b", 2], "extend_calls", 5, 4), (["b", 2], "verdict", "w", "W"),
        (["c", 3], "checks", [], [1])]
    assert differences([a, b], [a]) == [(["b", 2], "search", ["b", 2], None)]
    assert differences([a], [a, c]) == [(["c", 3], "search", None, ["c", 3])]
