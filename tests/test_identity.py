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


def test_identity_finds_a_checkout_identical_to_itself():
    proc = run(ROOT, ROOT)
    assert (proc.returncode, proc.stdout) == (0, "identical: 58 searches\n"), proc.stderr
