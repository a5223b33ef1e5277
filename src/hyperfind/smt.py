"""Bridge to an external SMT solver process over the SMT-LIB2 wire format.

The bridge is solver-agnostic: it writes `(set-logic ...)`,
`(declare-const v Int)`, `(assert ...)`, `(check-sat)`, `(get-value (...))`,
`(push 1)`, `(pop 1)`, `(reset)` and reads `sat`/`unsat`/`unknown` plus
value lists. Integer literals are decimal, negatives as `(- n)`.

`Solver` is what a search talks to: one lazily started `SolverSession`
whose every check is a scoped push/assert/check/pop over level-0
declarations, restarted once on a transport failure.

`resolve_solver` picks yices-smt2, z3, or cvc5 from PATH and falls back to
the bundled reference solver (`python -m hyperfind.refsolver`) so the tool
works on machines without a mainstream solver installed.
"""

from __future__ import annotations

import os
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from . import logic
from .logic import And, BinTerm, BoolLit, Cmp, Formula, Implies, IntLit, Not, Or, Quant, Term, Var

DEFAULT_FEASIBILITY_TIMEOUT_MS = 5000
DEFAULT_QUERY_TIMEOUT_MS = 60000
LOGIC = "LIA"


class SolverError(Exception):
    """Transport-level failure: crash, malformed output, broken pipe."""


class SolverContractError(Exception):
    """API misuse: pop at depth zero, assert with undeclared variables."""


@dataclass(frozen=True)
class Sat:
    model: Dict[str, int]


@dataclass(frozen=True)
class Unsat:
    pass


@dataclass(frozen=True)
class Unknown:
    reason: str


SatResult = Union[Sat, Unsat, Unknown]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_CMP_SMT = {"=": "=", "!=": "distinct", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def term_to_smt(term: Term) -> str:
    if isinstance(term, IntLit):
        return str(term.value) if term.value >= 0 else f"(- {-term.value})"
    if isinstance(term, Var):
        return term.name
    if isinstance(term, BinTerm):
        return f"({term.op} {term_to_smt(term.left)} {term_to_smt(term.right)})"
    raise TypeError(f"not a term: {term!r}")


def formula_to_smt(formula: Formula) -> str:
    if isinstance(formula, BoolLit):
        return "true" if formula.value else "false"
    if isinstance(formula, Cmp):
        return f"({_CMP_SMT[formula.op]} {term_to_smt(formula.left)} {term_to_smt(formula.right)})"
    if isinstance(formula, Not):
        return f"(not {formula_to_smt(formula.arg)})"
    if isinstance(formula, And):
        return "(and " + " ".join(formula_to_smt(a) for a in formula.args) + ")"
    if isinstance(formula, Or):
        return "(or " + " ".join(formula_to_smt(a) for a in formula.args) + ")"
    if isinstance(formula, Implies):
        return f"(=> {formula_to_smt(formula.left)} {formula_to_smt(formula.right)})"
    if isinstance(formula, Quant):
        binders = " ".join(f"({v} Int)" for v in formula.vars)
        return f"({formula.kind} ({binders}) {formula_to_smt(formula.body)})"
    raise TypeError(f"not a formula: {formula!r}")


def query_script(formula: Formula, wanted: Sequence[str] = ()) -> str:
    """Complete standalone SMT-LIB2 script for one query (for --emit-smt)."""
    names = sorted(logic.free_vars(formula) | set(wanted))
    lines = [f"(set-logic {LOGIC})"]
    lines += [f"(declare-const {v} Int)" for v in names]
    lines.append(f"(assert {formula_to_smt(formula)})")
    lines.append("(check-sat)")
    if wanted:
        lines.append("(get-value (" + " ".join(sorted(wanted)) + "))")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Solver discovery
# ---------------------------------------------------------------------------

def _argv_for(path: str) -> List[str]:
    base = os.path.basename(path)
    if "yices" in base:
        return [path, "--incremental"]
    if "z3" in base:
        return [path, "-in"]
    if "cvc5" in base or "cvc4" in base:
        return [path, "--incremental", "--produce-models", "--lang", "smt2"]
    return [path]


def resolve_solver(path: Optional[str] = None) -> List[str]:
    """Argument vector for the solver subprocess."""
    if path:
        return _argv_for(path)
    for candidate in ("yices-smt2", "z3", "cvc5"):
        found = shutil.which(candidate)
        if found:
            return _argv_for(found)
    return [sys.executable, "-m", "hyperfind.refsolver"]


def _bundled_solver_env() -> Dict[str, str]:
    """Environment for the bundled solver: make this package importable by
    the child interpreter even when running from an uninstalled checkout."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (package_root + os.pathsep + existing) if existing \
            else package_root
    return env


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------

class SolverSession:
    """One solver process with an incremental assertion stack."""

    def __init__(self, argv: Optional[Sequence[str]] = None,
                 timeout_ms: int = DEFAULT_QUERY_TIMEOUT_MS):
        self.argv = list(argv) if argv else resolve_solver()
        self.timeout_ms = timeout_ms
        self.depth = 0
        self.declared: Set[str] = set()
        self._buffer = b""
        env = _bundled_solver_env() if "hyperfind.refsolver" in " ".join(self.argv) else None
        try:
            self.proc = subprocess.Popen(
                self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, env=env)
        except OSError as exc:
            raise SolverError(f"cannot start solver {self.argv}: {exc}") from None
        try:
            self._configure()
        except SolverError:
            self.close()
            raise

    def _configure(self):
        self._send(f"(set-logic {LOGIC})")
        # Only z3 and the bundled solver take :timeout (milliseconds); other
        # solvers would answer with an error line and desynchronize the pipe.
        # The Python-side deadline in check() is the real enforcement.
        joined = " ".join(self.argv)
        if self.timeout_ms and ("z3" in os.path.basename(self.argv[0]) or "refsolver" in joined):
            self._send(f"(set-option :timeout {self.timeout_ms})")

    # -- plumbing ----------------------------------------------------------

    def _send(self, line: str):
        if self.proc.poll() is not None:
            raise SolverError("solver process has exited")
        try:
            self.proc.stdin.write((line + "\n").encode())
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise SolverError(f"solver pipe broken: {exc}") from None

    def _read_line(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._kill()
                raise TimeoutError()
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.25))
            if not ready:
                if self.proc.poll() is not None:
                    raise SolverError("solver process exited unexpectedly")
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise SolverError("solver closed its output stream")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode().strip()

    def _read_sexpr(self, deadline: float) -> str:
        text = self._read_line(deadline)
        while text.count("(") > text.count(")"):
            text += " " + self._read_line(deadline)
        return text

    def _kill(self):
        try:
            self.proc.kill()
        except OSError:
            pass
        self.proc.wait()

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b"(exit)\n")
                self.proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=1)
            except subprocess.TimeoutExpired:
                self._kill()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass  # unflushed bytes into a dead process; the fd is closed anyway

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- SMT-LIB2 surface ----------------------------------------------------

    def declare(self, names: Iterable[str]):
        for name in sorted(set(names) - self.declared):
            self._send(f"(declare-const {name} Int)")
            self.declared.add(name)

    def assert_formula(self, formula: Formula):
        missing = logic.free_vars(formula) - self.declared
        if missing:
            raise SolverContractError(
                f"assert references undeclared variables: {sorted(missing)}")
        self._send(f"(assert {formula_to_smt(formula)})")

    def push(self):
        self._send("(push 1)")
        self.depth += 1

    def pop(self):
        if self.depth == 0:
            raise SolverContractError("pop at assertion-stack depth 0")
        self._send("(pop 1)")
        self.depth -= 1

    def reset(self):
        self._send("(reset)")
        self.depth = 0
        self.declared = set()
        self._configure()

    def check(self, wanted: Sequence[str] = (),
              timeout_ms: Optional[int] = None) -> SatResult:
        timeout_ms = timeout_ms if timeout_ms is not None else self.timeout_ms
        deadline = time.monotonic() + timeout_ms / 1000.0
        self._send("(check-sat)")
        try:
            answer = self._read_line(deadline)
        except TimeoutError:
            return Unknown("timeout")
        if answer == "unsat":
            return Unsat()
        if answer == "unknown":
            return Unknown("solver returned unknown")
        if answer.startswith("(error"):
            raise SolverError(f"solver error: {answer}")
        if answer != "sat":
            raise SolverError(f"unexpected solver answer {answer!r}")
        model: Dict[str, int] = {}
        wanted = sorted(set(wanted))
        if wanted:
            missing = set(wanted) - self.declared
            if missing:
                raise SolverContractError(
                    f"get-value on undeclared variables: {sorted(missing)}")
            self._send("(get-value (" + " ".join(wanted) + "))")
            try:
                text = self._read_sexpr(deadline)
            except TimeoutError:
                return Unknown("timeout")
            model = _parse_values(text)
        # Model completion: solvers may omit don't-cares; default them to 0.
        for name in wanted:
            model.setdefault(name, 0)
        return Sat(model)

    def check_formula(self, formula: Formula, wanted: Sequence[str] = (),
                      timeout_ms: Optional[int] = None) -> SatResult:
        """push; declare+assert formula; check; pop."""
        self.declare(logic.free_vars(formula) | set(wanted))
        self.push()
        try:
            self.assert_formula(formula)
            return self.check(wanted, timeout_ms)
        finally:
            if self.proc.poll() is None:
                self.pop()
            else:
                self.depth = max(0, self.depth - 1)


def _parse_values(text: str) -> Dict[str, int]:
    if text.startswith("(error"):
        raise SolverError(f"solver error: {text}")
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = [0]

    def read():
        tok = tokens[pos[0]]
        pos[0] += 1
        if tok == "(":
            items = []
            while tokens[pos[0]] != ")":
                items.append(read())
            pos[0] += 1
            return items
        return tok

    try:
        tree = read()
    except IndexError:
        raise SolverError(f"malformed get-value response: {text!r}") from None
    model: Dict[str, int] = {}
    if not isinstance(tree, list):
        raise SolverError(f"malformed get-value response: {text!r}")
    for entry in tree:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SolverError(f"malformed get-value entry: {entry!r}")
        name, value = entry
        model[name] = _parse_int(value)
    return model


def _parse_int(value) -> int:
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            raise SolverError(f"non-integer model value {value!r}") from None
    if isinstance(value, list) and len(value) == 2 and value[0] == "-":
        return -_parse_int(value[1])
    raise SolverError(f"non-integer model value {value!r}")


class Solver:
    """The one solver of a search.

    The session starts on the first check. Every check goes through
    `SolverSession.check_formula`, so declarations accumulate at level 0
    and each formula lives in its own push/pop scope: path-feasibility
    checks and per-trace queries share one process. A transport failure
    closes the session and retries the check once on a fresh one; a second
    failure is raised. A timed-out check leaves a killed process behind, so
    the session is dropped and the next check starts a new one.
    """

    def __init__(self, argv: Optional[Sequence[str]] = None,
                 timeout_ms: int = DEFAULT_QUERY_TIMEOUT_MS):
        self.argv = argv
        self.timeout_ms = timeout_ms
        self.session: Optional[SolverSession] = None

    def check(self, formula: Formula, wanted: Sequence[str] = (),
              timeout_ms: Optional[int] = None) -> SatResult:
        try:
            result = self._session().check_formula(formula, wanted, timeout_ms)
        except SolverError:
            self.close()
            result = self._session().check_formula(formula, wanted, timeout_ms)
        if result == Unknown("timeout"):
            self.close()
        return result

    def _session(self) -> SolverSession:
        if self.session is None:
            self.session = SolverSession(self.argv, self.timeout_ms)
        return self.session

    def close(self):
        if self.session is not None:
            self.session.close()
            self.session = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
